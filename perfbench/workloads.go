package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"wsndse/internal/dse"
	"wsndse/internal/scenario/family"
	"wsndse/internal/service"
)

// jobSeed derives the search seed of job i of a workload from the
// workload seed (SplitMix64 finalizer over a salted index), so specs are
// a pure function of --seed and distinct across jobs.
func jobSeed(seed int64, salt string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	x := h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// builtins are the scenarios registered at init; tiny-jobs rotates over
// them.
var builtins = []string{"ecg-ward", "mixed-ward", "athletes", "dense-gts", "raw-stream"}

// tinyJobs is how many distinct specs tiny-jobs cycles over, 100 per
// built-in scenario, in passes of tinyPass jobs (20 per scenario): small
// passes keep the Manager's retained job records, and so the heap, small.
const (
	tinyJobs = 500
	tinyPass = 100
)

// tinyWarmUp is how many jobs set-up runs before tiny-jobs is measured.
const tinyWarmUp = 50

// setupTiny: NSGA-II 8×4 jobs (~35 evaluations each), so per-job fixed
// cost dominates. Set-up warms the service with ten jobs per scenario.
func setupTiny(o options, dir string) (instance, error) {
	l := &managerLoad{passSize: tinyPass, inFlight: 2, workers: 2}
	for i := 0; i < tinyJobs; i++ {
		l.jobs = append(l.jobs, tinySpec(builtins[i%len(builtins)], jobSeed(o.seed, "tiny-jobs", i)))
	}
	warm := make([]service.Spec, tinyWarmUp)
	for i := range warm {
		warm[i] = tinySpec(builtins[i%len(builtins)], jobSeed(o.seed, "tiny-jobs/warm-up", i))
	}
	if _, err := l.runOnce(dir, warm); err != nil {
		return nil, err
	}
	return l, nil
}

func tinySpec(name string, seed int64) service.Spec {
	return service.Spec{
		Scenario: name, Algorithm: service.AlgoNSGA2, Seed: seed, Workers: 1,
		NSGA2: &dse.NSGA2Config{PopulationSize: 8, Generations: 4},
	}
}

// deepJobs is the pass size of deep-search.
const deepJobs = 16

// deepLoad is deep-search: its reference runs every spec at
// Spec.Workers 1, which the measured Workers 2 jobs must reproduce.
type deepLoad struct{ *managerLoad }

// setupDeep: ecg-ward NSGA-II 64×40 jobs (~2.5k distinct evaluations),
// where time goes to the kernel, memo cache, batch fan-out and
// rank/crowd. Set-up warms the service with one such job.
func setupDeep(o options, dir string) (instance, error) {
	l := &managerLoad{passSize: deepJobs, inFlight: 1, workers: 1}
	for i := 0; i < deepJobs; i++ {
		l.jobs = append(l.jobs, deepSpec(jobSeed(o.seed, "deep-search", i), 2))
	}
	if _, err := l.runOnce(dir, []service.Spec{deepSpec(jobSeed(o.seed, "deep-search/warm-up", 0), 2)}); err != nil {
		return nil, err
	}
	return deepLoad{l}, nil
}

func deepSpec(seed int64, workers int) service.Spec {
	return service.Spec{
		Scenario: "ecg-ward", Algorithm: service.AlgoNSGA2, Seed: seed, Workers: workers,
		NSGA2: &dse.NSGA2Config{PopulationSize: 64, Generations: 40},
	}
}

func (d deepLoad) reference(dir string) ([]string, error) {
	specs := make([]service.Spec, len(d.jobs))
	for i, s := range d.jobs {
		s.Workers = 1
		specs[i] = s
	}
	return d.runOnce(dir, specs)
}

// Warm-family members: A, B and C share a node count, so their fronts
// transfer as sibling seeds; D has another node count, so siblings give
// it nothing and it runs cold.
const (
	memberA = "chipset-sweep/shimmer-n4-homo-short-uniform"
	memberB = "chipset-sweep/telosb-n4-homo-short-uniform"
	memberC = "chipset-sweep/shimmer-n4-homo-long-uniform"
	memberD = "chipset-sweep/micaz-n3-homo-short-block"
)

type memberJob struct {
	scenario, algorithm string
}

var (
	// warmPrefill is archived at set-up, before the store is reopened.
	warmPrefill = []memberJob{
		{memberA, service.AlgoNSGA2}, {memberA, service.AlgoMOSA}, {memberC, service.AlgoNSGA2},
	}
	// warmPass alternates NSGA-II and MOSA in a fixed order: exact hits
	// (A, C, and A's second NSGA-II job on the first's front), sibling
	// transfers (B; and A/C picking up each other), and a member siblings
	// cannot seed (D). The odd length keeps the latency median inside the
	// NSGA-II cluster instead of in the gap between the two algorithms'
	// job times, where it would swing between them.
	warmPass = []memberJob{
		{memberA, service.AlgoNSGA2}, {memberB, service.AlgoMOSA},
		{memberC, service.AlgoNSGA2}, {memberA, service.AlgoMOSA},
		{memberB, service.AlgoNSGA2}, {memberD, service.AlgoMOSA},
		{memberD, service.AlgoNSGA2}, {memberC, service.AlgoMOSA},
		{memberA, service.AlgoNSGA2},
	}
)

func warmSpec(j memberJob, seed int64) service.Spec {
	s := service.Spec{
		Scenario: j.scenario, Algorithm: j.algorithm, Seed: seed, Workers: 1,
		WarmStart: service.WarmStartAuto, CheckpointEvery: 4,
	}
	if j.algorithm == service.AlgoNSGA2 {
		s.NSGA2 = &dse.NSGA2Config{PopulationSize: 32, Generations: 16}
	}
	return s
}

// setupWarm enables the chipset-sweep family, archives the prefill jobs
// in a durable store and reopens it, so set-up includes index replay.
// Every pass starts from a copy of that store, one job in flight, which
// keeps warm-start resolution — and so every front — deterministic.
func setupWarm(o options, dir string) (instance, error) {
	if _, err := family.Enable("chipset-sweep"); err != nil {
		return nil, err
	}
	l := &managerLoad{passSize: len(warmPass), inFlight: 1, workers: 1, dirs: true, prefill: filepath.Join(dir, "results")}
	for i, j := range warmPass {
		l.jobs = append(l.jobs, warmSpec(j, jobSeed(o.seed, "warm-family", i)))
	}
	prefill := make([]service.Spec, len(warmPrefill))
	for i, j := range warmPrefill {
		prefill[i] = warmSpec(j, jobSeed(o.seed, "warm-family/prefill", i))
	}
	if _, err := l.runOnce(dir, prefill); err != nil {
		return nil, err
	}
	m, err := service.New(service.Config{ResultDir: l.prefill})
	if err != nil {
		return nil, fmt.Errorf("reopening the store: %w", err)
	}
	n := m.Store().Len()
	m.Close()
	if n != len(prefill) {
		return nil, fmt.Errorf("reopened store holds %d results, want %d", n, len(prefill))
	}
	return l, nil
}

// storeIndexBytes is the size of a store directory's append-only index.
func storeIndexBytes(dir string) int64 {
	info, err := os.Stat(filepath.Join(dir, "index.jsonl"))
	if err != nil {
		return 0
	}
	return info.Size()
}
