package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// setupChildren is how many fresh processes re-time the set-up beside the
// run's own: set-up pays process-wide first-use costs (family
// registration, lazily built caches) that a second set-up in the same
// process would skip, so each sample needs a cold process.
const setupChildren = 16

// workload is one seeded input set. setup brings the system to the state
// the measured passes start from; it is what setup_s times.
type workload struct {
	name  string
	setup func(o options, dir string) (instance, error)
}

// instance is a set-up workload. A pass is a fixed unit of work — the
// same specs every pass — so per-pass rates are comparable and every
// spec's digest repeats.
type instance interface {
	// specs is the number of distinct job specs passes cycle over.
	specs() int
	// pass runs pass n; tr is nil for untraced passes.
	pass(n int, dir string, tr *tracer) (passResult, error)
	// reference returns digests from an independent execution of every
	// spec (nil when the workload has none) — deep-search's Spec.Workers 1
	// runs that its Workers 2 jobs must reproduce.
	reference(dir string) ([]string, error)
	// verify checks one job's output structurally; it runs on the first
	// occurrence of each spec, whose digest later occurrences must match.
	verify(j *jobResult) error
}

// jobResult is one job as its caller saw it.
type jobResult struct {
	spec      int           // index into the workload's specs
	id        string        // Manager job ID (or the Fig. 5 call's label)
	latency   time.Duration // Submit → Wait return (one Fig5 call)
	evaluated int           // distinct evaluations delivered
	digest    string
	err       error
	payload   any // what verify inspects; dropped after checking
}

// passResult is one pass: its wall-clock time and the CPU time the
// process used over the same interval.
type passResult struct {
	wall, cpu time.Duration
	jobs      []jobResult
}

// passStats is what a run keeps of a pass once its jobs are checked:
// per-job records would make the benchmark's own memory grow with the
// program's speed.
type passStats struct {
	wall, cpu   time.Duration
	jobs, evals int
	p50, p99    float64 // job latency, ms
}

func summarize(p passResult) passStats {
	st := passStats{wall: p.wall, cpu: p.cpu, jobs: len(p.jobs)}
	lat := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		st.evals += j.evaluated
		lat[i] = ms(j.latency)
	}
	st.p50, st.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	return st
}

var workloads = []workload{
	{name: "tiny-jobs", setup: setupTiny},
	{name: "deep-search", setup: setupDeep},
	{name: "warm-family", setup: setupWarm},
	{name: "paper-fig5", setup: setupFig5},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupTime is one set-up's CPU time, which setup_s reports (stolen
// time is not in it), and its wall-clock time, which the report shows.
type setupTime struct{ cpu, wall time.Duration }

// timeSetup runs the set-up once and tears it down again.
func timeSetup(w workload, o options) (setupTime, error) {
	dir := filepath.Join(o.workDir, "setup")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return setupTime{}, err
	}
	defer os.RemoveAll(dir)
	_, t, err := setUp(w, o, dir)
	return t, err
}

// setUp runs w's set-up in dir and times it.
func setUp(w workload, o options, dir string) (instance, setupTime, error) {
	start, cpuStart := time.Now(), cpuTime()
	inst, err := w.setup(o, dir)
	return inst, setupTime{cpu: cpuTime() - cpuStart, wall: time.Since(start)}, err
}

// childSetup times the set-up in a fresh process of this binary, which
// prints its CPU and wall-clock seconds.
func childSetup(w workload, o options, dir string) (setupTime, error) {
	self, err := os.Executable()
	if err != nil {
		return setupTime{}, err
	}
	cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10),
		"--setup-only", "--workdir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return setupTime{}, fmt.Errorf("set-up child: %w", err)
	}
	var cpu, wall float64
	if _, err := fmt.Sscan(string(out), &cpu, &wall); err != nil {
		return setupTime{}, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return setupTime{cpu: time.Duration(cpu * float64(time.Second)), wall: time.Duration(wall * float64(time.Second))}, nil
}

// checker holds the expected digest of every spec and counts failures.
type checker struct {
	inst     instance
	expected []string
	failures int
	attempts int
	errs     []string
}

func (c *checker) fail(format string, args ...any) {
	c.failures++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// check verifies a pass's jobs and drops their payloads.
func (c *checker) check(jobs []jobResult) {
	for i := range jobs {
		j := &jobs[i]
		c.attempts++
		switch {
		case j.err != nil:
			c.fail("job %s (spec %d): %v", j.id, j.spec, j.err)
		case c.expected[j.spec] == "":
			if err := c.inst.verify(j); err != nil {
				c.fail("job %s (spec %d): %v", j.id, j.spec, err)
			} else {
				c.expected[j.spec] = j.digest
			}
		case c.expected[j.spec] != j.digest:
			c.fail("job %s (spec %d): front digest %s, want %s", j.id, j.spec, j.digest, c.expected[j.spec])
		}
		j.payload = nil
	}
}

// runWorkload sets w up, measures it for o.seconds and returns the JSON
// result plus the report. A traced run measures untraced passes for the
// first half of its time (the baseline of trace.overhead_ratio and the
// runtime counters) and traced passes for the second.
func runWorkload(w workload, o options) (result, *report, error) {
	dir, err := filepath.Abs(filepath.Join(o.workDir, w.name))
	if err != nil {
		return result{}, nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return result{}, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)
	rep := &report{
		header: fmt.Sprintf("perfbench workload=%s seed=%d seconds=%d trace=%d", w.name, o.seed, o.seconds, btoi(o.trace)),
		env:    environment(dir),
	}

	inst, t, err := setUp(w, o, filepath.Join(dir, "setup"))
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []setupTime{t}
	if !o.trace {
		for k := 0; k < setupChildren; k++ {
			t, err := childSetup(w, o, filepath.Join(dir, fmt.Sprintf("child%d", k)))
			if err != nil {
				return result{}, nil, err
			}
			setups = append(setups, t)
		}
	}

	chk := &checker{inst: inst, expected: make([]string, inst.specs())}
	golden, err := loadGolden(w.name, inst.specs(), o)
	if err != nil {
		return result{}, nil, err
	}
	ref, err := inst.reference(filepath.Join(dir, "reference"))
	if err != nil {
		return result{}, nil, fmt.Errorf("reference: %w", err)
	}
	for i := range chk.expected {
		switch {
		case golden != nil && ref != nil && golden[i] != ref[i]:
			chk.fail("spec %d: reference digest %s, golden %s", i, ref[i], golden[i])
		case golden != nil:
			chk.expected[i] = golden[i]
		case ref != nil:
			chk.expected[i] = ref[i]
		}
	}
	if golden != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("  digests: checked against golden.json (%d specs)", len(golden)))
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("  digests: %d specs checked against their first occurrence in this run", inst.specs()))
	}

	var untraced, traced []passStats
	var mem memDelta
	var tr *tracer
	measureStart := time.Now()
	deadline := measureStart.Add(time.Duration(o.seconds) * time.Second)
	untracedEnd := deadline
	if o.trace {
		untracedEnd = measureStart.Add(time.Duration(o.seconds) * time.Second / 2)
		tr = newTracer()
	}
	for n := 0; ; n++ {
		now := time.Now()
		if now.After(deadline) && len(untraced) > 0 && (!o.trace || len(traced) > 0) {
			break
		}
		pdir := filepath.Join(dir, fmt.Sprintf("pass%d", n))
		if len(untraced) == 0 || now.Before(untracedEnd) {
			mem.begin()
			p, err := inst.pass(n, pdir, nil)
			if err != nil {
				return result{}, nil, fmt.Errorf("pass %d: %w", n, err)
			}
			mem.end(len(p.jobs))
			chk.check(p.jobs)
			untraced = append(untraced, summarize(p))
		} else {
			p, err := inst.pass(n, pdir, tr)
			if err != nil {
				return result{}, nil, fmt.Errorf("traced pass %d: %w", n, err)
			}
			chk.check(p.jobs)
			traced = append(traced, summarize(p))
		}
		if err := os.RemoveAll(pdir); err != nil {
			return result{}, nil, err
		}
	}
	if o.writeGolden != "" {
		if err := writeGolden(o.writeGolden, w.name, chk.expected); err != nil {
			return result{}, nil, err
		}
	}

	if o.trace {
		chk.failures += tr.mismatches
		for _, e := range tr.errs {
			chk.errs = append(chk.errs, "replica fidelity: "+e)
		}
		if rep.metrics, err = layerMetrics(tr, untraced, traced, mem); err != nil {
			return result{}, nil, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("  replica fidelity: %d jobs re-executed, %d did not reproduce their job", tr.shadowed, tr.mismatches))
		if path, err := tr.writeSpans(filepath.Join(filepath.Dir(o.workDir), "trace"), w.name); err != nil {
			rep.notes = append(rep.notes, fmt.Sprintf("  spans not written: %v", err))
		} else {
			rep.notes = append(rep.notes, fmt.Sprintf("  spans: %s", path))
		}
	} else {
		rep.metrics = endToEndMetrics(untraced, setups)
	}
	rep.attempts, rep.failures, rep.errors = chk.attempts, chk.failures, chk.errs
	res := result{Attempted: chk.attempts, Failed: chk.failures, Metrics: map[string]metricValue{}}
	res.Correct = chk.failures == 0 && res.Attempted > 0
	for _, m := range rep.metrics {
		if m.wall {
			continue
		}
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return res, rep, nil
}

// endToEndMetrics derives what a user of the service sees. Passes are
// fixed units of work, so every figure is the median over passes: of
// the pass's rates, and of its median and p99 job latency (a run of
// paper-fig5 holds too few calls for a p99 over all of them to have ten
// samples beyond it).
//
// The rates the result carries are per CPU-second, and setup_s is CPU
// time: on a shared host the share of time the hypervisor steals from
// the CPUs moves wall-clock figures by a quarter from one minute to the
// next, and CPU time does not count stolen time. The wall-clock figures
// are still measured and printed in the report.
func endToEndMetrics(passes []passStats, setups []setupTime) []metric {
	var setupCPU, setupWall []float64
	for _, t := range setups {
		setupCPU = append(setupCPU, t.cpu.Seconds())
		setupWall = append(setupWall, t.wall.Seconds())
	}
	var cpuJobRates, cpuEvalRates, jobRates, evalRates, p50s, p99s []float64
	for _, p := range passes {
		cpu, secs := p.cpu.Seconds(), p.wall.Seconds()
		cpuJobRates = append(cpuJobRates, float64(p.jobs)/cpu)
		cpuEvalRates = append(cpuEvalRates, float64(p.evals)/cpu)
		jobRates = append(jobRates, float64(p.jobs)/secs)
		evalRates = append(evalRates, float64(p.evals)/secs)
		p50s = append(p50s, p.p50)
		p99s = append(p99s, p.p99)
	}
	return []metric{
		{name: "jobs_per_cpu_s", unit: "1/s", value: median(cpuJobRates), samples: cpuJobRates},
		{name: "evals_per_cpu_s", unit: "1/s", value: median(cpuEvalRates), samples: cpuEvalRates},
		{name: "setup_s", unit: "s", value: median(setupCPU), samples: setupCPU},
		{name: "rss_peak_mb", unit: "MB", value: rssPeakMB()},
		{name: "jobs_per_s", unit: "1/s", value: median(jobRates), samples: jobRates, wall: true},
		{name: "job_latency_p50_ms", unit: "ms", value: median(p50s), samples: p50s, wall: true},
		{name: "job_latency_p99_ms", unit: "ms", value: median(p99s), samples: p99s, wall: true},
		{name: "evals_per_s", unit: "1/s", value: median(evalRates), samples: evalRates, wall: true},
		{name: "setup_wall_s", unit: "s", value: median(setupWall), samples: setupWall, wall: true},
	}
}

// memDelta accumulates Go allocator and GC counters over untraced passes.
type memDelta struct {
	before              runtime.MemStats
	allocBytes, mallocs uint64
	gcs                 uint32
	jobs                int
}

func (m *memDelta) begin() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) end(jobs int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocBytes += after.TotalAlloc - m.before.TotalAlloc
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.gcs += after.NumGC - m.before.NumGC
	m.jobs += jobs
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
