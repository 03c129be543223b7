package dse

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// sameResult asserts two search results are bit-identical: same front
// (configs, objectives, feasibility, order) and same counts.
func sameResult(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if a.Evaluated != b.Evaluated || a.Infeasible != b.Infeasible {
		t.Fatalf("%s: counts differ: (%d,%d) vs (%d,%d)",
			label, a.Evaluated, a.Infeasible, b.Evaluated, b.Infeasible)
	}
	if len(a.Front) != len(b.Front) {
		t.Fatalf("%s: front sizes differ: %d vs %d", label, len(a.Front), len(b.Front))
	}
	for i := range a.Front {
		if !reflect.DeepEqual(a.Front[i], b.Front[i]) {
			t.Fatalf("%s: front point %d differs:\n%+v\nvs\n%+v", label, i, a.Front[i], b.Front[i])
		}
	}
}

// TestEvaluateBatchOrderAndDedup checks the batch contract: points come
// back in input order, duplicates coalesce to one evaluation, and Stats
// counts distinct configurations.
func TestEvaluateBatchOrderAndDedup(t *testing.T) {
	s := testSpace(5, 4)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	pe := NewParallelEvaluator(eval, 8)

	var configs []Config
	s.Iterate(func(c Config) bool {
		configs = append(configs, c.Clone(), c.Clone()) // every point twice
		return true
	})
	pts := pe.EvaluateBatch(configs)
	if len(pts) != len(configs) {
		t.Fatalf("got %d points for %d configs", len(pts), len(configs))
	}
	for i, p := range pts {
		if !reflect.DeepEqual(p.Config, configs[i]) {
			t.Fatalf("point %d is for config %v, want %v", i, p.Config, configs[i])
		}
		want, err := eval.Evaluate(configs[i])
		if p.Feasible != (err == nil) {
			t.Fatalf("point %d feasibility %v, want error=%v", i, p.Feasible, err)
		}
		if p.Feasible && !reflect.DeepEqual(p.Objs, want) {
			t.Fatalf("point %d objs %v, want %v", i, p.Objs, want)
		}
	}
	evaluated, infeasible := pe.Stats()
	if evaluated != 20 {
		t.Errorf("evaluated %d distinct configs, space has 20", evaluated)
	}
	if infeasible == 0 {
		t.Error("constrained space reported no infeasible configs")
	}
}

// TestParallelEvaluatorConcurrentBatches hammers one shared evaluator from
// many goroutines over an overlapping key set — the -race exercise of the
// memo table, and of its counted-once contract under raced misses.
func TestParallelEvaluatorConcurrentBatches(t *testing.T) {
	s := testSpace(7, 5, 3)
	pe := NewParallelEvaluator(&convexEvaluator{space: s}, 4)
	var all []Config
	s.Iterate(func(c Config) bool {
		all = append(all, c.Clone())
		return true
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine submits a rotated view of the same keys.
			batch := append(append([]Config{}, all[g*10:]...), all[:g*10]...)
			pe.EvaluateBatch(batch)
		}(g)
	}
	wg.Wait()
	if evaluated, _ := pe.Stats(); evaluated != len(all) {
		t.Errorf("evaluated %d distinct configs, want %d", evaluated, len(all))
	}
	if lookups, hits := pe.CacheStats(); lookups != int64(8*len(all)) || lookups-hits != int64(len(all)) {
		t.Errorf("lookups %d, hits %d: want %d lookups, %d of them misses", lookups, hits, 8*len(all), len(all))
	}
}

// TestConfigHashEqual checks the memo-key pair: equal configs hash and
// compare equal; gene and length perturbations change Equal (and, for
// these near-miss cases, the hash too).
func TestConfigHashEqual(t *testing.T) {
	c := Config{3, 0, 7, 2}
	if !c.Equal(Config{3, 0, 7, 2}) || c.Hash() != (Config{3, 0, 7, 2}).Hash() {
		t.Fatal("identical configs must hash and compare equal")
	}
	for _, d := range []Config{{3, 0, 7, 3}, {0, 3, 7, 2}, {3, 0, 7}, {3, 0, 7, 2, 0}} {
		if c.Equal(d) {
			t.Fatalf("Equal(%v, %v) = true", c, d)
		}
		if c.Hash() == d.Hash() {
			t.Fatalf("near-miss %v collides with %v (possible but indicates a weak hash)", d, c)
		}
	}
}

// countingEvaluator counts evaluations; used to prove exactly-once caching
// over two full passes of the space.
type countingEvaluator struct {
	inner Evaluator
	calls atomic.Int64
}

func (e *countingEvaluator) NumObjectives() int { return e.inner.NumObjectives() }
func (e *countingEvaluator) Evaluate(c Config) (Objectives, error) {
	e.calls.Add(1)
	return e.inner.Evaluate(c)
}

// TestMemoCollisionChain drives hundreds of distinct configurations
// through the memo table and checks each is evaluated exactly once — no
// configuration repeats within a batch, so no miss is raced — and keeps
// its own result.
func TestMemoCollisionChain(t *testing.T) {
	s := testSpace(6, 6, 6)
	counting := &countingEvaluator{inner: &convexEvaluator{space: s}}
	pe := NewParallelEvaluator(counting, 4)
	var all []Config
	s.Iterate(func(c Config) bool {
		all = append(all, c.Clone())
		return true
	})
	// Two passes: the second must be served entirely from the cache.
	first := pe.EvaluateBatch(all)
	second := pe.EvaluateBatch(all)
	if got := counting.calls.Load(); got != int64(len(all)) {
		t.Fatalf("%d evaluator calls for %d distinct configs", got, len(all))
	}
	for i := range all {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Fatalf("config %v: cached point differs from first evaluation", all[i])
		}
		want, _ := (&convexEvaluator{space: s}).Evaluate(all[i])
		if !reflect.DeepEqual(first[i].Objs, want) {
			t.Fatalf("config %v: objs %v, want %v (collision cross-talk?)", all[i], first[i].Objs, want)
		}
	}
}

// forkEvaluator records how many instances Fork produced and which
// instances evaluated, proving each worker gets (and keeps) its own.
type forkEvaluator struct {
	space *Space
	forks atomic.Int64
}

type forkInstance struct {
	inner convexEvaluator
	busy  atomic.Bool // trips if two goroutines share an instance
}

func (f *forkEvaluator) NumObjectives() int { return 2 }
func (f *forkEvaluator) Evaluate(c Config) (Objectives, error) {
	return (&convexEvaluator{space: f.space}).Evaluate(c)
}
func (f *forkEvaluator) Fork() Evaluator {
	f.forks.Add(1)
	return &forkInstance{inner: convexEvaluator{space: f.space}}
}

func (fi *forkInstance) NumObjectives() int { return 2 }
func (fi *forkInstance) Evaluate(c Config) (Objectives, error) {
	if !fi.busy.CompareAndSwap(false, true) {
		panic("dse test: two goroutines entered one forked instance")
	}
	defer fi.busy.Store(false)
	return fi.inner.Evaluate(c)
}

// TestForkablePerWorkerInstances checks the Forkable contract: the runtime
// forks one instance per worker and never runs two goroutines on the same
// instance concurrently.
func TestForkablePerWorkerInstances(t *testing.T) {
	s := testSpace(8, 8)
	fe := &forkEvaluator{space: s}
	pe := NewParallelEvaluator(fe, 4)
	if got := fe.forks.Load(); got != 4 {
		t.Fatalf("NewParallelEvaluator forked %d instances for 4 workers", got)
	}
	var all []Config
	s.Iterate(func(c Config) bool {
		all = append(all, c.Clone())
		return true
	})
	ref := NewParallelEvaluator(&convexEvaluator{space: s}, 1).EvaluateBatch(all)
	got := pe.EvaluateBatch(all)
	for i := range ref {
		if !reflect.DeepEqual(ref[i].Objs, got[i].Objs) || ref[i].Feasible != got[i].Feasible {
			t.Fatalf("forked batch point %d differs: %+v vs %+v", i, got[i], ref[i])
		}
	}
}

// intoEvaluator implements the scratch-objectives fast path.
type intoEvaluator struct {
	convexEvaluator
	intoCalls atomic.Int64
}

func (e *intoEvaluator) EvaluateInto(c Config, objs Objectives) error {
	e.intoCalls.Add(1)
	got, err := e.convexEvaluator.Evaluate(c)
	if err != nil {
		return err
	}
	copy(objs, got)
	return nil
}

// TestIntoEvaluatorDispatch checks that the runtime routes cache misses
// through EvaluateInto when available and stores equivalent points.
func TestIntoEvaluatorDispatch(t *testing.T) {
	s := testSpace(5, 5)
	ie := &intoEvaluator{convexEvaluator: convexEvaluator{space: s}}
	pe := NewParallelEvaluator(ie, 2)
	var all []Config
	s.Iterate(func(c Config) bool {
		all = append(all, c.Clone())
		return true
	})
	got := pe.EvaluateBatch(all)
	if ie.intoCalls.Load() == 0 {
		t.Fatal("EvaluateInto never called: runtime is not using the scratch path")
	}
	for i := range all {
		want, _ := (&convexEvaluator{space: s}).Evaluate(all[i])
		if !reflect.DeepEqual(got[i].Objs, want) {
			t.Fatalf("point %d objs %v, want %v", i, got[i].Objs, want)
		}
	}
}

// TestEvalCacheHitZeroAllocs pins the memo-table design: a cache hit keys
// on the packed uint64 hash and allocates nothing (the old string key cost
// one allocation per lookup), so a warmed single-worker batch written
// into a caller-owned slice performs zero heap allocations.
func TestEvalCacheHitZeroAllocs(t *testing.T) {
	s := testSpace(6, 6)
	pe := NewParallelEvaluator(&convexEvaluator{space: s}, 1)
	batch := []Config{{3, 4}, {0, 5}, {3, 4}}
	out := pe.EvaluateBatchInto(batch, nil) // warm the cache
	allocs := testing.AllocsPerRun(500, func() {
		out = pe.EvaluateBatchInto(batch, out)
	})
	if allocs != 0 {
		t.Fatalf("warmed batch allocates %.1f objects, want 0", allocs)
	}
}

// TestNSGA2WorkerEquivalence is the headline determinism guarantee: the
// parallel path returns the sequential path's front bit for bit.
func TestNSGA2WorkerEquivalence(t *testing.T) {
	s := testSpace(12, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	cfg := NSGA2Config{PopulationSize: 24, Generations: 15, Seed: 9}
	cfg.Workers = 1
	seq, err := NSGA2(s, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		par, err := NSGA2(s, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, seq, par, "nsga2")
	}
}

// TestMOSAWorkerEquivalence checks the per-chain seeding and chain-order
// archive merge: concurrent chains reproduce the sequential run.
func TestMOSAWorkerEquivalence(t *testing.T) {
	s := testSpace(15, 4)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	cfg := MOSAConfig{Iterations: 2000, Restarts: 4, Seed: 5}
	cfg.Workers = 1
	seq, err := MOSA(s, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		par, err := MOSA(s, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, seq, par, "mosa")
	}
}

// TestExhaustiveWorkerEquivalence checks batched enumeration.
func TestExhaustiveWorkerEquivalence(t *testing.T) {
	s := testSpace(9, 5, 4)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	seq, err := ExhaustiveOpts(s, eval, 1000, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExhaustiveOpts(s, eval, 1000, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, seq, par, "exhaustive")
}

// TestRandomSearchWorkerEquivalence checks the pre-drawn batch: the RNG
// stream never observes the worker count.
func TestRandomSearchWorkerEquivalence(t *testing.T) {
	s := testSpace(11, 3)
	eval := &convexEvaluator{space: s}
	seq, err := RandomSearchOpts(s, eval, 400, 1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RandomSearchOpts(s, eval, 400, 1, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, seq, par, "random")
}
