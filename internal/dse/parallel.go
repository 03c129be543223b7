package dse

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// memoEntry is one cached evaluation. Entries hashing to the same uint64
// chain through next; the point's Config disambiguates them, so a hash
// collision costs a comparison, never a wrong result.
type memoEntry struct {
	p    Point
	next *memoEntry
}

// IntoEvaluator is an Evaluator that can additionally write its objectives
// into a caller-provided buffer of length NumObjectives(), avoiding the
// per-call Objectives allocation. The scenario compiled evaluator
// implements it; the batch runtime uses it on misses so the only
// steady-state allocations left are the memo entries themselves.
type IntoEvaluator interface {
	Evaluator
	EvaluateInto(c Config, objs Objectives) error
}

// Forkable is an Evaluator that can hand out per-worker instances sharing
// its immutable tables but owning private mutable scratch. The batch
// runtime forks one instance per worker, so the scratch needs no
// synchronization: workers partition batch indices and each index is
// evaluated entirely on one worker's instance.
type Forkable interface {
	Fork() Evaluator
}

// ParallelEvaluator wraps an Evaluator with a bounded worker pool and a
// memo table — one mutex-guarded map keyed on the configurations' packed
// uint64 hash. It is the batch-evaluation runtime every search algorithm
// in this package runs on: the sequential path is simply workers = 1.
//
// Determinism contract: the wrapped Evaluator must be a pure function of
// the configuration (every evaluator in this repository is). Under that
// assumption EvaluateBatch returns bit-identical results in input order at
// any worker count, and each distinct configuration is counted once: a
// miss raced by two workers may run the evaluator twice, but only the
// first result to land is stored and counted, and the loser returns it as
// a hit. Stats therefore reports scheduling-independent counts.
//
// The wrapped Evaluator is called from multiple goroutines concurrently;
// stateless evaluators need no synchronization of their own, and Forkable
// evaluators get one private instance per worker.
type ParallelEvaluator struct {
	perWorker []Evaluator // perWorker[w] is used only by worker w
	workers   int
	nobj      int

	mu   sync.Mutex
	memo map[uint64]*memoEntry
	// Guarded by mu. resumedEval/resumedInf are the counts a resumed snapshot
	// carries; evaluated/infeasible/hits are this runtime's own traffic.
	resumedEval, resumedInf int
	evaluated, infeasible   int
	hits                    int64
}

// NewParallelEvaluator wraps inner with a batch runtime running at most
// workers concurrent evaluations. workers <= 0 selects GOMAXPROCS.
func NewParallelEvaluator(inner Evaluator, workers int) *ParallelEvaluator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pe := &ParallelEvaluator{workers: workers, nobj: inner.NumObjectives(), memo: make(map[uint64]*memoEntry)}
	pe.perWorker = make([]Evaluator, workers)
	for w := range pe.perWorker {
		if f, ok := inner.(Forkable); ok {
			pe.perWorker[w] = f.Fork()
		} else {
			pe.perWorker[w] = inner
		}
	}
	return pe
}

// Workers returns the pool bound.
func (pe *ParallelEvaluator) Workers() int { return pe.workers }

// NumObjectives forwards to the wrapped evaluator, so a ParallelEvaluator
// is itself usable wherever an objective count is needed.
func (pe *ParallelEvaluator) NumObjectives() int { return pe.nobj }

// lookup returns c's memo entry, or nil. The caller holds mu.
func (pe *ParallelEvaluator) lookup(h uint64, c Config) *memoEntry {
	for e := pe.memo[h]; e != nil; e = e.next {
		if e.p.Config.Equal(c) {
			return e
		}
	}
	return nil
}

// eval evaluates c through the memo table on worker w's private evaluator
// instance; the caller must guarantee at most one goroutine uses each w at
// a time (ForEachWorker does). A hit allocates nothing. A miss runs the
// evaluator and builds its entry outside the lock, then inserts it unless
// another worker got there first, in which case that worker's point wins
// and this lookup counts as a hit.
func (pe *ParallelEvaluator) eval(w int, c Config) Point {
	h := c.Hash()
	pe.mu.Lock()
	if e := pe.lookup(h, c); e != nil {
		pe.hits++
		pe.mu.Unlock()
		return e.p
	}
	pe.mu.Unlock()

	objs, err := pe.evaluate(pe.perWorker[w], c)
	e := &memoEntry{p: Point{Config: c.Clone(), Objs: objs, Feasible: err == nil}}

	pe.mu.Lock()
	defer pe.mu.Unlock()
	if prev := pe.lookup(h, c); prev != nil {
		pe.hits++
		return prev.p
	}
	e.next, pe.memo[h] = pe.memo[h], e
	pe.evaluated++
	if err != nil {
		pe.infeasible++
	}
	return e.p
}

// resume validates a snapshot against the runtime, then takes over its
// evaluation totals and primes the memo table with every point it
// carries — population, archive, and each chain's current point and
// archive — so re-drawn configurations are cache hits instead of
// re-evaluations. Primed points touch no counter: Stats reports the
// snapshot's totals plus this runtime's distinct evaluations.
func (pe *ParallelEvaluator) resume(algo string, space *Space, s *Snapshot) error {
	if err := s.validateResume(algo, space); err != nil {
		return err
	}
	var points []SnapPoint
	points = append(points, s.Population...)
	points = append(points, s.Archive...)
	for _, ch := range s.Chains {
		points = append(append(points, ch.Cur), ch.Archive...)
	}
	for _, sp := range points {
		if sp.Feasible && len(sp.Objs) != pe.nobj {
			return fmt.Errorf("dse: snapshot point %v has %d objectives, evaluator has %d", sp.Config, len(sp.Objs), pe.nobj)
		}
		if !sp.Feasible && len(sp.Objs) != 0 {
			return fmt.Errorf("dse: infeasible snapshot point %v carries objectives", sp.Config)
		}
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	pe.resumedEval, pe.resumedInf = s.Evaluated, s.Infeasible
	for _, sp := range points {
		if h := sp.Config.Hash(); pe.lookup(h, sp.Config) == nil {
			pe.memo[h] = &memoEntry{p: sp.point(), next: pe.memo[h]}
		}
	}
	return nil
}

// evaluate dispatches to the scratch-reuse API when inner provides one.
// The Objectives buffer it fills is the one stored in the memo entry, so
// the compiled path's only per-miss allocations are the entry, its config
// clone and that buffer — all of which outlive the call by design.
func (pe *ParallelEvaluator) evaluate(inner Evaluator, c Config) (Objectives, error) {
	if ie, ok := inner.(IntoEvaluator); ok {
		objs := make(Objectives, pe.nobj)
		if err := ie.EvaluateInto(c, objs); err != nil {
			return nil, err
		}
		return objs, nil
	}
	return inner.Evaluate(c)
}

// ForEach runs fn(i) for every i in [0,n) on at most workers goroutines
// (workers <= 0 selects GOMAXPROCS; one worker runs inline). Workers claim
// indices from an atomic counter, so scheduling affects only when each
// index runs, never whether. It is the pool primitive beneath
// EvaluateBatch, MOSA's chains, and the experiments job runner.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with worker identity: fn(w, i) runs index i on
// worker w, where w ranges over [0, min(workers, n)) and each w executes on
// exactly one goroutine. Worker-indexed scratch therefore needs no
// synchronization.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// EvaluateBatch evaluates every configuration, fanning the batch across the
// worker pool, and returns the points in input order: out[i] is configs[i]'s
// evaluation. Duplicate configurations (within the batch or across batches)
// cost one evaluation and yield the identical Point.
func (pe *ParallelEvaluator) EvaluateBatch(configs []Config) []Point {
	return pe.EvaluateBatchInto(configs, nil)
}

// EvaluateBatchInto is EvaluateBatch writing into a caller-provided slice,
// which is grown only when its capacity is short and returned re-sliced to
// len(configs) — the allocation-free form the generation loops run on.
// With one worker the batch runs inline on the caller's goroutine, so a
// fully memoized batch performs zero heap allocations.
func (pe *ParallelEvaluator) EvaluateBatchInto(configs []Config, out []Point) []Point {
	if cap(out) < len(configs) {
		out = make([]Point, len(configs))
	}
	out = out[:len(configs)]
	if pe.workers <= 1 {
		for i := range configs {
			out[i] = pe.eval(0, configs[i])
		}
		return out
	}
	ForEachWorker(len(configs), pe.workers, func(w, i int) {
		out[i] = pe.eval(w, configs[i])
	})
	return out
}

// Stats returns how many distinct configurations have been evaluated and
// how many of those were infeasible, including the totals of a resumed
// snapshot. The counts are scheduling-independent: they depend only on
// the set of configurations submitted.
func (pe *ParallelEvaluator) Stats() (evaluated, infeasible int) {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.resumedEval + pe.evaluated, pe.resumedInf + pe.infeasible
}

// result wraps a search's front with the runtime's totals.
func (pe *ParallelEvaluator) result(front []Point) *Result {
	evaluated, infeasible := pe.Stats()
	return &Result{Front: front, Evaluated: evaluated, Infeasible: infeasible}
}

// CacheStats returns this runtime's memo traffic: lookups is every
// evaluation request routed through the table, hits the requests answered
// without storing a new point, so lookups = hits + distinct evaluations
// (a resumed snapshot's totals are not lookups). The hit rate
// hits/lookups is the telemetry signal for how much of the search is
// revisiting known configurations. Because each distinct configuration
// is counted once, both counts are scheduling-independent too: a miss
// raced by two workers counts one evaluation and one hit whichever wins.
func (pe *ParallelEvaluator) CacheStats() (lookups, hits int64) {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.hits + int64(pe.evaluated), pe.hits
}
