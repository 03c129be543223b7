package dse

import (
	"fmt"
)

// Result is the outcome of a search: the non-dominated front over every
// feasible point the algorithm evaluated, plus bookkeeping.
type Result struct {
	Front      []Point
	Evaluated  int // distinct configurations evaluated
	Infeasible int // of those, how many violated constraints
}

// exhaustiveBatch is how many configurations ExhaustiveOpts hands to the
// worker pool at a time: large enough to amortize dispatch, small enough
// that the archive merge interleaves with evaluation.
const exhaustiveBatch = 1024

// ExhaustiveOpts enumerates the whole space, evaluating batches of
// configurations across the worker pool (workers <= 0 selects GOMAXPROCS),
// and refuses spaces larger than maxPoints to protect callers from
// accidental 10¹¹-point sweeps. Enumeration order, the resulting front,
// and the counts are identical at any worker count. Progress,
// checkpointing and cancellation hook in at batch boundaries (every
// exhaustiveBatch configurations). Snapshots record how far the
// lexicographic enumeration got (Snapshot.Next), so a resumed sweep skips
// exactly the consumed prefix. On cancellation the partial Result is
// returned together with ctx.Err().
func ExhaustiveOpts(space *Space, eval Evaluator, maxPoints, workers int, opts Options) (*Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if size := space.Size(); size > float64(maxPoints) {
		return nil, fmt.Errorf("dse: space has %.3g points, exhaustive limit is %d", size, maxPoints)
	}
	pe := NewParallelEvaluator(eval, workers)
	var arch Archive
	total := int(space.Size())
	totalBatches := (total + exhaustiveBatch - 1) / exhaustiveBatch
	skip := 0
	if opts.Resume != nil {
		if err := pe.resume("exhaustive", space, opts.Resume); err != nil {
			return nil, err
		}
		if opts.Resume.Next > total {
			return nil, fmt.Errorf("dse: snapshot consumed %d of %d points", opts.Resume.Next, total)
		}
		skip = opts.Resume.Next
		restoreArchive(&arch, opts.Resume.Archive)
	}
	batch := make([]Config, 0, exhaustiveBatch)
	flush := func() {
		arch.Merge(pe.EvaluateBatchInto(batch, nil))
		batch = batch[:0]
	}
	idx := 0
	var stopErr error
	space.Iterate(func(c Config) bool {
		if idx < skip {
			idx++
			return true
		}
		idx++
		batch = append(batch, c.Clone())
		if len(batch) == exhaustiveBatch {
			flush()
			consumed := idx
			stopErr = opts.boundary("exhaustive", idx/exhaustiveBatch, totalBatches, pe,
				func() []Point { return arch.Points() },
				func() *Snapshot { return &Snapshot{Next: consumed, Archive: snapPoints(arch.Points())} })
			return stopErr == nil
		}
		return true
	})
	if stopErr != nil {
		return pe.result(arch.Points()), stopErr
	}
	flush()
	return pe.result(arch.Points()), nil
}

// RandomSearchOpts evaluates `budget` uniform random configurations — the
// reference any metaheuristic must beat. It draws the budget from one
// seeded stream in batches of exhaustiveBatch and evaluates each batch
// across the worker pool (workers <= 0 selects GOMAXPROCS). The draw
// sequence, front, and counts are identical at any worker count;
// revisited configurations are deduplicated by the memo table so
// Evaluated means distinct points. Progress, checkpointing and
// cancellation hook in at batch boundaries. Snapshots
// record the RNG state and draws consumed, so a resumed search continues
// the identical draw stream. On cancellation the partial Result is
// returned together with ctx.Err().
func RandomSearchOpts(space *Space, eval Evaluator, budget int, seed int64, workers int, opts Options) (*Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if budget < 1 {
		return nil, fmt.Errorf("dse: budget %d must be positive", budget)
	}
	rng, src := newSearchRand(seed)
	pe := NewParallelEvaluator(eval, workers)
	var arch Archive
	drawn := 0
	if opts.Resume != nil {
		if err := pe.resume("random", space, opts.Resume); err != nil {
			return nil, err
		}
		if opts.Resume.Next > budget {
			return nil, fmt.Errorf("dse: snapshot consumed %d of %d draws", opts.Resume.Next, budget)
		}
		drawn = opts.Resume.Next
		restoreArchive(&arch, opts.Resume.Archive)
		src.state = opts.Resume.RNG
	}
	totalBatches := (budget + exhaustiveBatch - 1) / exhaustiveBatch
	configs := make([]Config, 0, exhaustiveBatch)
	var points []Point
	for drawn < budget {
		n := exhaustiveBatch
		if budget-drawn < n {
			n = budget - drawn
		}
		configs = configs[:0]
		for i := 0; i < n; i++ {
			configs = append(configs, space.Random(rng))
		}
		drawn += n
		points = pe.EvaluateBatchInto(configs, points)
		arch.Merge(points)
		consumed := drawn
		err := opts.boundary("random", (drawn+exhaustiveBatch-1)/exhaustiveBatch, totalBatches, pe,
			func() []Point { return arch.Points() },
			func() *Snapshot { return &Snapshot{RNG: src.state, Next: consumed, Archive: snapPoints(arch.Points())} })
		if err != nil {
			return pe.result(arch.Points()), err
		}
	}
	return pe.result(arch.Points()), nil
}
