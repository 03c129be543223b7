package dse

import (
	"testing"
)

// TestStatsSinkAllAlgorithms is the StatsSink contract on every algorithm:
// the sink fires at each boundary, counters are monotone, the final sample
// reaches the last boundary, cache stats are populated and consistent
// (lookups = hits + evaluated, monotone), and the zero-copy front is
// non-empty once anything was evaluated.
func TestStatsSinkAllAlgorithms(t *testing.T) {
	s := testSpace(12, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	sBig := testSpace(20, 18, 6)
	evalBig := &constrainedEvaluator{inner: &convexEvaluator{space: sBig}}

	algorithms := []struct {
		name string
		run  func(opts Options) (*Result, error)
	}{
		{"nsga2", func(opts Options) (*Result, error) {
			return NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 16, Generations: 12, Seed: 9, Workers: 2}, opts)
		}},
		{"mosa", func(opts Options) (*Result, error) {
			return MOSAOpts(s, eval, MOSAConfig{Iterations: 4000, Restarts: 4, Seed: 5, Workers: 2}, opts)
		}},
		{"exhaustive", func(opts Options) (*Result, error) {
			return ExhaustiveOpts(sBig, evalBig, 1000000, 2, opts)
		}},
		{"random", func(opts Options) (*Result, error) {
			return RandomSearchOpts(sBig, evalBig, 3000, 3, 2, opts)
		}},
	}

	for _, alg := range algorithms {
		t.Run(alg.name, func(t *testing.T) {
			var stats []Stats
			opts := Options{
				Stats: func(st Stats) {
					// The front is shared storage: length is all a sink may
					// retain without copying.
					st.Front = st.Front[:len(st.Front):len(st.Front)]
					stats = append(stats, st)
				},
			}
			res, err := alg.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(stats) == 0 {
				t.Fatal("stats sink never fired")
			}
			prev := Stats{Step: 0}
			for i, st := range stats {
				if st.Algorithm != alg.name {
					t.Fatalf("sample %d: algorithm %q, want %q", i, st.Algorithm, alg.name)
				}
				if st.Step <= prev.Step {
					t.Fatalf("sample %d: step %d not increasing from %d", i, st.Step, prev.Step)
				}
				if st.Evaluated < prev.Evaluated || st.Infeasible < prev.Infeasible {
					t.Fatalf("sample %d: counters regressed: %+v after %+v", i, st, prev)
				}
				if st.CacheLookups < prev.CacheLookups || st.CacheHits < prev.CacheHits {
					t.Fatalf("sample %d: cache counters regressed: %+v after %+v", i, st, prev)
				}
				if st.CacheHits > st.CacheLookups {
					t.Fatalf("sample %d: %d hits out of %d lookups", i, st.CacheHits, st.CacheLookups)
				}
				if st.CacheLookups < int64(st.Evaluated) {
					t.Fatalf("sample %d: %d lookups < %d evaluations", i, st.CacheLookups, st.Evaluated)
				}
				if st.Evaluated > 0 && len(st.Front) == 0 {
					t.Fatalf("sample %d: empty front after %d evaluations", i, st.Evaluated)
				}
				if st.TotalSteps <= 0 || st.Step > st.TotalSteps {
					t.Fatalf("sample %d: step %d of %d", i, st.Step, st.TotalSteps)
				}
				prev = st
			}
			// Exhaustive flushes a trailing partial batch after its last
			// boundary, so the final sample
			// may sit one step and one partial batch short of the result.
			last := stats[len(stats)-1]
			if last.Step < last.TotalSteps-1 {
				t.Fatalf("final sample at step %d of %d", last.Step, last.TotalSteps)
			}
			if last.Evaluated > res.Evaluated || last.Infeasible > res.Infeasible {
				t.Fatalf("final sample counts (%d, %d) exceed result (%d, %d)",
					last.Evaluated, last.Infeasible, res.Evaluated, res.Infeasible)
			}
			if last.Step == last.TotalSteps && last.Evaluated != res.Evaluated {
				t.Fatalf("final-boundary sample evaluated %d, result %d", last.Evaluated, res.Evaluated)
			}
		})
	}
}

// TestStatsSinkCadence checks the sink fires exactly once per
// generation with monotonically growing coverage, a non-empty front, and
// a final step equal to TotalSteps.
func TestStatsSinkCadence(t *testing.T) {
	s := testSpace(8, 3)
	eval := &convexEvaluator{space: s}
	var steps []int
	var lastEval int
	opts := Options{Stats: func(st Stats) {
		if st.Algorithm != "nsga2" {
			t.Errorf("stats algorithm %q", st.Algorithm)
		}
		if st.TotalSteps != 10 {
			t.Errorf("TotalSteps=%d, want 10", st.TotalSteps)
		}
		if st.Evaluated < lastEval {
			t.Errorf("Evaluated went backwards: %d after %d", st.Evaluated, lastEval)
		}
		if len(st.Front) == 0 {
			t.Error("empty front on a feasible space")
		}
		lastEval = st.Evaluated
		steps = append(steps, st.Step)
	}}
	if _, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 8, Generations: 10, Seed: 3}, opts); err != nil {
		t.Fatal(err)
	}
	if len(steps) != 10 {
		t.Fatalf("sink fired %d times, want 10", len(steps))
	}
	for i, st := range steps {
		if st != i+1 {
			t.Fatalf("steps %v not consecutive", steps)
		}
	}
}

// TestStatsSinkCacheHits pins that revisiting configurations shows up as
// memo-cache hits: a second identical NSGA-II run on a tiny space draws
// mostly cached points, so hits must grow across generations.
func TestStatsSinkCacheHits(t *testing.T) {
	s := testSpace(4, 3) // 12 configurations: a long run must revisit
	eval := &convexEvaluator{space: s}
	var last Stats
	_, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 12, Generations: 10, Seed: 3}, Options{
		Stats: func(st Stats) { last = st; last.Front = nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.CacheHits == 0 {
		t.Fatal("a 10-generation run over 12 configurations produced no cache hits")
	}
	if last.Evaluated > 12 {
		t.Fatalf("evaluated %d distinct configurations in a 12-point space", last.Evaluated)
	}
	if got := last.CacheLookups - last.CacheHits; got != int64(last.Evaluated) {
		t.Fatalf("lookups-hits = %d, want evaluated = %d", got, last.Evaluated)
	}
}
