package casestudy

import (
	"math"
	"math/rand"
	"testing"

	"wsndse/internal/core"
	"wsndse/internal/dse"
)

// sameObjs asserts bitwise equality of objective vectors (NaN-safe).
func sameObjs(t *testing.T, label string, c dse.Config, got, want dse.Objectives) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: config %v: %d objectives, want %d", label, c, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: config %v objective %d: %v (bits %x), want %v (bits %x)",
				label, c, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// TestCompiledMatchesReference is the casestudy side of the compile
// equivalence guarantee, on the grouped gene layout: over a large random sample (plus crafted corner points) the
// compiled evaluator returns bit-identical objectives and identical
// feasibility — including the infeasibility class — to the reference
// evaluator.
func TestCompiledMatchesReference(t *testing.T) {
	problem := NewProblem(DefaultCalibration())
	compiled, err := problem.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref := problem.Evaluator()
	fast := compiled.Evaluator()

	rng := rand.New(rand.NewSource(42))
	configs := make([]dse.Config, 0, 600)
	for i := 0; i < 500; i++ {
		configs = append(configs, problem.Space().Random(rng))
	}
	// Corner points: first and last index of every axis.
	lo := make(dse.Config, len(problem.Space().Params))
	hi := make(dse.Config, len(problem.Space().Params))
	for i, p := range problem.Space().Params {
		hi[i] = len(p.Values) - 1
	}
	configs = append(configs, lo, hi)

	feasible, infeasible := 0, 0
	for _, c := range configs {
		want, werr := ref.Evaluate(c)
		got, gerr := fast.Evaluate(c)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("config %v: reference err %v, compiled err %v", c, werr, gerr)
		}
		if werr != nil {
			if core.IsInfeasible(werr) != core.IsInfeasible(gerr) {
				t.Fatalf("config %v: infeasibility class differs: %v vs %v", c, werr, gerr)
			}
			infeasible++
			continue
		}
		feasible++
		sameObjs(t, "direct", c, got, want)
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("sample covered %d feasible / %d infeasible configs; need both", feasible, infeasible)
	}

	// Invalid configurations must be rejected, not evaluated.
	for _, c := range []dse.Config{nil, {0}, append(hi.Clone(), 0), func() dse.Config {
		c := lo.Clone()
		c[0] = len(problem.Space().Params[0].Values)
		return c
	}()} {
		if _, err := fast.Evaluate(c); err == nil {
			t.Fatalf("compiled evaluator accepted invalid config %v", c)
		}
	}
}

// TestCompiledBatchWorkerEquivalence runs the compiled evaluator through
// the batch runtime at worker counts 1 and 8 and requires both to match
// the reference evaluator's points bit for bit.
func TestCompiledBatchWorkerEquivalence(t *testing.T) {
	problem := NewProblem(DefaultCalibration())
	compiled, err := problem.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	configs := make([]dse.Config, 256)
	for i := range configs {
		configs[i] = problem.Space().Random(rng)
	}
	want := dse.NewParallelEvaluator(problem.Evaluator(), 1).EvaluateBatch(configs)
	for _, workers := range []int{1, 8} {
		got := dse.NewParallelEvaluator(compiled.Evaluator(), workers).EvaluateBatch(configs)
		for i := range want {
			if got[i].Feasible != want[i].Feasible {
				t.Fatalf("workers=%d: config %v feasibility %v, want %v",
					workers, configs[i], got[i].Feasible, want[i].Feasible)
			}
			if want[i].Feasible {
				sameObjs(t, "batch", configs[i], got[i].Objs, want[i].Objs)
			}
		}
	}
}

// TestCompiledSearchEquivalence runs a full NSGA-II search on both
// evaluators: identical fronts prove the compiled pipeline is a drop-in
// replacement for the search algorithms.
func TestCompiledSearchEquivalence(t *testing.T) {
	problem := NewProblem(DefaultCalibration())
	compiled, err := problem.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := dse.NSGA2Config{PopulationSize: 16, Generations: 6, Seed: 3, Workers: 4}
	want, err := dse.NSGA2(problem.Space(), problem.Evaluator(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dse.NSGA2(problem.Space(), compiled.Evaluator(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != want.Evaluated || got.Infeasible != want.Infeasible {
		t.Fatalf("counts differ: (%d,%d) vs (%d,%d)",
			got.Evaluated, got.Infeasible, want.Evaluated, want.Infeasible)
	}
	if len(got.Front) != len(want.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(got.Front), len(want.Front))
	}
	for i := range want.Front {
		sameObjs(t, "front", want.Front[i].Config, got.Front[i].Objs, want.Front[i].Objs)
	}
}

// TestCompiledZeroAllocs pins the compiled allocation guarantee at the
// casestudy level: a forked compiled instance evaluating into caller
// scratch allocates nothing in steady state.
func TestCompiledZeroAllocs(t *testing.T) {
	problem := NewProblem(DefaultCalibration())
	compiled, err := problem.Compile()
	if err != nil {
		t.Fatal(err)
	}
	eval := compiled.Evaluator().(dse.Forkable).Fork().(dse.IntoEvaluator)

	rng := rand.New(rand.NewSource(1))
	var cfg dse.Config
	for {
		c := problem.Space().Random(rng)
		if _, err := eval.Evaluate(c); err == nil {
			cfg = c
			break
		}
	}
	objs := make(dse.Objectives, 3)
	if err := eval.EvaluateInto(cfg, objs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := eval.EvaluateInto(cfg, objs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled EvaluateInto allocates %.1f objects per call in steady state, want 0", allocs)
	}
}
