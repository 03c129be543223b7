package scenario_test

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
)

// groupedCase names the case study's grouped-layout problem
// (casestudy.NewProblem) among the compile test inputs.
const groupedCase = "ecg-ward-grouped"

// compileCases returns every registered scenario in the interleaved
// layout plus the case study's grouped layout, keyed by subtest name.
func compileCases(t *testing.T) (names []string, problems map[string]*scenario.Problem) {
	t.Helper()
	problems = map[string]*scenario.Problem{}
	for _, sc := range scenario.List() {
		p, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, sc.Name)
		problems[sc.Name] = p
	}
	names = append(names, groupedCase)
	problems[groupedCase] = casestudy.NewProblem(casestudy.DefaultCalibration())
	return names, problems
}

// TestCompiledMatchesReferenceAllScenarios is the tentpole equivalence
// guarantee: for every registered scenario, and for the case study's
// grouped layout, the compiled evaluator returns bit-identical objectives
// and identical feasibility (including the infeasibility class) to the
// reference evaluator — directly, through the batch runtime at worker
// counts 1 and 8, and across a whole NSGA-II search — and rejects
// configurations that do not index the space.
func TestCompiledMatchesReferenceAllScenarios(t *testing.T) {
	names, problems := compileCases(t)
	for _, name := range names {
		problem := problems[name]
		t.Run(name, func(t *testing.T) {
			compiled, err := problem.Compile()
			if err != nil {
				t.Fatal(err)
			}
			ref := problem.Evaluator()
			fast := compiled.Evaluator()

			rng := rand.New(rand.NewSource(int64(len(name)) * 1237))
			configs := make([]dse.Config, 0, 260)
			for i := 0; i < 250; i++ {
				configs = append(configs, problem.Space().Random(rng))
			}
			lo := make(dse.Config, len(problem.Space().Params))
			hi := make(dse.Config, len(problem.Space().Params))
			for i, p := range problem.Space().Params {
				hi[i] = len(p.Values) - 1
			}
			configs = append(configs, lo, hi, problem.NominalConfig())

			feasible := 0
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
					continue
				}
				feasible++
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("config %v objective %d: %v, want %v (bitwise)", c, k, got[k], want[k])
					}
				}
			}
			if feasible == 0 {
				t.Logf("%s: no feasible configuration in the sample (infeasibility-stress scenario)", name)
			}

			// Configurations that do not index the space are rejected,
			// not evaluated.
			outOfRange := lo.Clone()
			outOfRange[0] = len(problem.Space().Params[0].Values)
			for _, c := range []dse.Config{nil, {0}, append(hi.Clone(), 0), outOfRange} {
				if _, err := fast.Evaluate(c); err == nil {
					t.Fatalf("compiled evaluator accepted invalid config %v", c)
				}
			}

			// Batch runtime at worker counts 1 and 8 against the
			// sequential reference.
			want := dse.NewParallelEvaluator(ref, 1).EvaluateBatch(configs)
			for _, workers := range []int{1, 8} {
				got := dse.NewParallelEvaluator(compiled.Evaluator(), workers).EvaluateBatch(configs)
				for i := range want {
					if got[i].Feasible != want[i].Feasible {
						t.Fatalf("workers=%d: config %v feasibility %v, want %v",
							workers, configs[i], got[i].Feasible, want[i].Feasible)
					}
					if !want[i].Feasible {
						continue
					}
					for k := range want[i].Objs {
						if math.Float64bits(got[i].Objs[k]) != math.Float64bits(want[i].Objs[k]) {
							t.Fatalf("workers=%d: config %v objective %d: %v, want %v (bitwise)",
								workers, configs[i], k, got[i].Objs[k], want[i].Objs[k])
						}
					}
				}
			}

			// A whole search: the compiled pipeline is a drop-in
			// replacement, counts included.
			cfg := dse.NSGA2Config{PopulationSize: 16, Generations: 6, Seed: 3, Workers: 4}
			wantRes, err := dse.NSGA2(problem.Space(), ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := dse.NSGA2(problem.Space(), compiled.Evaluator(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("compiled search (%d evaluated, %d infeasible, %d front) differs from reference (%d, %d, %d)",
					gotRes.Evaluated, gotRes.Infeasible, len(gotRes.Front),
					wantRes.Evaluated, wantRes.Infeasible, len(wantRes.Front))
			}
		})
	}
}

// TestCompiledZeroAllocsScenario pins the allocation guarantee on a
// scenario with per-node MAC views (mixed-ward has payload-override
// nodes), the structurally richest compiled path, and on the case
// study's grouped layout.
func TestCompiledZeroAllocsScenario(t *testing.T) {
	_, problems := compileCases(t)
	for _, name := range []string{"mixed-ward", groupedCase} {
		problem := problems[name]
		compiled, err := problem.Compile()
		if err != nil {
			t.Fatal(err)
		}
		eval := compiled.Evaluator().(dse.Forkable).Fork().(dse.IntoEvaluator)

		rng := rand.New(rand.NewSource(2))
		var cfg dse.Config
		for i := 0; ; i++ {
			c := problem.Space().Random(rng)
			if _, err := eval.Evaluate(c); err == nil {
				cfg = c
				break
			}
			if i > 20000 {
				t.Fatalf("no feasible %s configuration found", name)
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
			t.Fatalf("%s: compiled EvaluateInto allocates %.1f objects per call in steady state, want 0", name, allocs)
		}
	}
}

// TestCompiledInfeasibleSteadyStateAllocs pins the cost of a rejected
// configuration: the hot infeasibility checks (GTS capacity in Assign,
// duty cycle in the node model) build their error without formatting, so
// an infeasible compiled EvaluateInto allocates at most the error itself.
func TestCompiledInfeasibleSteadyStateAllocs(t *testing.T) {
	classes := map[string]string{
		"GTS capacity": "exceeds MAC",
		"duty cycle":   "duty cycle",
	}
	for _, name := range []string{"ecg-ward", "mixed-ward"} {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := problem.Compile()
		if err != nil {
			t.Fatal(err)
		}
		eval := compiled.Evaluator().(dse.Forkable).Fork().(dse.IntoEvaluator)
		objs := make(dse.Objectives, 3)

		// Find one configuration per class by its message (formatting is
		// fine here, outside the measured loop).
		found := map[string]dse.Config{}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 20000 && len(found) < len(classes); i++ {
			c := problem.Space().Random(rng)
			err := eval.EvaluateInto(c, objs)
			if !core.IsInfeasible(err) {
				continue
			}
			for class, marker := range classes {
				if _, done := found[class]; !done && strings.Contains(err.Error(), marker) {
					found[class] = c
				}
			}
		}
		for class := range classes {
			cfg, ok := found[class]
			if !ok {
				t.Fatalf("%s: no %s-infeasible configuration found", name, class)
			}
			var err error
			allocs := testing.AllocsPerRun(500, func() { err = eval.EvaluateInto(cfg, objs) })
			if !core.IsInfeasible(err) {
				t.Fatalf("%s %v: want infeasible, got %v", name, cfg, err)
			}
			if allocs > 1 {
				t.Errorf("%s, %s: infeasible EvaluateInto allocates %.1f objects per call, want ≤ 1", name, class, allocs)
			}
		}
	}
}
