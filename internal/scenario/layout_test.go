package scenario_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
)

// TestGroupedLayoutSameModel checks that the grouped and interleaved
// problems over ecg-ward are one model in two gene orders: the grouped
// layout lists BO, SFO gap, payload, every CR gene, then every frequency
// gene; and a configuration moved gene by gene (matched by name) from one
// layout to the other evaluates to bit-identical objectives, or to the
// same infeasibility class, on the reference and on the compiled
// evaluator alike.
func TestGroupedLayoutSameModel(t *testing.T) {
	cal := casestudy.DefaultCalibration()
	grouped, err := scenario.NewGroupedProblem(scenario.ECGWard(), cal)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := scenario.NewProblem(scenario.ECGWard(), cal)
	if err != nil {
		t.Fatal(err)
	}

	gGenes, iGenes := grouped.Space().Params, inter.Space().Params
	if len(gGenes) != len(iGenes) {
		t.Fatalf("grouped layout has %d genes, interleaved %d", len(gGenes), len(iGenes))
	}
	n := len(scenario.ECGWard().Nodes)
	for k, g := range gGenes {
		var want string
		switch {
		case k < 3:
			want = iGenes[k].Name // the shared MAC genes lead both layouts
		case k < 3+n:
			want = "cr:"
		default:
			want = "fuc:"
		}
		if !strings.HasPrefix(g.Name, want) {
			t.Fatalf("grouped gene %d is %q, want a %q gene", k, g.Name, want)
		}
	}
	if gGenes[4].Name == iGenes[4].Name {
		t.Fatal("grouped and interleaved layouts order their genes alike")
	}

	// toInter[k] is the interleaved index of grouped gene k.
	index := map[string]int{}
	for k, g := range iGenes {
		index[g.Name] = k
	}
	toInter := make([]int, len(gGenes))
	for k, g := range gGenes {
		j, ok := index[g.Name]
		if !ok {
			t.Fatalf("grouped gene %q missing from the interleaved layout", g.Name)
		}
		toInter[k] = j
	}

	gCompiled, err := grouped.Compile()
	if err != nil {
		t.Fatal(err)
	}
	iCompiled, err := inter.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name string
		g, i dse.Evaluator
	}{
		{"reference", grouped.Evaluator(), inter.Evaluator()},
		{"compiled", gCompiled.Evaluator(), iCompiled.Evaluator()},
	}

	rng := rand.New(rand.NewSource(11))
	feasible, infeasible := 0, 0
	for s := 0; s < 400; s++ {
		gc := grouped.Space().Random(rng)
		ic := make(dse.Config, len(gc))
		for k, v := range gc {
			ic[toInter[k]] = v
		}
		for _, pair := range pairs {
			want, werr := pair.g.Evaluate(gc)
			got, gerr := pair.i.Evaluate(ic)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: grouped %v err %v, interleaved %v err %v", pair.name, gc, werr, ic, gerr)
			}
			if werr != nil {
				if core.IsInfeasible(werr) != core.IsInfeasible(gerr) {
					t.Fatalf("%s: infeasibility class differs: %v vs %v", pair.name, werr, gerr)
				}
				infeasible++
				continue
			}
			feasible++
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s: grouped %v objective %d = %v, interleaved %v gives %v",
						pair.name, gc, k, want[k], ic, got[k])
				}
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("sample covered %d feasible / %d infeasible evaluations; need both", feasible, infeasible)
	}
}
