package baseline

import (
	"math/rand"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/dse"
)

func TestBaselineEvaluates(t *testing.T) {
	p := casestudy.NewProblem(casestudy.DefaultCalibration())
	b := New(p)
	if b.NumObjectives() != 2 {
		t.Error("objective count")
	}
	full := p.Evaluator()
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for i := 0; i < 200 && checked < 30; i++ {
		c := p.Space().Random(rng)
		objs2, err := b.Evaluate(c)
		if err != nil {
			if !core.IsInfeasible(err) {
				t.Fatalf("hard error: %v", err)
			}
			continue
		}
		objs3, err := full.Evaluate(c)
		if err != nil {
			t.Fatalf("full model infeasible where baseline feasible: %v", err)
		}
		// The baseline's energy and delay agree with the full model —
		// it differs only by dropping the quality axis.
		if objs2[0] != objs3[0] || objs2[1] != objs3[2] {
			t.Errorf("baseline objectives %v disagree with full model (%g, %g)",
				objs2, objs3[0], objs3[2])
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d feasible comparisons", checked)
	}
}

func TestLift(t *testing.T) {
	p := casestudy.NewProblem(casestudy.DefaultCalibration())
	b := New(p)
	res, err := dse.RandomSearchOpts(p.Space(), b, 300, 5, 1, dse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty baseline front")
	}
	lifted, err := Lift(p, res.Front)
	if err != nil {
		t.Fatal(err)
	}
	if len(lifted) != len(res.Front) {
		t.Errorf("lift dropped points: %d vs %d", len(lifted), len(res.Front))
	}
	for i, pt := range lifted {
		if len(pt.Objs) != 3 {
			t.Fatalf("lifted point %d has %d objectives", i, len(pt.Objs))
		}
		if pt.Objs[0] != res.Front[i].Objs[0] || pt.Objs[2] != res.Front[i].Objs[1] {
			t.Errorf("lifted energy/delay disagree at %d", i)
		}
	}
}
