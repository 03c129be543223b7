package dse

import (
	"math"
	"math/rand"
	"testing"

	"wsndse/internal/core"
)

// testSpace is a small grid for search tests.
func testSpace(values ...int) *Space {
	s := &Space{}
	for i, n := range values {
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = float64(j)
		}
		s.Params = append(s.Params, Parameter{Name: string(rune('a' + i)), Values: vals})
	}
	return s
}

// sphereEvaluator is a two-objective benchmark with a known front: minimize
// (x, (R−x)) over a discretized segment — every point is Pareto optimal —
// plus a second dimension that adds slack so interior points are dominated.
type convexEvaluator struct{ space *Space }

func (e *convexEvaluator) NumObjectives() int { return 2 }

// Evaluate maps the first gene to position t on [0,1] and the remaining
// genes to excess: f1 = t + excess, f2 = 1 − t + excess. The true front is
// excess = 0: the diagonal trade-off between f1 and f2.
func (e *convexEvaluator) Evaluate(c Config) (Objectives, error) {
	n := float64(len(e.space.Params[0].Values) - 1)
	t := e.space.Value(c, 0) / n
	excess := 0.0
	for i := 1; i < len(c); i++ {
		excess += e.space.Value(c, i)
	}
	excess /= 10
	return Objectives{t + excess, 1 - t + excess}, nil
}

// constrainedEvaluator marks a band of the space infeasible.
type constrainedEvaluator struct {
	inner *convexEvaluator
}

func (e *constrainedEvaluator) NumObjectives() int { return 2 }
func (e *constrainedEvaluator) Evaluate(c Config) (Objectives, error) {
	if c[0]%3 == 1 {
		return nil, core.Infeasible("band %d excluded", c[0])
	}
	return e.inner.Evaluate(c)
}

func TestSpaceBasics(t *testing.T) {
	s := testSpace(4, 3, 2)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Size(); got != 24 {
		t.Errorf("Size = %g, want 24", got)
	}
	if (&Space{}).Validate() == nil {
		t.Error("empty space accepted")
	}
	if (&Space{Params: []Parameter{{Name: "x"}}}).Validate() == nil {
		t.Error("empty parameter accepted")
	}
	rng := rand.New(rand.NewSource(1))
	c := s.Random(rng)
	if !s.Valid(c) {
		t.Error("random config invalid")
	}
	if s.Valid(Config{0, 0}) {
		t.Error("short config accepted")
	}
	if s.Valid(Config{9, 0, 0}) {
		t.Error("out-of-range config accepted")
	}
	if c.Key() == (Config{9, 9, 9}).Key() {
		t.Error("distinct configs share a key")
	}
}

func TestSpaceIterateCoversAll(t *testing.T) {
	s := testSpace(3, 2, 2)
	seen := map[string]bool{}
	s.Iterate(func(c Config) bool {
		seen[c.Key()] = true
		return true
	})
	if len(seen) != 12 {
		t.Errorf("iterated %d configs, want 12", len(seen))
	}
	// Early stop.
	count := 0
	s.Iterate(func(c Config) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop after %d", count)
	}
}

func TestMutationAndNeighborStayValid(t *testing.T) {
	s := testSpace(5, 1, 4)
	rng := rand.New(rand.NewSource(2))
	c := s.Random(rng)
	m, n := make(Config, len(c)), make(Config, len(c))
	for i := 0; i < 200; i++ {
		copy(m, c)
		s.MutateInPlace(rng, m, 0.5)
		if !s.Valid(m) {
			t.Fatalf("mutation produced invalid config %v", m)
		}
		s.NeighborInto(rng, n, c)
		if !s.Valid(n) {
			t.Fatalf("neighbor produced invalid config %v", n)
		}
		// Neighbor changes at most one gene.
		diff := 0
		for j := range n {
			if n[j] != c[j] {
				diff++
			}
		}
		if diff > 1 {
			t.Fatalf("neighbor changed %d genes", diff)
		}
	}
	// Crossover mixes genes from both parents only.
	a, b := Config{0, 0, 0}, Config{4, 0, 3}
	child := make(Config, len(a))
	for i := 0; i < 50; i++ {
		s.CrossoverInto(rng, child, a, b)
		for j := range child {
			if child[j] != a[j] && child[j] != b[j] {
				t.Fatalf("crossover invented gene %d=%d", j, child[j])
			}
		}
	}
}

func TestExhaustiveFindsTrueFront(t *testing.T) {
	s := testSpace(11, 3)
	eval := &convexEvaluator{space: s}
	res, err := ExhaustiveOpts(s, eval, 1000, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 33 {
		t.Errorf("evaluated %d, want 33", res.Evaluated)
	}
	// True front: the 11 excess-0 points.
	if len(res.Front) != 11 {
		t.Fatalf("front size = %d, want 11", len(res.Front))
	}
	for _, p := range res.Front {
		if p.Config[1] != 0 {
			t.Errorf("front contains excess point %v", p.Config)
		}
	}
	// Refuses oversized spaces.
	if _, err := ExhaustiveOpts(s, eval, 10, 1, Options{}); err == nil {
		t.Error("oversize exhaustive accepted")
	}
}

func TestRandomSearchAndMemo(t *testing.T) {
	s := testSpace(11, 3)
	eval := &convexEvaluator{space: s}
	res, err := RandomSearchOpts(s, eval, 500, 1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The memo means at most 33 distinct evaluations despite 500 draws.
	if res.Evaluated > 33 {
		t.Errorf("evaluated %d distinct configs, space has 33", res.Evaluated)
	}
	if len(res.Front) == 0 {
		t.Error("empty front")
	}
	if _, err := RandomSearchOpts(s, eval, 0, 1, 1, Options{}); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestNSGA2FindsTrueFront(t *testing.T) {
	s := testSpace(21, 4, 4)
	eval := &convexEvaluator{space: s}
	res, err := NSGA2(s, eval, NSGA2Config{PopulationSize: 32, Generations: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// All 21 excess-0 points should be discovered on this small space.
	if len(res.Front) < 18 {
		t.Errorf("front size = %d, want ≥ 18 of 21 true points", len(res.Front))
	}
	for _, p := range res.Front {
		if p.Config[1] != 0 || p.Config[2] != 0 {
			t.Errorf("front contains dominated point %v", p.Config)
		}
	}
}

func TestNSGA2Deterministic(t *testing.T) {
	s := testSpace(11, 3)
	eval := &convexEvaluator{space: s}
	a, err := NSGA2(s, eval, NSGA2Config{PopulationSize: 16, Generations: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NSGA2(s, eval, NSGA2Config{PopulationSize: 16, Generations: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Front) != len(b.Front) || a.Evaluated != b.Evaluated {
		t.Error("identical seeds produced different runs")
	}
}

func TestNSGA2ValidatesConfig(t *testing.T) {
	s := testSpace(5)
	eval := &convexEvaluator{space: s}
	if _, err := NSGA2(s, eval, NSGA2Config{PopulationSize: 3}); err == nil {
		t.Error("odd population accepted")
	}
	if _, err := NSGA2(&Space{}, eval, NSGA2Config{}); err == nil {
		t.Error("empty space accepted")
	}
}

func TestNSGA2HandlesInfeasible(t *testing.T) {
	s := testSpace(12, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	res, err := NSGA2(s, eval, NSGA2Config{PopulationSize: 16, Generations: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible == 0 {
		t.Error("constrained problem reported no infeasible evaluations")
	}
	for _, p := range res.Front {
		if p.Config[0]%3 == 1 {
			t.Errorf("infeasible config %v in front", p.Config)
		}
	}
}

func TestMOSAFindsFront(t *testing.T) {
	s := testSpace(21, 4)
	eval := &convexEvaluator{space: s}
	res, err := MOSA(s, eval, MOSAConfig{Iterations: 4000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) < 15 {
		t.Errorf("MOSA front size = %d, want ≥ 15 of 21", len(res.Front))
	}
	for _, p := range res.Front {
		if p.Config[1] != 0 {
			t.Errorf("front contains dominated point %v", p.Config)
		}
	}
	if _, err := MOSA(s, eval, MOSAConfig{Cooling: 1.5}); err == nil {
		t.Error("bad cooling accepted")
	}
}

// The paper's §5.2 observation: GA and SA find fronts of equivalent
// quality. Compare hypervolumes on the benchmark problem.
func TestNSGA2AndMOSAEquivalentQuality(t *testing.T) {
	s := testSpace(21, 4, 3)
	eval := &convexEvaluator{space: s}
	ga, err := NSGA2(s, eval, NSGA2Config{PopulationSize: 32, Generations: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := MOSA(s, eval, MOSAConfig{Iterations: 6000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := Objectives{2, 2}
	hvGA := Hypervolume(ga.Front, ref)
	hvSA := Hypervolume(sa.Front, ref)
	if math.Abs(hvGA-hvSA) > 0.05*math.Max(hvGA, hvSA) {
		t.Errorf("GA and SA hypervolumes differ substantially: %g vs %g", hvGA, hvSA)
	}
	// And both beat random search at comparable budget.
	rs, err := RandomSearchOpts(s, eval, ga.Evaluated, 1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hvRS := Hypervolume(rs.Front, ref)
	if hvGA < hvRS-1e-9 {
		t.Errorf("NSGA-II (%g) lost to random search (%g)", hvGA, hvRS)
	}
}
