package dse

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomPopulation draws a population with duplicate-heavy discrete
// objectives (grid) or continuous ones, two, three or four objectives, and
// a feasibility mix — the degenerate shapes the fast sort must handle.
// Each dimension takes its own ENS path: Jensen's sweep, the staircase,
// and the member scan.
func randomPopulation(r *rand.Rand) []Point {
	n := 1 + r.Intn(80)
	m := 2 + r.Intn(3)
	grid := r.Intn(2) == 0
	pop := make([]Point, n)
	for i := range pop {
		objs := make(Objectives, m)
		for d := range objs {
			if grid {
				objs[d] = float64(r.Intn(6))
			} else {
				objs[d] = r.Float64() * 10
			}
		}
		pop[i] = Point{Config: Config{i}, Objs: objs, Feasible: r.Intn(5) > 0}
	}
	return pop
}

// TestFastSortMatchesNaive is the equivalence proof the tentpole demands:
// on >= 1000 randomized populations (2, 3 and 4 objectives, duplicates,
// infeasible mixes, singleton and all-equal degenerate shapes) the fast
// workspace sort returns exactly the naive reference's ranks and
// bit-identical crowding distances.
func TestFastSortMatchesNaive(t *testing.T) {
	var ws sortWorkspace
	for trial := 0; trial < 1200; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		pop := randomPopulation(r)
		wantRanks, wantCrowd := rankAndCrowdNaive(pop)
		gotRanks, gotCrowd := ws.rankAndCrowd(pop)
		for i := range pop {
			if gotRanks[i] != wantRanks[i] {
				t.Fatalf("trial %d: point %d rank = %d, naive %d\npop: %+v",
					trial, i, gotRanks[i], wantRanks[i], pop)
			}
			if gotCrowd[i] != wantCrowd[i] {
				t.Fatalf("trial %d: point %d crowding = %v, naive %v\npop: %+v",
					trial, i, gotCrowd[i], wantCrowd[i], pop)
			}
		}
	}
}

// TestFastSortDegenerateShapes pins the edge cases the randomized test may
// sample thinly: empty, all-infeasible, all-duplicate populations.
func TestFastSortDegenerateShapes(t *testing.T) {
	var ws sortWorkspace
	cases := [][]Point{
		nil,
		{{Objs: Objectives{1, 2}, Feasible: false}},
		{{Objs: Objectives{1, 2}, Feasible: false}, {Objs: Objectives{0, 0}, Feasible: false}},
		{{Objs: Objectives{1, 2}, Feasible: true}},
		mkPoints([]float64{3, 3}, []float64{3, 3}, []float64{3, 3}),
		mkPoints([]float64{1, 1, 1}, []float64{1, 1, 1}, []float64{0, 2, 1}),
	}
	for ci, pop := range cases {
		wantRanks, wantCrowd := rankAndCrowdNaive(pop)
		gotRanks, gotCrowd := ws.rankAndCrowd(pop)
		if !reflect.DeepEqual(append([]int{}, gotRanks...), append([]int{}, wantRanks...)) {
			t.Errorf("case %d: ranks %v, naive %v", ci, gotRanks, wantRanks)
		}
		for i := range pop {
			if gotCrowd[i] != wantCrowd[i] {
				t.Errorf("case %d: crowding %v, naive %v", ci, gotCrowd, wantCrowd)
			}
		}
	}
}

// TestNSGA2FastVsNaiveBitIdentical runs seeded NSGA-II with the fast sort
// and with the O(MN²) reference wired into the same generation loop, and
// demands bit-identical results — fronts (configurations and objective
// bits), evaluation counts, everything. It proves the speed rewrite itself
// changed nothing: any front difference versus the pre-PR code comes only
// from the two intentional algorithmic changes that shipped alongside it
// (the de-biased tournament tie coin and tournaments reusing the union's
// ranks, per Deb's formulation), never from the fast sort.
func TestNSGA2FastVsNaiveBitIdentical(t *testing.T) {
	s := testSpace(12, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	for _, seed := range []int64{1, 7, 42} {
		cfg := NSGA2Config{PopulationSize: 20, Generations: 12, Seed: seed}
		fast, err := NSGA2(s, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		testNaiveRank = true
		naive, err := NSGA2(s, eval, cfg)
		testNaiveRank = false
		if err != nil {
			t.Fatal(err)
		}
		if fast.Evaluated != naive.Evaluated || fast.Infeasible != naive.Infeasible {
			t.Fatalf("seed %d: counts (%d,%d) vs naive (%d,%d)",
				seed, fast.Evaluated, fast.Infeasible, naive.Evaluated, naive.Infeasible)
		}
		if !reflect.DeepEqual(fast.Front, naive.Front) {
			t.Fatalf("seed %d: fronts differ\nfast:  %+v\nnaive: %+v", seed, fast.Front, naive.Front)
		}
	}
}

// naiveArchive is the pre-rewrite O(N) -per-insert archive, kept verbatim
// as the reference the incremental sorted archive is proven against.
type naiveArchive struct {
	points []Point
}

func (a *naiveArchive) Add(p Point) bool {
	if !p.Feasible {
		return false
	}
	kept := a.points[:0]
	for _, q := range a.points {
		if Dominates(q.Objs, p.Objs) || equalObjs(q.Objs, p.Objs) {
			return false
		}
		if !Dominates(p.Objs, q.Objs) {
			kept = append(kept, q)
		}
	}
	a.points = append(kept, p)
	return true
}

// TestArchiveMatchesNaiveArchive drives the incremental sorted archive and
// the pre-rewrite reference through identical random insertion sequences
// (2 and 3 objectives): every Add must return the same verdict and the
// retained point sets must be identical — same points, not merely the same
// objective multiset, which the Config identity tags verify. Since MOSA's
// acceptance energy and archive merging read the archive as a set, this is
// the "before/after" proof that seeded MOSA runs are unchanged by the
// archive rewrite (up to the now-sorted presentation of Points).
func TestArchiveMatchesNaiveArchive(t *testing.T) {
	for trial := 0; trial < 600; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		m := 2 + r.Intn(2)
		n := 1 + r.Intn(120)
		var fast Archive
		var naive naiveArchive
		for i := 0; i < n; i++ {
			objs := make(Objectives, m)
			for d := range objs {
				objs[d] = float64(r.Intn(7))
			}
			p := Point{Config: Config{i}, Objs: objs, Feasible: r.Intn(8) > 0}
			got, want := fast.Add(p), naive.Add(p)
			if got != want {
				t.Fatalf("trial %d insert %d (%v): Add = %v, naive %v", trial, i, objs, got, want)
			}
		}
		if fast.Len() != len(naive.points) {
			t.Fatalf("trial %d: size %d vs naive %d", trial, fast.Len(), len(naive.points))
		}
		// Same identities: match by the Config tag.
		byTag := map[int]Point{}
		for _, p := range naive.points {
			byTag[p.Config[0]] = p
		}
		prev := Objectives(nil)
		for _, p := range fast.Points() {
			q, ok := byTag[p.Config[0]]
			if !ok || !equalObjs(q.Objs, p.Objs) {
				t.Fatalf("trial %d: archived point %v absent from naive archive", trial, p)
			}
			if prev != nil && lexCompare(prev, p.Objs) >= 0 {
				t.Fatalf("trial %d: Points not in strict lexicographic order: %v !< %v", trial, prev, p.Objs)
			}
			prev = p.Objs
		}
	}
}

// TestNSGA2GenerationSteadyStateZeroAllocs pins the pooled-buffer claim:
// once the memo cache and archive have converged on a small space, a full
// NSGA-II generation (tournaments, variation, batch evaluation, fast
// non-dominated sort, environmental selection, archive maintenance)
// performs zero heap allocations.
func TestNSGA2GenerationSteadyStateZeroAllocs(t *testing.T) {
	s := testSpace(6, 3)
	assertGenerationZeroAllocs(t, s, &convexEvaluator{space: s})
}

// TestNSGA2ThreeObjectiveGenerationZeroAllocs is the same gate at the
// production dimension, where ranking runs on per-front staircases and the
// archive merges through its double buffers.
func TestNSGA2ThreeObjectiveGenerationZeroAllocs(t *testing.T) {
	s := testSpace(4, 3, 3)
	assertGenerationZeroAllocs(t, s, &simplexEvaluator{space: s})
}

func assertGenerationZeroAllocs(t *testing.T, s *Space, eval Evaluator) {
	t.Helper()
	cfg := NSGA2Config{PopulationSize: 16, Generations: 1, Seed: 3, Workers: 1}
	cfg = cfg.withDefaults(len(s.Params))
	pe := NewParallelEvaluator(eval, 1)
	var arch Archive
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := newNSGA2Run(s, pe, cfg)
	r.seed(rng, &arch, nil)
	for gen := 0; gen < 30; gen++ { // saturate the memo cache (at most 36 points)
		r.generation(rng, &arch)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.generation(rng, &arch)
	})
	if allocs != 0 {
		t.Fatalf("steady-state generation allocates %.1f objects, want 0", allocs)
	}
}

// simplexEvaluator is convexEvaluator's three-objective twin: the first two
// genes place a point on the plane f1 + f2 + f3 = 1 and the remaining genes
// add the same excess to every objective, so the front is the excess-free
// simplex.
type simplexEvaluator struct{ space *Space }

func (e *simplexEvaluator) NumObjectives() int { return 3 }

func (e *simplexEvaluator) Evaluate(c Config) (Objectives, error) {
	u := e.space.Value(c, 0) / float64(len(e.space.Params[0].Values)-1) / 2
	v := e.space.Value(c, 1) / float64(len(e.space.Params[1].Values)-1) / 2
	excess := 0.0
	for i := 2; i < len(c); i++ {
		excess += e.space.Value(c, i)
	}
	excess /= 10
	return Objectives{u + excess, v + excess, 1 - u - v + excess}, nil
}

// TestMOSAChainSteadyStateZeroAllocs is the annealing twin: once every
// configuration of a small space is memoized and the guiding archive has
// converged, chain iterations (neighbour move, cached evaluation, archive
// check, acceptance test) allocate nothing.
func TestMOSAChainSteadyStateZeroAllocs(t *testing.T) {
	s := testSpace(6, 3)
	eval := &convexEvaluator{space: s}
	pe := NewParallelEvaluator(eval, 1)
	var arch Archive
	rng := rand.New(rand.NewSource(9))
	buf := make(Config, len(s.Params))
	s.RandomInto(rng, buf)
	cur := pe.eval(0, buf)
	arch.Add(cur)
	for i := 0; i < 500; i++ { // saturate cache and archive
		s.NeighborInto(rng, buf, cur.Config)
		cand := pe.eval(0, buf)
		arch.Add(cand)
		cur = cand
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.NeighborInto(rng, buf, cur.Config)
		cand := pe.eval(0, buf)
		arch.Add(cand)
		cur = cand
	})
	if allocs != 0 {
		t.Fatalf("steady-state chain iteration allocates %.1f objects, want 0", allocs)
	}
}

// TestTournamentTieBreakSymmetric checks the satellite fix: on exact
// (rank, crowding) ties the winner no longer always comes from the first
// draw. A replica rng recovers each tournament's draw pair (two Intn
// draws, plus the tie coin), so the test can count how often the first
// draw wins — the old rule made that 100%; the coin makes it ~50%.
func TestTournamentTieBreakSymmetric(t *testing.T) {
	n := 8
	pop := make([]Point, n)
	ranks := make([]int, n) // all rank 0
	crowd := make([]float64, n)
	rng := rand.New(rand.NewSource(5))
	replica := rand.New(rand.NewSource(5))
	firstWins, contested := 0, 0
	for trial := 0; trial < 6000; trial++ {
		a := replica.Intn(n)
		b := replica.Intn(n)
		replica.Intn(2) // the tie coin, to stay in sync
		w := tournament(rng, pop, ranks, crowd)
		if w != a && w != b {
			t.Fatalf("trial %d: winner %d is neither draw (%d, %d)", trial, w, a, b)
		}
		if a == b {
			continue
		}
		contested++
		if w == a {
			firstWins++
		}
	}
	frac := float64(firstWins) / float64(contested)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("first draw wins %.1f%% of contested ties, want ~50%%", frac*100)
	}
	// Determinism: the same seed replays the same winners.
	r1 := rand.New(rand.NewSource(11))
	r2 := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		if tournament(r1, pop, ranks, crowd) != tournament(r2, pop, ranks, crowd) {
			t.Fatal("seeded tournaments diverged")
		}
	}
}
