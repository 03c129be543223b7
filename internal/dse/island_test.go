package dse

import (
	"errors"
	"reflect"
	"testing"
)

// runRounds drives one search as a sequence of StopAfter rounds: run to
// each boundary in targets, capture the forced snapshot, round-trip it
// through JSON (like the coordinator's checkpoint files do), and resume.
// The final call runs to completion.
func runRounds(t *testing.T, run func(opts Options) (*Result, error), targets []int) *Result {
	t.Helper()
	var resume *Snapshot
	for _, target := range targets {
		var captured *Snapshot
		opts := Options{
			StopAfter:  target,
			Resume:     resume,
			Checkpoint: func(s *Snapshot) error { captured = s; return nil },
		}
		res, err := run(opts)
		if !errors.Is(err, ErrPaused) {
			t.Fatalf("round to %d: got err %v, want ErrPaused (result %+v)", target, err, res)
		}
		if captured == nil {
			t.Fatalf("round to %d: pause produced no snapshot", target)
		}
		if captured.Step != target {
			t.Fatalf("round to %d: snapshot at step %d", target, captured.Step)
		}
		resume = roundTrip(t, captured)
	}
	res, err := run(Options{Resume: resume})
	if err != nil {
		t.Fatalf("final round: %v", err)
	}
	return res
}

// TestStopAfterRoundsMatchUninterrupted is the pause/resume contract the
// island coordinator builds on: a run chopped into StopAfter rounds at
// arbitrary boundaries walks the identical trajectory and lands on a
// bit-identical front.
func TestStopAfterRoundsMatchUninterrupted(t *testing.T) {
	s := testSpace(12, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}

	cases := []struct {
		name    string
		run     func(opts Options) (*Result, error)
		targets []int
	}{
		{"nsga2", func(opts Options) (*Result, error) {
			return NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 16, Generations: 12, Seed: 9, Workers: 2}, opts)
		}, []int{3, 6, 9}},
		{"mosa", func(opts Options) (*Result, error) {
			return MOSAOpts(s, eval, MOSAConfig{Iterations: 8192, Restarts: 4, Seed: 5, Workers: 2}, opts)
		}, []int{2, 4, 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := tc.run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			rounds := runRounds(t, tc.run, tc.targets)
			sameFront(t, plain, rounds, "rounds vs uninterrupted")
		})
	}
}

// TestStopAfterAtFinalBoundaryNeverFires pins the edge: StopAfter at or
// past the last boundary is a plain run to completion.
func TestStopAfterAtFinalBoundaryNeverFires(t *testing.T) {
	s := testSpace(8, 3)
	eval := &convexEvaluator{space: s}
	for _, stop := range []int{5, 7} {
		res, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 8, Generations: 5, Seed: 1}, Options{StopAfter: stop})
		if err != nil {
			t.Fatalf("StopAfter=%d: %v", stop, err)
		}
		if len(res.Front) == 0 {
			t.Fatalf("StopAfter=%d: empty front", stop)
		}
	}
}

func TestForkSeedDecorrelates(t *testing.T) {
	seen := map[int64]int{}
	for seed := int64(0); seed < 4; seed++ {
		for island := 0; island < 8; island++ {
			seen[ForkSeed(seed, island)]++
			// Island streams must not collide with MOSA chain streams of
			// the same base seed (chainSeed uses a different increment).
			if ForkSeed(seed, island) == chainSeed(seed, island) {
				t.Errorf("ForkSeed(%d,%d) collides with chainSeed", seed, island)
			}
		}
	}
	for v, n := range seen {
		if n > 1 {
			t.Errorf("forked seed %d produced %d times", v, n)
		}
	}
	if ForkSeed(7, 3) != ForkSeed(7, 3) {
		t.Error("ForkSeed is not deterministic")
	}
}

func TestConfigSteps(t *testing.T) {
	if got := (NSGA2Config{}).Steps(); got != 50 {
		t.Errorf("default NSGA2 Steps = %d, want 50", got)
	}
	if got := (NSGA2Config{Generations: 12}).Steps(); got != 12 {
		t.Errorf("NSGA2 Steps = %d, want 12", got)
	}
	// 8192 iterations over 4 chains = 2048 per chain = 8 segments of 256.
	if got := (MOSAConfig{Iterations: 8192, Restarts: 4}).Steps(); got != 8 {
		t.Errorf("MOSA Steps = %d, want 8", got)
	}
	if got := (MOSAConfig{}).Steps(); got != 5 {
		t.Errorf("default MOSA Steps = %d, want 5 (1250 iterations per chain)", got)
	}
}

// islandSnapshotPair produces one NSGA-II and one MOSA snapshot to drive
// the migration primitives with.
func islandSnapshotPair(t *testing.T) (*Space, *Snapshot, *Snapshot) {
	t.Helper()
	s := testSpace(12, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	var nsga2Snap, mosaSnap *Snapshot
	_, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 16, Generations: 12, Seed: 9}, Options{
		StopAfter:  6,
		Checkpoint: func(sn *Snapshot) error { nsga2Snap = sn; return nil },
	})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	_, err = MOSAOpts(s, eval, MOSAConfig{Iterations: 8192, Restarts: 4, Seed: 5}, Options{
		StopAfter:  4,
		Checkpoint: func(sn *Snapshot) error { mosaSnap = sn; return nil },
	})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	return s, nsga2Snap, mosaSnap
}

func TestMigrantsOutDeterministicAndBounded(t *testing.T) {
	_, nsga2Snap, mosaSnap := islandSnapshotPair(t)
	for _, tc := range []struct {
		name string
		snap *Snapshot
	}{{"nsga2", nsga2Snap}, {"mosa", mosaSnap}} {
		t.Run(tc.name, func(t *testing.T) {
			a := MigrantsOut(tc.snap, 4)
			b := MigrantsOut(tc.snap, 4)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("MigrantsOut is not deterministic")
			}
			if len(a) == 0 || len(a) > 4 {
				t.Fatalf("got %d migrants, want 1..4", len(a))
			}
			for _, m := range a {
				if !m.Feasible || len(m.Objs) == 0 {
					t.Fatalf("migrant %+v is not a feasible evaluated point", m)
				}
			}
			// k beyond the front size clamps, never duplicates.
			huge := MigrantsOut(tc.snap, 1<<20)
			seen := map[string]bool{}
			for _, m := range huge {
				key := m.Config.Key()
				if seen[key] {
					t.Fatalf("clamped selection repeated %v", m.Config)
				}
				seen[key] = true
			}
		})
	}
	if MigrantsOut(nil, 4) != nil || MigrantsOut(nsga2Snap, 0) != nil {
		t.Error("nil snapshot / k=0 should yield no migrants")
	}
}

// TestInjectMigrantsResumes proves the injected snapshot is still a valid
// resume point, the injection leaves the input snapshot untouched, and
// injecting is deterministic.
func TestInjectMigrantsResumes(t *testing.T) {
	s, nsga2Snap, mosaSnap := islandSnapshotPair(t)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}

	migrants := MigrantsOut(mosaSnap, 4)
	before := roundTrip(t, nsga2Snap)

	inj1, err := InjectMigrants(s, nsga2Snap, migrants)
	if err != nil {
		t.Fatal(err)
	}
	inj2, err := InjectMigrants(s, nsga2Snap, migrants)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inj1, inj2) {
		t.Fatal("InjectMigrants is not deterministic")
	}
	if !reflect.DeepEqual(before, nsga2Snap) {
		t.Fatal("InjectMigrants mutated its input snapshot")
	}
	res1, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 16, Generations: 12, Seed: 9},
		Options{Resume: roundTrip(t, inj1)})
	if err != nil {
		t.Fatalf("resume after injection: %v", err)
	}
	res2, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 16, Generations: 12, Seed: 9},
		Options{Resume: roundTrip(t, inj1)})
	if err != nil {
		t.Fatal(err)
	}
	sameFront(t, res1, res2, "post-injection resume determinism")

	minj, err := InjectMigrants(s, mosaSnap, MigrantsOut(nsga2Snap, 4))
	if err != nil {
		t.Fatal(err)
	}
	mres, err := MOSAOpts(s, eval, MOSAConfig{Iterations: 8192, Restarts: 4, Seed: 5},
		Options{Resume: roundTrip(t, minj)})
	if err != nil {
		t.Fatalf("mosa resume after injection: %v", err)
	}
	if len(mres.Front) == 0 {
		t.Fatal("mosa post-injection run found nothing")
	}
}

// TestInjectMigrantsFiltersGarbage: invalid, infeasible and duplicate
// migrants are skipped, never an error; an all-garbage migration is a
// no-op clone.
func TestInjectMigrantsFiltersGarbage(t *testing.T) {
	s, nsga2Snap, _ := islandSnapshotPair(t)
	garbage := []SnapPoint{
		{Config: Config{99, 99, 99}, Objs: Objectives{1, 2}, Feasible: true},             // out of range
		{Config: Config{1, 1}, Objs: Objectives{1, 2}, Feasible: true},                   // wrong gene count
		{Config: Config{1, 1, 1}, Feasible: false},                                       // infeasible
		{Config: nsga2Snap.Population[0].Config, Objs: Objectives{1, 2}, Feasible: true}, // duplicate
	}
	out, err := InjectMigrants(s, nsga2Snap, garbage)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, nsga2Snap.Clone()) {
		t.Fatal("garbage injection changed the snapshot")
	}
}

func TestIslandSnapshotFileRoundTrip(t *testing.T) {
	s, nsga2Snap, _ := islandSnapshotPair(t)
	other := nsga2Snap.Clone()
	comp := &IslandSnapshot{
		Version:   IslandSnapshotVersion,
		Algorithm: "nsga2",
		Round:     2,
		Step:      nsga2Snap.Step,
		Islands:   []*Snapshot{nsga2Snap, other},
	}
	if err := comp.Validate("nsga2", 2, s); err != nil {
		t.Fatal(err)
	}
	// The composite persists as one snapfile per island; decoding them
	// back reassembles an identical composite.
	back := &IslandSnapshot{Version: comp.Version, Algorithm: comp.Algorithm, Round: comp.Round, Step: comp.Step}
	for _, isl := range comp.Islands {
		data, err := EncodeSnapshotFile(isl)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSnapshotFile(data)
		if err != nil {
			t.Fatal(err)
		}
		back.Islands = append(back.Islands, dec)
		// A torn tail fails verification with ErrCorruptSnapshot.
		if _, err := DecodeSnapshotFile(data[:len(data)/2]); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("torn file decoded: %v", err)
		}
	}
	if !reflect.DeepEqual(comp, back) {
		t.Fatal("island snapshot did not round-trip")
	}
	// Validation catches the mismatches failover must refuse.
	if err := comp.Validate("mosa", 2, s); err == nil {
		t.Error("algorithm mismatch accepted")
	}
	if err := comp.Validate("nsga2", 3, s); err == nil {
		t.Error("island count mismatch accepted")
	}
	comp.Islands[1].Step++
	if err := comp.Validate("nsga2", 2, s); err == nil {
		t.Error("step skew accepted")
	}
}
