package dse

import (
	"fmt"
	"sort"
)

// This file holds the dse-level primitives of island-model search: seed
// forking, migrant selection/injection on snapshots, and the composite
// IslandSnapshot. The coordinator that schedules islands, supervises
// their executors and drives the migration ring lives in
// internal/service/island; everything here is pure state manipulation,
// deterministic by construction, so the coordinator's bit-identity
// guarantees reduce to the resume guarantees already proven for
// Snapshot.

// ForkSeed derives island i's search seed from the job seed with a
// SplitMix64-style mix, so islands walk decorrelated streams and the
// derivation is a pure function of (seed, island) — independent of how
// many islands run concurrently or which executor hosts them. The
// increment constant differs from the one chainSeed uses, so island 0's
// NSGA-II stream is not correlated with chain 0 of a MOSA run on the
// same seed.
func ForkSeed(seed int64, island int) int64 {
	z := uint64(seed) + (uint64(island)+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Steps returns the number of search boundaries (completed generations)
// a run with this config performs after defaulting — the unit
// Options.StopAfter, CheckpointEvery and migration intervals count in.
func (c NSGA2Config) Steps() int {
	if c.Generations == 0 {
		return 50
	}
	return c.Generations
}

// Steps returns the number of search boundaries (completed chain
// segments) a run with this config performs after defaulting.
func (c MOSAConfig) Steps() int {
	d := c.withDefaults()
	perChain := d.Iterations / d.Restarts
	if perChain <= 0 {
		return 0
	}
	return (perChain + mosaSegment - 1) / mosaSegment
}

// cloneSnapPoints deep-copies snapshot points (Config and Objs storage
// included), so mutating the copy never aliases the original snapshot.
func cloneSnapPoints(sps []SnapPoint) []SnapPoint {
	if sps == nil {
		return nil
	}
	out := make([]SnapPoint, len(sps))
	for i, sp := range sps {
		out[i] = SnapPoint{Config: sp.Config.Clone(), Objs: append(Objectives(nil), sp.Objs...), Feasible: sp.Feasible}
	}
	return out
}

// Clone deep-copies the snapshot. The island coordinator mutates cloned
// snapshots (migrant injection) while keeping the original as the
// restart point of a crashed round, so sharing backing storage would
// silently corrupt failover.
func (s *Snapshot) Clone() *Snapshot {
	if s == nil {
		return nil
	}
	out := *s
	out.Population = cloneSnapPoints(s.Population)
	out.Ranks = append([]int(nil), s.Ranks...)
	out.Crowd = append(InfFloats(nil), s.Crowd...)
	out.Archive = cloneSnapPoints(s.Archive)
	if s.Chains != nil {
		out.Chains = make([]ChainSnap, len(s.Chains))
		for i, ch := range s.Chains {
			out.Chains[i] = ChainSnap{
				RNG:     ch.RNG,
				Cur:     SnapPoint{Config: ch.Cur.Config.Clone(), Objs: append(Objectives(nil), ch.Cur.Objs...), Feasible: ch.Cur.Feasible},
				CurE:    ch.CurE,
				Temp:    ch.Temp,
				Iter:    ch.Iter,
				Archive: cloneSnapPoints(ch.Archive),
			}
		}
	}
	return &out
}

// snapshotFront rebuilds the non-dominated set a snapshot has discovered
// so far: the run archive for NSGA-II, the merge of every chain's
// guiding archive for MOSA. Points come back in the Archive's
// lexicographic objective order, so selection over them is
// deterministic.
func snapshotFront(snap *Snapshot) []Point {
	var arch Archive
	switch snap.Algorithm {
	case "nsga2":
		restoreArchive(&arch, snap.Archive)
	case "mosa":
		for _, ch := range snap.Chains {
			restoreArchive(&arch, ch.Archive)
		}
	}
	return arch.Points()
}

// MigrantsOut selects up to k migrants from the snapshot's current
// front, stride-sampled across the whole front (the same shape
// Options.validSeeds uses, and for the same reason: a front is ordered
// along the tradeoff curve, and a prefix would export only one end of
// it). The result deep-copies the snapshot's storage and is a pure
// function of (snap, k), so every executor arrangement exports the same
// migrants. Snapshots of algorithms without migration support (or an
// empty front, or k <= 0) yield nil.
func MigrantsOut(snap *Snapshot, k int) []SnapPoint {
	if snap == nil || k <= 0 {
		return nil
	}
	front := snapshotFront(snap)
	if len(front) == 0 {
		return nil
	}
	if k > len(front) {
		k = len(front)
	}
	out := make([]SnapPoint, k)
	for i := range out {
		out[i] = snapPoint(front[i*len(front)/k])
	}
	return out
}

// InjectMigrants returns a deep copy of snap with migrants folded into
// the algorithm's state, leaving snap itself untouched:
//
//   - nsga2: migrants replace the worst population members (rank
//     descending, crowding ascending, index descending — the exact
//     inverse of environmental selection's order), capped at half the
//     population so immigration never displaces the island's whole gene
//     pool; the post-injection population is re-ranked, and migrants
//     join the run archive.
//   - mosa: migrants join every chain's guiding archive, steering each
//     chain's acceptance energy toward the neighbours' fronts; chain
//     positions, temperatures and RNG states are untouched.
//
// Migrants that do not index the space, are infeasible, carry a
// mismatched objective count, or duplicate a point already present are
// skipped, never an error — a migration between islands exploring the
// same region is naturally mostly duplicates. The result is a pure
// function of (snap, migrants, space): injection itself draws no
// randomness, so the resumed trajectory depends only on what was
// injected, not on when or where.
func InjectMigrants(space *Space, snap *Snapshot, migrants []SnapPoint) (*Snapshot, error) {
	if snap == nil {
		return nil, fmt.Errorf("dse: inject migrants into nil snapshot")
	}
	out := snap.Clone()
	accepted := acceptMigrants(space, snap, migrants)
	if len(accepted) == 0 {
		return out, nil
	}
	switch snap.Algorithm {
	case "nsga2":
		n := len(out.Population)
		if n == 0 {
			return nil, fmt.Errorf("dse: nsga2 snapshot has no population to inject into")
		}
		if limit := n / 2; len(accepted) > limit {
			accepted = accepted[:limit]
		}
		pop := restorePoints(out.Population)
		worst := worstIndices(out.Ranks, out.Crowd)
		for i, m := range accepted {
			pop[worst[i]] = m.point()
		}
		var ws sortWorkspace
		ranks, crowd := ws.rankAndCrowd(pop)
		out.Population = snapPoints(pop)
		out.Ranks = append([]int(nil), ranks...)
		out.Crowd = append(InfFloats(nil), crowd...)
		var arch Archive
		restoreArchive(&arch, out.Archive)
		restoreArchive(&arch, accepted)
		out.Archive = snapPoints(arch.Points())
	case "mosa":
		for i := range out.Chains {
			var arch Archive
			restoreArchive(&arch, out.Chains[i].Archive)
			restoreArchive(&arch, accepted)
			out.Chains[i].Archive = snapPoints(arch.Points())
		}
	default:
		return nil, fmt.Errorf("dse: algorithm %q does not support migration", snap.Algorithm)
	}
	return out, nil
}

// acceptMigrants filters migrants down to feasible, space-valid,
// objective-bearing points, dropping duplicates of the snapshot's
// population (NSGA-II) and among the migrants themselves, preserving
// first-seen order.
func acceptMigrants(space *Space, snap *Snapshot, migrants []SnapPoint) []SnapPoint {
	if len(migrants) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(migrants)+len(snap.Population))
	for _, sp := range snap.Population {
		seen[sp.Config.Key()] = true
	}
	objs := -1
	if len(snap.Archive) > 0 {
		objs = len(snap.Archive[0].Objs)
	} else {
		for _, ch := range snap.Chains {
			if len(ch.Archive) > 0 {
				objs = len(ch.Archive[0].Objs)
				break
			}
		}
	}
	out := make([]SnapPoint, 0, len(migrants))
	for _, m := range migrants {
		if !m.Feasible || len(m.Objs) == 0 || !space.Valid(m.Config) {
			continue
		}
		if objs >= 0 && len(m.Objs) != objs {
			continue
		}
		k := m.Config.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, SnapPoint{Config: m.Config.Clone(), Objs: append(Objectives(nil), m.Objs...), Feasible: true})
	}
	return out
}

// worstIndices orders population indices worst-first by the carried
// ranking: rank descending, crowding ascending, index descending — a
// total order, so replacement targets are deterministic even among
// exact (rank, crowding) ties.
func worstIndices(ranks []int, crowd []float64) []int {
	idx := make([]int, len(ranks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if ranks[a] != ranks[b] {
			return ranks[a] > ranks[b]
		}
		if crowd[a] != crowd[b] {
			return crowd[a] < crowd[b]
		}
		return a > b
	})
	return idx
}

// IslandSnapshotVersion is the composite checkpoint format version.
const IslandSnapshotVersion = 1

// IslandSnapshot is the composite checkpoint of an island-model run: one
// per-island Snapshot, all taken at the same migration boundary, after
// that round's migrants were injected. Because injection happens before
// the checkpoint, restoring any island replays its next round without
// needing the in-flight migrants again — the composite is always a
// clean cut of the whole distributed trajectory.
type IslandSnapshot struct {
	Version   int         `json:"version"`
	Algorithm string      `json:"algorithm"`
	Round     int         `json:"round"` // migration rounds completed
	Step      int         `json:"step"`  // the common per-island boundary
	Islands   []*Snapshot `json:"islands"`
}

// Validate checks the composite against the run about to resume from it.
func (s *IslandSnapshot) Validate(algo string, islands int, space *Space) error {
	if s == nil {
		return fmt.Errorf("dse: resume from nil island snapshot")
	}
	if s.Version != IslandSnapshotVersion {
		return fmt.Errorf("dse: island snapshot version %d, this build writes %d", s.Version, IslandSnapshotVersion)
	}
	if s.Algorithm != algo {
		return fmt.Errorf("dse: island snapshot is a %s run, cannot resume as %s", s.Algorithm, algo)
	}
	if len(s.Islands) != islands {
		return fmt.Errorf("dse: island snapshot has %d islands, configuration wants %d", len(s.Islands), islands)
	}
	for i, snap := range s.Islands {
		if snap == nil {
			return fmt.Errorf("dse: island snapshot %d is nil", i)
		}
		if snap.Step != s.Step {
			return fmt.Errorf("dse: island %d checkpointed at step %d, composite says %d", i, snap.Step, s.Step)
		}
		if err := snap.validateResume(algo, space); err != nil {
			return fmt.Errorf("dse: island %d: %w", i, err)
		}
	}
	return nil
}

// Clone deep-copies the composite.
func (s *IslandSnapshot) Clone() *IslandSnapshot {
	if s == nil {
		return nil
	}
	out := *s
	out.Islands = make([]*Snapshot, len(s.Islands))
	for i, snap := range s.Islands {
		out.Islands[i] = snap.Clone()
	}
	return &out
}
