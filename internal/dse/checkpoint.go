package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// SnapshotVersion is the checkpoint format version. Snapshots carry it so
// a service can refuse to resume from a format it no longer writes.
const SnapshotVersion = 1

// SnapPoint is one evaluated point in snapshot form. Objs is empty for
// infeasible points (matching the in-memory representation, where
// constraint violations carry no objective vector).
type SnapPoint struct {
	Config   Config     `json:"config"`
	Objs     Objectives `json:"objs,omitempty"`
	Feasible bool       `json:"feasible"`
}

// snapPoint deep-copies a run-owned point into snapshot form, so the
// snapshot stays valid while the run keeps mutating its buffers.
func snapPoint(p Point) SnapPoint {
	return SnapPoint{Config: p.Config.Clone(), Objs: append(Objectives(nil), p.Objs...), Feasible: p.Feasible}
}

// point rehydrates the snapshot point with fresh backing storage.
func (sp SnapPoint) point() Point {
	return Point{Config: sp.Config.Clone(), Objs: append(Objectives(nil), sp.Objs...), Feasible: sp.Feasible}
}

func snapPoints(ps []Point) []SnapPoint {
	out := make([]SnapPoint, len(ps))
	for i, p := range ps {
		out[i] = snapPoint(p)
	}
	return out
}

func restorePoints(sps []SnapPoint) []Point {
	out := make([]Point, len(sps))
	for i, sp := range sps {
		out[i] = sp.point()
	}
	return out
}

// ChainSnap is the complete state of one MOSA annealing chain at a segment
// boundary: its private RNG, current point and energy, temperature,
// iterations completed, and guiding archive.
type ChainSnap struct {
	RNG     uint64      `json:"rng"`
	Cur     SnapPoint   `json:"cur"`
	CurE    float64     `json:"cur_e"`
	Temp    float64     `json:"temp"`
	Iter    int         `json:"iter"`
	Archive []SnapPoint `json:"archive,omitempty"`
}

// InfFloats is a []float64 whose JSON form round-trips IEEE infinities
// (crowding distances of front-boundary points are +Inf, which
// encoding/json rejects as bare numbers). Infinities encode as the strings
// "+Inf"/"-Inf"; finite values encode as plain numbers.
type InfFloats []float64

// MarshalJSON implements json.Marshaler.
func (f InfFloats) MarshalJSON() ([]byte, error) {
	vals := make([]any, len(f))
	for i, v := range f {
		switch {
		case math.IsInf(v, 1):
			vals[i] = "+Inf"
		case math.IsInf(v, -1):
			vals[i] = "-Inf"
		default:
			vals[i] = v
		}
	}
	return json.Marshal(vals)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *InfFloats) UnmarshalJSON(data []byte) error {
	var vals []any
	if err := json.Unmarshal(data, &vals); err != nil {
		return err
	}
	out := make(InfFloats, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			out[i] = x
		case string:
			switch x {
			case "+Inf":
				out[i] = math.Inf(1)
			case "-Inf":
				out[i] = math.Inf(-1)
			default:
				return fmt.Errorf("dse: InfFloats element %d: unknown sentinel %q", i, x)
			}
		default:
			return fmt.Errorf("dse: InfFloats element %d: unexpected type %T", i, v)
		}
	}
	*f = out
	return nil
}

// Snapshot is a self-contained, JSON-serializable checkpoint of a search
// run, taken at a generation/segment/batch boundary. Resuming from it
// (Options.Resume) replays the uninterrupted run's exact trajectory; see
// Options.Resume for the precise determinism contract. Which fields are
// populated depends on the algorithm:
//
//   - nsga2: RNG, Population, Ranks, Crowd (the survivors' carried union
//     ranking), Archive
//   - mosa: Chains (per-chain RNG/current/temperature/archive)
//   - exhaustive: Next (configurations consumed in enumeration order),
//     Archive
//   - random: RNG, Next (draws consumed), Archive
//
// Evaluated/Infeasible carry the run's cumulative counters so resumed runs
// report totals, not deltas.
type Snapshot struct {
	Version    int         `json:"version"`
	Algorithm  string      `json:"algorithm"`
	Step       int         `json:"step"`
	RNG        uint64      `json:"rng,omitempty"`
	Population []SnapPoint `json:"population,omitempty"`
	Ranks      []int       `json:"ranks,omitempty"`
	Crowd      InfFloats   `json:"crowd,omitempty"`
	Archive    []SnapPoint `json:"archive,omitempty"`
	Chains     []ChainSnap `json:"chains,omitempty"`
	Next       int         `json:"next,omitempty"`
	Evaluated  int         `json:"evaluated"`
	Infeasible int         `json:"infeasible"`
}

// validateResume checks the snapshot's envelope against the resuming run.
func (s *Snapshot) validateResume(algo string, space *Space) error {
	if s == nil {
		return fmt.Errorf("dse: resume from nil snapshot")
	}
	if s.Version != SnapshotVersion {
		return fmt.Errorf("dse: snapshot version %d, this build writes %d", s.Version, SnapshotVersion)
	}
	if s.Algorithm != algo {
		return fmt.Errorf("dse: snapshot is a %s run, cannot resume as %s", s.Algorithm, algo)
	}
	if s.Step < 0 || s.Next < 0 {
		return fmt.Errorf("dse: snapshot at step %d, next %d", s.Step, s.Next)
	}
	genes := len(space.Params)
	check := func(kind string, sp SnapPoint) error {
		if len(sp.Config) != genes {
			return fmt.Errorf("dse: snapshot %s point has %d genes, space has %d", kind, len(sp.Config), genes)
		}
		if !space.Valid(sp.Config) {
			return fmt.Errorf("dse: snapshot %s point %v does not index the space", kind, sp.Config)
		}
		return nil
	}
	for _, sp := range s.Population {
		if err := check("population", sp); err != nil {
			return err
		}
	}
	for _, sp := range s.Archive {
		if err := check("archive", sp); err != nil {
			return err
		}
	}
	for _, ch := range s.Chains {
		if err := check("chain", ch.Cur); err != nil {
			return err
		}
		for _, sp := range ch.Archive {
			if err := check("chain archive", sp); err != nil {
				return err
			}
		}
	}
	return nil
}

// ErrCorruptSnapshot marks a durable snapshot whose bytes do not match
// their recorded checksum (or do not parse at all) — the signature of a
// write torn by a crash. Callers distinguish it from "no snapshot" with
// errors.Is and fall back to an older checkpoint.
var ErrCorruptSnapshot = errors.New("dse: corrupt snapshot file")

// snapshotEnvelope is the durable on-disk form of a Snapshot: the
// serialized snapshot plus a SHA-256 over exactly those bytes. The
// checksum is what makes crash recovery *detectable* rather than
// best-effort — a checkpoint file torn mid-write (truncated tail,
// interleaved garbage) fails verification instead of resuming a run
// from silently wrong state.
type snapshotEnvelope struct {
	Version  int             `json:"version"`
	SHA256   string          `json:"sha256"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// EncodeSnapshotFile serializes snap into its durable envelope form:
// {"version":1,"sha256":"...","snapshot":{...}}.
func EncodeSnapshotFile(snap *Snapshot) ([]byte, error) {
	raw, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	return json.Marshal(snapshotEnvelope{
		Version:  SnapshotVersion,
		SHA256:   hex.EncodeToString(sum[:]),
		Snapshot: raw,
	})
}

// DecodeSnapshotFile parses an envelope produced by EncodeSnapshotFile,
// verifying the checksum before trusting any field of the snapshot.
// Undecodable bytes and checksum mismatches both return an error wrapping
// ErrCorruptSnapshot.
func DecodeSnapshotFile(data []byte) (*Snapshot, error) {
	var env snapshotEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	if len(env.Snapshot) == 0 || env.SHA256 == "" {
		return nil, fmt.Errorf("%w: missing snapshot or checksum", ErrCorruptSnapshot)
	}
	sum := sha256.Sum256(env.Snapshot)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return nil, fmt.Errorf("%w: checksum mismatch (torn write?)", ErrCorruptSnapshot)
	}
	snap := &Snapshot{}
	if err := json.Unmarshal(env.Snapshot, snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return snap, nil
}

// restoreArchive merges snapshot points into an Archive. A stored set is
// mutually non-dominated and insertion order never changes the archived
// set, so a front rebuilt into an empty archive is bit-identical to the
// snapshotted one.
func restoreArchive(arch *Archive, sps []SnapPoint) {
	arch.Merge(restorePoints(sps))
}
