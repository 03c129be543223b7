package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// resumeRun is one algorithm's entry point at fixed, small settings.
type resumeRun struct {
	name string
	run  func(opts Options) (*Result, error)
}

// smallRuns returns the four algorithms over one space that spans two
// exhaustive/random batches, so every algorithm takes a mid-run
// checkpoint, yet small enough that a resume costs about a millisecond.
func smallRuns() []resumeRun {
	s := testSpace(12, 10, 10)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	return []resumeRun{
		{"nsga2", func(opts Options) (*Result, error) {
			return NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 8, Generations: 4, Seed: 3, Workers: 2}, opts)
		}},
		{"mosa", func(opts Options) (*Result, error) {
			return MOSAOpts(s, eval, MOSAConfig{Iterations: 600, Restarts: 2, Seed: 3, Workers: 2}, opts)
		}},
		{"exhaustive", func(opts Options) (*Result, error) {
			return ExhaustiveOpts(s, eval, 10000, 2, opts)
		}},
		{"random", func(opts Options) (*Result, error) {
			return RandomSearchOpts(s, eval, 1500, 3, 2, opts)
		}},
	}
}

// midRunSnapshot returns the last checkpoint a full run of r takes.
func midRunSnapshot(t testing.TB, r resumeRun) *Snapshot {
	t.Helper()
	var snap *Snapshot
	if _, err := r.run(captureLatest(&snap, 1)); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatalf("%s: no checkpoint taken", r.name)
	}
	return snap
}

// eachPoint applies fn to every point a snapshot carries.
func eachPoint(s *Snapshot, fn func(*SnapPoint)) {
	for i := range s.Population {
		fn(&s.Population[i])
	}
	for i := range s.Archive {
		fn(&s.Archive[i])
	}
	for i := range s.Chains {
		fn(&s.Chains[i].Cur)
		for j := range s.Chains[i].Archive {
			fn(&s.Chains[i].Archive[j])
		}
	}
}

// shortObjs truncates every feasible point's objectives to length 1.
func shortObjs(s *Snapshot) *Snapshot {
	s = s.Clone()
	eachPoint(s, func(sp *SnapPoint) {
		if sp.Feasible {
			sp.Objs = sp.Objs[:1]
		}
	})
	return s
}

// TestResumeRejectsObjectiveCountMismatch pins the resume path's
// objective check on every algorithm: a snapshot whose feasible points
// carry the wrong number of objectives, or whose infeasible points carry
// any, is refused with an error before evaluation instead of panicking
// inside the archive's dominance test.
func TestResumeRejectsObjectiveCountMismatch(t *testing.T) {
	for _, r := range smallRuns() {
		t.Run(r.name, func(t *testing.T) {
			snap := midRunSnapshot(t, r)
			if _, err := r.run(Options{Resume: snap.Clone()}); err != nil {
				t.Fatalf("intact snapshot refused: %v", err)
			}
			_, err := r.run(Options{Resume: shortObjs(snap)})
			if err == nil || !strings.Contains(err.Error(), "has 1 objectives, evaluator has 2") {
				t.Fatalf("short objectives: err = %v", err)
			}
			marked := snap.Clone()
			eachPoint(marked, func(sp *SnapPoint) {
				if sp.Feasible {
					sp.Feasible = false
				}
			})
			if _, err := r.run(Options{Resume: marked}); err == nil || !strings.Contains(err.Error(), "carries objectives") {
				t.Fatalf("infeasible point with objectives: err = %v", err)
			}
		})
	}
}

// FuzzDecodeSnapshotFile fuzzes the checkpoint trust boundary. Each input
// is tried as a durable snapshot file and, since mutated envelopes almost
// never keep a valid checksum, also as the snapshot body of a freshly
// checksummed envelope. Decoding never panics; accepted bytes round-trip
// (encode then decode yields the same snapshot, compared by canonical
// encoding because JSON does not distinguish empty from absent slices);
// and resuming every algorithm from an accepted snapshot — relabelled as
// each algorithm in turn — returns a result or an error, never a panic.
func FuzzDecodeSnapshotFile(f *testing.F) {
	runs := smallRuns()
	for _, r := range runs {
		snap := midRunSnapshot(f, r)
		for _, s := range []*Snapshot{snap, shortObjs(snap)} {
			file, err := EncodeSnapshotFile(s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(file)
			raw, err := json.Marshal(s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotFile(t, runs, data)
		var body bytes.Buffer
		if json.Compact(&body, data) == nil {
			sum := sha256.Sum256(body.Bytes())
			file, err := json.Marshal(snapshotEnvelope{
				Version:  SnapshotVersion,
				SHA256:   hex.EncodeToString(sum[:]),
				Snapshot: body.Bytes(),
			})
			if err == nil {
				checkSnapshotFile(t, runs, file)
			}
		}
	})
}

func checkSnapshotFile(t *testing.T, runs []resumeRun, data []byte) {
	snap, err := DecodeSnapshotFile(data)
	if err != nil {
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("decode error does not wrap ErrCorruptSnapshot: %v", err)
		}
		return
	}
	enc, err := EncodeSnapshotFile(snap)
	if err != nil {
		t.Fatalf("accepted snapshot does not encode: %v", err)
	}
	back, err := DecodeSnapshotFile(enc)
	if err != nil {
		t.Fatalf("re-encoded snapshot does not decode: %v", err)
	}
	again, err := EncodeSnapshotFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, again) {
		t.Fatalf("snapshot did not round-trip:\n%s\nvs\n%s", enc, again)
	}
	for _, r := range runs {
		s := back.Clone()
		s.Algorithm = r.name
		if res, err := r.run(Options{Resume: s}); err == nil && res == nil {
			t.Fatalf("%s: resume returned neither a result nor an error", r.name)
		}
	}
}
