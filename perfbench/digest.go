package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"

	"wsndse/internal/dse"
	"wsndse/internal/service"
)

// digester hashes a job's identity and output into a short, stable hex
// string: length-prefixed strings, little-endian integers and the exact
// bits of every objective, so any change to a front shows.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digester) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) point(config []int, objs []float64) {
	d.int(int64(len(config)))
	for _, g := range config {
		d.int(int64(g))
	}
	d.int(int64(len(objs)))
	for _, x := range objs {
		d.int(int64(math.Float64bits(x)))
	}
}

func (d *digester) points(front []dse.Point) {
	d.int(int64(len(front)))
	for _, p := range front {
		d.point(p.Config, p.Objs)
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

// jobDigest is the digest of {scenario, algorithm, seed, evaluated,
// infeasible, front} for a Manager job.
func jobDigest(f service.FrontResponse) string {
	d := newDigester()
	d.str(f.Scenario)
	d.str(f.Algorithm)
	d.int(f.Seed)
	d.int(int64(f.Evaluated))
	d.int(int64(f.Infeasible))
	d.int(int64(len(f.Front)))
	for _, p := range f.Front {
		d.point(p.Config, p.Objs)
	}
	return d.sum()
}

// goldenJSON holds the pass digests of every workload at defaultSeed.
// Regenerate with --write-golden perfbench/golden.json after a change
// that is meant to alter fronts.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed      int64               `json:"seed"`
	Workloads map[string][]string `json:"workloads"`
}

// loadGolden returns the committed digests of a workload's specs, or nil
// when the run's seed has none.
func loadGolden(name string, specs int, o options) ([]string, error) {
	if o.seed != defaultSeed || o.writeGolden != "" {
		return nil, nil
	}
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	d, ok := g.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("golden.json has no digests for %s", name)
	}
	if len(d) != specs {
		return nil, fmt.Errorf("golden.json has %d digests for %s, the workload has %d specs", len(d), name, specs)
	}
	return d, nil
}

// writeGolden records one workload's digests in the golden file at path,
// keeping the other workloads' entries.
func writeGolden(path, name string, digests []string) error {
	g := goldenFile{Seed: defaultSeed, Workloads: map[string][]string{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	for i, d := range digests {
		if d == "" {
			return fmt.Errorf("spec %d of %s has no verified digest", i, name)
		}
	}
	g.Workloads[name] = digests
	out, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
