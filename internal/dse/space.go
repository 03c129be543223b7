// Package dse provides the multi-objective design-space exploration layer:
// discrete design spaces, Pareto machinery (dominance, fronts, crowding,
// hypervolume, coverage), and the search algorithms the paper plugs its
// model into — a genetic algorithm (NSGA-II), multi-objective simulated
// annealing (after Nam & Park [27]), plus exhaustive and random search as
// references.
//
// Everything is deterministic under a caller-provided seed, and evaluators
// signal constraint violations (infeasible configurations) so the
// algorithms can apply constrained dominance instead of aborting.
//
// # Batch-evaluation runtime
//
// Every search algorithm runs on ParallelEvaluator, a bounded worker pool
// over one mutex-guarded memo table. Candidate configurations are
// produced sequentially from the algorithm's seeded RNG and handed to
// EvaluateBatch, which fans them across the pool and returns points in
// input order; each distinct configuration is counted once no matter how
// many workers race for it, so Result.Evaluated keeps meaning distinct
// points.
//
// # Determinism guarantees
//
// Evaluators must be pure functions of the configuration. Under that
// assumption, fronts and the Evaluated/Infeasible counts are bit-identical
// at every worker count (workers = 1 is the sequential path): NSGA-II
// derives each offspring population from the parent generation alone and
// archives it in offspring order, MOSA gives each chain a seed mixed from
// (Seed, chain index) and a private guiding archive and merges the chain
// archives in chain order, and exhaustive/random search archive their
// batches in enumeration/draw order. Archive merging is additionally
// order-independent at the objective level: the set of non-dominated
// objective vectors does not depend on insertion order.
//
// # Run options: cancellation, progress, checkpoint/resume
//
// Every algorithm runs under an Options value (NSGA2Opts, MOSAOpts,
// ExhaustiveOpts, RandomSearchOpts) whose hooks run at boundaries only — the end of a generation (NSGA-II), a chain
// segment (MOSA) or an evaluation batch (exhaustive/random) — so the
// allocation-free hot loops never see them and a zero Options run is
// bit-identical to the plain NSGA2/MOSA entry point. Cancellation returns the
// partial Result alongside ctx.Err(); StatsSink receives step counters,
// the live front and memo-cache counters; CheckpointFunc receives self-contained, JSON-
// serializable Snapshots. The search RNG draws from a SplitMix64
// rand.Source64 so its complete state is a single uint64, which is what
// makes a resumed run (Options.Resume) replay the uninterrupted
// trajectory bit for bit.
package dse

import (
	"fmt"
	"math/rand"
)

// Parameter is one discrete design knob: a name and its admissible values.
// Values carry float64 payloads; evaluators interpret them (they may be
// indices, frequencies, ratios...).
type Parameter struct {
	Name   string
	Values []float64
}

// Space is a cartesian product of parameters.
type Space struct {
	Params []Parameter
}

// Validate checks that every parameter has at least one value.
func (s *Space) Validate() error {
	if len(s.Params) == 0 {
		return fmt.Errorf("dse: empty design space")
	}
	for i, p := range s.Params {
		if len(p.Values) == 0 {
			return fmt.Errorf("dse: parameter %d (%s) has no values", i, p.Name)
		}
	}
	return nil
}

// Size returns the number of points in the space as a float64 (spaces
// routinely exceed int ranges; the case study's has ~10¹¹ points).
func (s *Space) Size() float64 {
	size := 1.0
	for _, p := range s.Params {
		size *= float64(len(p.Values))
	}
	return size
}

// Config is one design point: an index into each parameter's value list.
type Config []int

// Clone copies the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Key returns a compact map key for memoization in string-keyed containers.
// The batch runtime's memo cache uses the allocation-free Hash/Equal pair
// instead; Key remains for callers that want a set of configurations.
func (c Config) Key() string {
	b := make([]byte, 0, len(c)*3)
	for _, v := range c {
		b = append(b, byte(v), byte(v>>8), '|')
	}
	return string(b)
}

// Hash packs the gene indices into a 64-bit FNV-1a hash without
// allocating — the memo-cache key of the batch runtime. Distinct
// configurations may collide (the space can exceed 2⁶⁴ points); collisions
// are resolved by Equal, never by trusting the hash alone.
func (c Config) Hash() uint64 {
	h := uint64(14695981039346656037)
	for _, v := range c {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// Equal reports gene-wise equality.
func (c Config) Equal(d Config) bool {
	if len(c) != len(d) {
		return false
	}
	for i, v := range c {
		if v != d[i] {
			return false
		}
	}
	return true
}

// Value resolves parameter i of the configuration.
func (s *Space) Value(c Config, i int) float64 {
	return s.Params[i].Values[c[i]]
}

// Valid reports whether c indexes the space correctly.
func (s *Space) Valid(c Config) bool {
	if len(c) != len(s.Params) {
		return false
	}
	for i, v := range c {
		if v < 0 || v >= len(s.Params[i].Values) {
			return false
		}
	}
	return true
}

// Random draws a uniform configuration.
func (s *Space) Random(rng *rand.Rand) Config {
	c := make(Config, len(s.Params))
	s.RandomInto(rng, c)
	return c
}

// RandomInto draws a uniform configuration into dst (length = parameter
// count) — the allocation-free form the search generation loops run on.
// The rng draw sequence is identical to Random's.
func (s *Space) RandomInto(rng *rand.Rand, dst Config) {
	for i := range dst {
		dst[i] = rng.Intn(len(s.Params[i].Values))
	}
}

// Mutate flips each gene with the given probability to a uniformly chosen
// value, returning a new configuration.
func (s *Space) Mutate(rng *rand.Rand, c Config, perGeneProb float64) Config {
	out := c.Clone()
	s.MutateInPlace(rng, out, perGeneProb)
	return out
}

// MutateInPlace is Mutate on a caller-owned configuration: each gene flips
// with the given probability to a uniformly chosen value. The rng draw
// sequence is identical to Mutate's.
func (s *Space) MutateInPlace(rng *rand.Rand, c Config, perGeneProb float64) {
	for i := range c {
		if rng.Float64() < perGeneProb {
			c[i] = rng.Intn(len(s.Params[i].Values))
		}
	}
}

// Neighbor nudges exactly one randomly chosen gene by ±1 (wrapping at the
// ends), the canonical simulated-annealing move on a discrete grid.
func (s *Space) Neighbor(rng *rand.Rand, c Config) Config {
	out := c.Clone()
	s.neighborInPlace(rng, out)
	return out
}

// NeighborInto writes the ±1 single-gene neighbour of src into dst (equal
// lengths, dst must not alias src's backing array if src must survive).
// The rng draw sequence is identical to Neighbor's.
func (s *Space) NeighborInto(rng *rand.Rand, dst, src Config) {
	copy(dst, src)
	s.neighborInPlace(rng, dst)
}

func (s *Space) neighborInPlace(rng *rand.Rand, c Config) {
	i := rng.Intn(len(c))
	n := len(s.Params[i].Values)
	if n == 1 {
		return
	}
	if rng.Intn(2) == 0 {
		c[i] = (c[i] + 1) % n
	} else {
		c[i] = (c[i] - 1 + n) % n
	}
}

// Crossover performs uniform crossover between two parents.
func (s *Space) Crossover(rng *rand.Rand, a, b Config) Config {
	out := make(Config, len(a))
	s.CrossoverInto(rng, out, a, b)
	return out
}

// CrossoverInto performs uniform crossover between two parents into dst
// (all equal lengths). The rng draw sequence is identical to Crossover's.
func (s *Space) CrossoverInto(rng *rand.Rand, dst, a, b Config) {
	for i := range dst {
		if rng.Intn(2) == 0 {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

// Iterate enumerates the whole space in lexicographic order, stopping when
// fn returns false. Only sensible for small (test-sized) spaces.
func (s *Space) Iterate(fn func(Config) bool) {
	c := make(Config, len(s.Params))
	for {
		if !fn(c) {
			return
		}
		// Odometer increment.
		i := len(c) - 1
		for i >= 0 {
			c[i]++
			if c[i] < len(s.Params[i].Values) {
				break
			}
			c[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}
