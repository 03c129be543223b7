package dse

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
)

// NSGA2Config parameterizes the genetic algorithm. Zero values select the
// documented defaults; out-of-domain values (negative sizes, probabilities
// outside [0,1]) are rejected by NSGA2 with a descriptive error rather
// than silently degenerating the search. Seed may be any value — every
// seed defines a valid deterministic run.
type NSGA2Config struct {
	PopulationSize int     `json:"population_size,omitempty"` // default 64; must be even and ≥ 4
	Generations    int     `json:"generations,omitempty"`     // default 50
	CrossoverProb  float64 `json:"crossover_prob,omitempty"`  // default 0.9
	MutationProb   float64 `json:"mutation_prob,omitempty"`   // per gene; default 1/len(genes)
	Seed           int64   `json:"seed,omitempty"`
	// Workers bounds the evaluation pool each generation's offspring
	// batch fans out over; <= 0 selects GOMAXPROCS. Results are
	// bit-identical at any worker count: variation is driven by a single
	// seeded RNG stream independent of evaluation scheduling, and points
	// enter the archive in offspring order.
	Workers int `json:"workers,omitempty"`
}

// validate rejects out-of-domain values before defaulting.
func (c NSGA2Config) validate() error {
	if c.PopulationSize < 0 {
		return fmt.Errorf("dse: NSGA-II population size %d is negative (use 0 for the default)", c.PopulationSize)
	}
	if c.Generations < 0 {
		return fmt.Errorf("dse: NSGA-II generation count %d is negative (use 0 for the default)", c.Generations)
	}
	if c.CrossoverProb < 0 || c.CrossoverProb > 1 {
		return fmt.Errorf("dse: NSGA-II crossover probability %g out of [0,1]", c.CrossoverProb)
	}
	if c.MutationProb < 0 || c.MutationProb > 1 {
		return fmt.Errorf("dse: NSGA-II mutation probability %g out of [0,1]", c.MutationProb)
	}
	return nil
}

// Validate is the exported domain check, for callers (the exploration
// service) that want to reject a bad configuration before committing a
// worker to it. It accepts everything NSGA2 itself accepts: zero values
// select defaults, and an explicit population size must be even and ≥ 4.
func (c NSGA2Config) Validate() error {
	if err := c.validate(); err != nil {
		return err
	}
	if c.PopulationSize != 0 && (c.PopulationSize < 4 || c.PopulationSize%2 != 0) {
		return fmt.Errorf("dse: population size %d must be even and ≥ 4", c.PopulationSize)
	}
	return nil
}

func (c NSGA2Config) withDefaults(genes int) NSGA2Config {
	if c.PopulationSize == 0 {
		c.PopulationSize = 64
	}
	if c.Generations == 0 {
		c.Generations = 50
	}
	if c.CrossoverProb == 0 {
		c.CrossoverProb = 0.9
	}
	if c.MutationProb == 0 {
		c.MutationProb = 1 / float64(genes)
	}
	return c
}

// NSGA2 runs the elitist non-dominated-sorting genetic algorithm of Deb et
// al. — the "genetic algorithms (which have already been used in the WSN
// domain)" the paper drives with its model (§5.2). The returned front is
// the non-dominated set over every point evaluated during the run (in
// lexicographic objective order), not merely the final population.
//
// Each generation's offspring population is produced sequentially from the
// seeded RNG (tournament selection only reads the parent generation, so no
// offspring depends on a sibling's evaluation) and then evaluated in one
// batch across cfg.Workers. The generation loop runs on pre-sized, pooled
// buffers — gene scratch, the parent∪offspring union, the fast
// non-dominated sort's workspace — so steady-state generations are
// allocation-free: after the memo cache saturates, a generation performs
// zero heap allocations (TestNSGA2GenerationSteadyStateZeroAllocs pins
// this).
func NSGA2(space *Space, eval Evaluator, cfg NSGA2Config) (*Result, error) {
	return NSGA2Opts(space, eval, cfg, Options{})
}

// NSGA2Opts is NSGA2 under run Options: cancellation, progress and
// checkpointing hook in at generation boundaries only, so the
// allocation-free generation loop is untouched (a run with zero Options is
// bit-identical to NSGA2). On cancellation the partial Result — the front
// over everything evaluated so far — is returned together with ctx.Err().
func NSGA2Opts(space *Space, eval Evaluator, cfg NSGA2Config, opts Options) (*Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(len(space.Params))
	if cfg.PopulationSize < 4 || cfg.PopulationSize%2 != 0 {
		return nil, fmt.Errorf("dse: population size %d must be even and ≥ 4", cfg.PopulationSize)
	}
	rng, src := newSearchRand(cfg.Seed)
	pe := NewParallelEvaluator(eval, cfg.Workers)
	var arch Archive

	r := newNSGA2Run(space, pe, cfg)
	startGen := 0
	if opts.Resume != nil {
		if err := r.restore(opts.Resume, src, &arch); err != nil {
			return nil, err
		}
		startGen = opts.Resume.Step
	} else {
		// Seeds fill at most half the initial population: transferred
		// fronts are often as large as the population itself, and letting
		// them displace every random individual kills the exploration that
		// finds regions the donor never reached.
		r.seed(rng, &arch, opts.validSeeds(space, (cfg.PopulationSize+1)/2))
	}
	for gen := startGen; gen < cfg.Generations; gen++ {
		r.generation(rng, &arch)
		err := opts.boundary("nsga2", gen+1, cfg.Generations, pe,
			func() []Point { return arch.Points() },
			func() *Snapshot { return r.snapshot(src, &arch) })
		if err != nil {
			return pe.result(arch.Points()), err
		}
	}
	return pe.result(arch.Points()), nil
}

// snapshot captures the run at a generation boundary: the survivors with
// their carried union ranking, the archive, and the RNG state. Everything
// is deep-copied — the run keeps recycling its buffers after the call.
func (r *nsga2Run) snapshot(src *splitMix64, arch *Archive) *Snapshot {
	n := r.cfg.PopulationSize
	return &Snapshot{
		RNG:        src.state,
		Population: snapPoints(r.pop),
		Ranks:      append([]int(nil), r.ranks[:n]...),
		Crowd:      append(InfFloats(nil), r.crowd[:n]...),
		Archive:    snapPoints(arch.Points()),
	}
}

// restore rebuilds the run from a snapshot: population, carried ranking,
// archive and RNG state come back bit-exactly, and the runtime takes over
// the snapshot's totals and primes its memo table with the snapshot's
// points.
func (r *nsga2Run) restore(snap *Snapshot, src *splitMix64, arch *Archive) error {
	if err := r.pe.resume("nsga2", r.space, snap); err != nil {
		return err
	}
	n := r.cfg.PopulationSize
	if len(snap.Population) != n {
		return fmt.Errorf("dse: snapshot population %d does not match configured size %d", len(snap.Population), n)
	}
	if len(snap.Ranks) != n || len(snap.Crowd) != n {
		return fmt.Errorf("dse: snapshot ranking covers %d/%d points", len(snap.Ranks), n)
	}
	if snap.Step > r.cfg.Generations {
		return fmt.Errorf("dse: snapshot at generation %d is past the configured %d", snap.Step, r.cfg.Generations)
	}
	r.pop = append(r.pop[:0], restorePoints(snap.Population)...)
	copy(r.ranks, snap.Ranks)
	copy(r.crowd, snap.Crowd)
	restoreArchive(arch, snap.Archive)
	src.state = snap.RNG
	return nil
}

// nsga2Run owns every buffer of the generation loop, pre-sized so the
// steady state allocates nothing: gene scratch for one offspring batch,
// the parent∪offspring union, rank/crowding arrays for both, the fast
// sort's workspace and the environmental-selection permutation.
type nsga2Run struct {
	space *Space
	pe    *ParallelEvaluator
	cfg   NSGA2Config

	pop       []Point   // current population
	ranks     []int     // pop's ranks, carried from the union ranking
	crowd     []float64 // pop's crowding, carried from the union ranking
	children  []Config  // reusable gene buffers, one per offspring
	offspring []Point   // offspring evaluation results
	union     []Point   // pop ∪ offspring
	selIdx    []int     // environmental-selection permutation
	ws        sortWorkspace
}

func newNSGA2Run(space *Space, pe *ParallelEvaluator, cfg NSGA2Config) *nsga2Run {
	n := cfg.PopulationSize
	r := &nsga2Run{
		space:     space,
		pe:        pe,
		cfg:       cfg,
		pop:       make([]Point, 0, n),
		ranks:     make([]int, n),
		crowd:     make([]float64, n),
		children:  make([]Config, n),
		offspring: make([]Point, n),
		union:     make([]Point, 0, 2*n),
		selIdx:    make([]int, 2*n),
	}
	for i := range r.children {
		r.children[i] = make(Config, len(space.Params))
	}
	return r
}

// seed builds and evaluates the initial population and ranks it for the
// first generation's tournaments. seeds (already validated and deduped,
// at most half of PopulationSize) fill the leading slots; the remainder
// is drawn uniformly. Seeded slots consume no RNG draws, so the unseeded
// tail — and with an empty seed list the whole run — matches the plain
// entry point draw for draw.
func (r *nsga2Run) seed(rng *rand.Rand, arch *Archive, seeds []Config) {
	for i, s := range seeds {
		copy(r.children[i], s)
	}
	for i := len(seeds); i < len(r.children); i++ {
		r.space.RandomInto(rng, r.children[i])
	}
	r.pop = r.pe.EvaluateBatchInto(r.children, r.pop)
	arch.Merge(r.pop)
	ranks, crowd := r.ws.rankAndCrowd(r.pop)
	copy(r.ranks, ranks)
	copy(r.crowd, crowd)
}

// generation advances the population by one NSGA-II step: binary
// tournaments pick parents, uniform crossover plus per-gene mutation
// produce offspring, and environmental selection keeps the best
// PopulationSize points of parents ∪ offspring by (rank, crowding). The
// union is ranked exactly once; the survivors carry their union rank and
// crowding into the next generation's tournaments, as in Deb's original
// formulation.
func (r *nsga2Run) generation(rng *rand.Rand, arch *Archive) {
	n := r.cfg.PopulationSize
	for i := 0; i < n; i++ {
		a := tournament(rng, r.pop, r.ranks, r.crowd)
		b := tournament(rng, r.pop, r.ranks, r.crowd)
		child := r.children[i]
		if rng.Float64() < r.cfg.CrossoverProb {
			r.space.CrossoverInto(rng, child, r.pop[a].Config, r.pop[b].Config)
		} else {
			copy(child, r.pop[a].Config)
		}
		r.space.MutateInPlace(rng, child, r.cfg.MutationProb)
	}
	r.offspring = r.pe.EvaluateBatchInto(r.children, r.offspring)
	arch.Merge(r.offspring)

	// Elitist environmental selection over parents ∪ offspring, reusing
	// the union's ranking for the survivors.
	r.union = r.union[:0]
	r.union = append(r.union, r.pop...)
	r.union = append(r.union, r.offspring...)
	uRanks, uCrowd := r.ws.rankAndCrowd(r.union)
	idx := r.selIdx[:len(r.union)]
	for i := range idx {
		idx[i] = i
	}
	// Rank ascending, then crowding descending, then index: a total order,
	// so selection is deterministic even among exact (rank, crowding) ties.
	slices.SortFunc(idx, func(a, b int) int {
		if uRanks[a] != uRanks[b] {
			return uRanks[a] - uRanks[b]
		}
		if c := cmp.Compare(uCrowd[b], uCrowd[a]); c != 0 {
			return c
		}
		return a - b
	})
	r.pop = r.pop[:n]
	for i := 0; i < n; i++ {
		r.pop[i] = r.union[idx[i]]
		r.ranks[i] = uRanks[idx[i]]
		r.crowd[i] = uCrowd[idx[i]]
	}
}

// tournament returns the index of the binary-tournament winner: lower rank
// wins, ties broken by larger crowding distance. Exact (rank, crowding)
// ties flip a coin from the run's seeded rng — the old `crowd[a] >=
// crowd[b]` rule always handed ties to the first draw, a systematic
// selection bias toward earlier tournament positions. Runs stay
// deterministic per seed; the coin is only drawn on exact ties.
func tournament(rng *rand.Rand, pop []Point, ranks []int, crowd []float64) int {
	a, b := rng.Intn(len(pop)), rng.Intn(len(pop))
	switch {
	case ranks[a] < ranks[b]:
		return a
	case ranks[b] < ranks[a]:
		return b
	case crowd[a] > crowd[b]:
		return a
	case crowd[b] > crowd[a]:
		return b
	}
	if rng.Intn(2) == 0 {
		return a
	}
	return b
}
