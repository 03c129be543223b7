// Package xcheck cross-validates the analytical model against the
// packet-level simulator over generated scenario populations. For a
// scenario it picks a deterministic feasible configuration, evaluates it
// through three independent implementations — the reference model
// evaluator, the compiled lookup-table pipeline, and the discrete-event
// simulator — and fails when they disagree beyond tolerance.
//
// Two different notions of "agree" apply:
//
//   - Compiled vs reference model: bit-identical. The compiled pipeline is
//     an algebraic transformation of the same equations, so any difference
//     at all is a bug.
//   - Model vs simulator: within tolerance, inside the model's validity
//     envelope. The analytical model assumes uniform arrivals (§4.2), a
//     loss-free channel and a static topology; Check therefore normalizes
//     the simulation to that envelope (uniform arrivals, PER = 0, link
//     schedules suppressed) before comparing. Scenario-native traffic and
//     link schedules stay exercised by the simulator's own tests — here
//     the question is strictly whether model and simulator implement the
//     same superframe physics.
//
// Tolerance rationale: the paper reports ≤ 1.74 % node-energy error
// between model and device-level simulation (Figure 3); the combined
// Eq. 8 network metric accumulates per-node error and the idle/ramp
// bookkeeping differs slightly between the two implementations, so
// DefaultTolerance allows 10 % relative energy error — loose enough to be
// seed-robust, tight enough that a unit slip (mW vs W, a slot
// mis-assignment, a missing guard time) trips it by orders of magnitude.
// The Eq. 9 delay is a worst-case bound, not an estimate: the simulator's
// measured maximum must stay below it (a small slack absorbs boundary
// effects of finite runs), and a measured delay above the bound means one
// side's superframe arithmetic is wrong.
package xcheck

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"wsndse/internal/app"
	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/dse"
	"wsndse/internal/numeric"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

// Tolerance bounds acceptable model-vs-simulator disagreement.
type Tolerance struct {
	// EnergyRelPct is the maximum relative error (percent) between the
	// model's combined E_net and the same Eq. 8 combination of simulated
	// per-node powers.
	EnergyRelPct float64
	// DelaySlackPct lets the simulator's measured per-node maximum delay
	// exceed the Eq. 9 worst-case bound by at most this fraction
	// (percent) before the bound counts as violated.
	DelaySlackPct float64
	// RequireStable fails configurations whose simulated queues grow
	// without bound. Inside the validity envelope a model-feasible
	// configuration must be sim-stable; instability is a disagreement.
	RequireStable bool
}

// DefaultTolerance is the tolerance used by the test-suite sweeps. See the
// package comment for the rationale behind each number.
func DefaultTolerance() Tolerance {
	return Tolerance{EnergyRelPct: 10, DelaySlackPct: 5, RequireStable: true}
}

// Report is the outcome of cross-checking one scenario at one
// configuration.
type Report struct {
	Scenario    string
	Fingerprint string
	Params      scenario.Params

	ModelEnergy  units.Watts // Eq. 8 combined E_net from the model
	SimEnergy    units.Watts // same combination over simulated node powers
	EnergyErrPct float64

	// DelayWorstPct is the worst node's measured-max-delay as a
	// percentage of its Eq. 9 bound (100 = exactly at the bound).
	DelayWorstPct float64
	Stable        bool

	// Failures lists every tolerance violation; empty means the
	// implementations agree.
	Failures []string
}

// Err folds the report into an error, nil when every check passed.
func (r *Report) Err() error {
	if len(r.Failures) == 0 {
		return nil
	}
	return fmt.Errorf("xcheck %s (fingerprint %.12s): %s",
		r.Scenario, r.Fingerprint, strings.Join(r.Failures, "; "))
}

// envelope normalizes a simulation config to the model's validity
// envelope: uniform arrivals, loss-free channel, static topology.
func envelope(cfg sim.Config) sim.Config {
	cfg.Arrival = sim.ArrivalUniform
	cfg.BlockSamples = 0
	cfg.PacketErrorRate = 0
	for i := range cfg.Nodes {
		cfg.Nodes[i].Arrival = sim.ArrivalUniform
		cfg.Nodes[i].Link = nil
	}
	return cfg
}

// Check cross-validates one scenario at the given gene configuration. The
// simulation runs at the scenario's default duration and seed.
func Check(p *scenario.Problem, cfg dse.Config, tol Tolerance) (*Report, error) {
	params, err := p.Decode(cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Scenario:    p.Scenario.Name,
		Fingerprint: p.Scenario.Fingerprint(),
		Params:      params,
	}

	// Gate 1 — compiled pipeline vs reference evaluator: bit-identical.
	refObjs, err := p.Evaluator().Evaluate(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: reference evaluator: %w", r.Scenario, err)
	}
	comp, err := p.Compile()
	if err != nil {
		return nil, fmt.Errorf("scenario %q: compile: %w", r.Scenario, err)
	}
	compObjs, err := comp.Evaluator().Evaluate(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: compiled evaluator: %w", r.Scenario, err)
	}
	for i := range refObjs {
		if refObjs[i] != compObjs[i] {
			r.Failures = append(r.Failures, fmt.Sprintf(
				"compiled objective %d = %v, reference = %v (must be bit-identical)",
				i, compObjs[i], refObjs[i]))
		}
	}

	// Gate 2 — model vs simulator, inside the validity envelope.
	net, err := p.Network(params)
	if err != nil {
		return nil, err
	}
	ev, err := net.Evaluate()
	if err != nil {
		return nil, fmt.Errorf("scenario %q: model evaluation: %w", r.Scenario, err)
	}
	simCfg, err := p.SimConfig(params, p.Scenario.SimDuration, p.Scenario.SimSeed)
	if err != nil {
		return nil, err
	}
	simRes, err := sim.Run(envelope(simCfg))
	if err != nil {
		return nil, fmt.Errorf("scenario %q: simulation: %w", r.Scenario, err)
	}

	r.Stable = simRes.Stable
	if tol.RequireStable && !simRes.Stable {
		r.Failures = append(r.Failures,
			"model-feasible configuration is unstable in simulation")
	}

	powers := make([]float64, len(simRes.Nodes))
	for i, n := range simRes.Nodes {
		powers[i] = float64(n.Power.Total)
	}
	r.ModelEnergy = ev.Energy
	r.SimEnergy = units.Watts(core.Combine(powers, p.Scenario.Theta))
	r.EnergyErrPct = numeric.RelErr(float64(r.ModelEnergy), float64(r.SimEnergy))
	if r.EnergyErrPct > tol.EnergyRelPct {
		r.Failures = append(r.Failures, fmt.Sprintf(
			"energy: model %.6g W vs sim %.6g W — %.2f%% > %.2f%% tolerance",
			float64(r.ModelEnergy), float64(r.SimEnergy), r.EnergyErrPct, tol.EnergyRelPct))
	}

	for i, n := range simRes.Nodes {
		if n.Delay.Count == 0 {
			continue
		}
		bound := ev.PerNodeDelay[i]
		if bound <= 0 {
			continue
		}
		pct := float64(n.Delay.Max) / bound * 100
		if pct > r.DelayWorstPct {
			r.DelayWorstPct = pct
		}
		if pct > 100+tol.DelaySlackPct {
			r.Failures = append(r.Failures, fmt.Sprintf(
				"delay: node %s measured max %.6g s exceeds Eq.9 bound %.6g s by %.1f%%",
				n.Name, float64(n.Delay.Max), bound, pct-100))
		}
	}
	return r, nil
}

// CheckScenario cross-validates one scenario at its deterministic feasible
// configuration.
func CheckScenario(sc scenario.Scenario, cal *app.Calibration, tol Tolerance) (*Report, error) {
	p, err := scenario.NewProblem(sc, cal)
	if err != nil {
		return nil, err
	}
	cfg, err := p.FeasibleConfig()
	if err != nil {
		return nil, err
	}
	return Check(p, cfg, tol)
}

// SweepConfig parameterizes a population sweep.
type SweepConfig struct {
	// Names selects the scenarios; empty means every registered scenario.
	Names []string
	// Sample bounds how many scenarios are checked: a seeded uniform
	// sample without replacement. 0 checks all of Names.
	Sample int
	// Seed drives the sample selection (not the simulations, which use
	// each scenario's own seed).
	Seed int64
	// Workers bounds the parallel checks; 0 means GOMAXPROCS.
	Workers int
	Cal     *app.Calibration
	Tol     Tolerance
}

// SweepResult aggregates a population sweep.
type SweepResult struct {
	Reports []*Report // in checked-name order
	Checked int
	Failed  int
	// MaxEnergyErrPct and MaxDelayPct are the worst observations across
	// the sweep — the numbers to watch drifting toward the tolerance.
	MaxEnergyErrPct float64
	MaxDelayPct     float64
}

// Err returns an error naming every failed scenario, nil when the
// population agrees.
func (r *SweepResult) Err() error {
	var msgs []string
	for _, rep := range r.Reports {
		if err := rep.Err(); err != nil {
			msgs = append(msgs, err.Error())
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("%d/%d scenarios failed cross-validation:\n%s",
		r.Failed, r.Checked, strings.Join(msgs, "\n"))
}

// Sweep cross-validates a (sampled) scenario population in parallel. The
// sample is deterministic in cfg.Seed, and results are ordered by scenario
// name regardless of worker interleaving.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	names := cfg.Names
	if len(names) == 0 {
		for _, s := range scenario.List() {
			names = append(names, s.Name)
		}
	} else {
		names = append([]string(nil), names...)
	}
	sort.Strings(names)
	if cfg.Sample > 0 && cfg.Sample < len(names) {
		rng := rand.New(rand.NewSource(cfg.Seed))
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		names = names[:cfg.Sample]
		sort.Strings(names)
	}
	cal := cfg.Cal
	if cal == nil {
		cal = casestudy.DefaultCalibration()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}

	reports := make([]*Report, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sc, ok := scenario.Lookup(names[i])
				if !ok {
					errs[i] = fmt.Errorf("scenario %q not registered", names[i])
					continue
				}
				reports[i], errs[i] = CheckScenario(sc, cal, cfg.Tol)
			}
		}()
	}
	for i := range names {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	res := &SweepResult{Reports: reports, Checked: len(names)}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("checking %s: %w", names[i], err)
		}
		rep := reports[i]
		if len(rep.Failures) > 0 {
			res.Failed++
		}
		if rep.EnergyErrPct > res.MaxEnergyErrPct {
			res.MaxEnergyErrPct = rep.EnergyErrPct
		}
		if rep.DelayWorstPct > res.MaxDelayPct {
			res.MaxDelayPct = rep.DelayWorstPct
		}
	}
	return res, nil
}
