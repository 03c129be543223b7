package scenario

import (
	"fmt"
	"math/rand"

	"wsndse/internal/app"
	"wsndse/internal/core"
	"wsndse/internal/dse"
	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

// Params is one decoded configuration of a scenario: the shared χ_mac
// point plus each node's χ_node. Raw nodes carry CR 1.
type Params struct {
	BeaconOrder     int
	SuperframeOrder int
	PayloadBytes    int // network payload; per-node overrides sit in the scenario
	CR              []float64
	MicroFreq       []units.Hertz
}

// Problem compiles a scenario into the DSE formulation: a design space
// whose genes are the shared MAC axes plus per-node CR/frequency axes
// (nodes contribute only the knobs they actually have — raw nodes have no
// CR gene), and materializers for both the analytical model and the
// packet-level simulator.
type Problem struct {
	Scenario Scenario
	Cal      *app.Calibration

	space  *dse.Space
	crGene []int // gene index of node i's CR axis, -1 if none
	fGene  []int // gene index of node i's frequency axis
}

// NewProblem validates the scenario and builds its design space in the
// interleaved layout: BO, SFO gap, payload, then each node's CR gene
// (if any) followed by its frequency gene.
func NewProblem(sc Scenario, cal *app.Calibration) (*Problem, error) {
	return newProblem(sc, cal, false)
}

// NewGroupedProblem is NewProblem in the grouped layout of the paper's
// §5 case study: BO, SFO gap, payload, then every node's CR gene, then
// every node's frequency gene. Both layouts span the same model; they
// differ only in gene order, and with it in the trajectory a seeded
// search takes.
func NewGroupedProblem(sc Scenario, cal *app.Calibration) (*Problem, error) {
	return newProblem(sc, cal, true)
}

func newProblem(sc Scenario, cal *app.Calibration, grouped bool) (*Problem, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if cal == nil {
		return nil, fmt.Errorf("scenario %q: nil calibration", sc.Name)
	}
	p := &Problem{
		Scenario: sc,
		Cal:      cal,
		space:    &dse.Space{},
		crGene:   make([]int, len(sc.Nodes)),
		fGene:    make([]int, len(sc.Nodes)),
	}
	p.space.Params = append(p.space.Params,
		dse.Parameter{Name: "BO", Values: intsToFloats(sc.BeaconOrders)},
		dse.Parameter{Name: "SFOgap", Values: intsToFloats(sc.SFOGaps)},
		dse.Parameter{Name: "payload", Values: intsToFloats(sc.Payloads)},
	)
	addCR := func(i int) {
		p.crGene[i] = -1
		if ns := sc.Nodes[i]; ns.explorableCR() {
			p.crGene[i] = len(p.space.Params)
			p.space.Params = append(p.space.Params, dse.Parameter{
				Name:   "cr:" + ns.Name,
				Values: append([]float64(nil), ns.CRs...),
			})
		}
	}
	addFreq := func(i int) {
		freqs := sc.Nodes[i].microFreqs()
		fVals := make([]float64, len(freqs))
		for j, f := range freqs {
			fVals[j] = float64(f)
		}
		p.fGene[i] = len(p.space.Params)
		p.space.Params = append(p.space.Params, dse.Parameter{
			Name:   "fuc:" + sc.Nodes[i].Name,
			Values: fVals,
		})
	}
	if grouped {
		for i := range sc.Nodes {
			addCR(i)
		}
		for i := range sc.Nodes {
			addFreq(i)
		}
	} else {
		for i := range sc.Nodes {
			addCR(i)
			addFreq(i)
		}
	}
	return p, nil
}

// Space returns the scenario's design space.
func (p *Problem) Space() *dse.Space { return p.space }

// Decode maps a configuration to scenario parameters. The SFO gene is
// relative (SFO = BO − gap, floored at 0), so every index combination is
// structurally valid.
func (p *Problem) Decode(c dse.Config) (Params, error) {
	if !p.space.Valid(c) {
		return Params{}, fmt.Errorf("scenario %q: invalid config %v", p.Scenario.Name, c)
	}
	sf := ieee.SuperframeWithGap(int(p.space.Value(c, 0)), int(p.space.Value(c, 1)))
	out := Params{
		BeaconOrder:     sf.BeaconOrder,
		SuperframeOrder: sf.SuperframeOrder,
		PayloadBytes:    int(p.space.Value(c, 2)),
		CR:              make([]float64, len(p.Scenario.Nodes)),
		MicroFreq:       make([]units.Hertz, len(p.Scenario.Nodes)),
	}
	for i := range p.Scenario.Nodes {
		out.CR[i] = 1 // raw nodes forward unmodified
		if g := p.crGene[i]; g >= 0 {
			out.CR[i] = p.space.Value(c, g)
		}
		out.MicroFreq[i] = units.Hertz(p.space.Value(c, p.fGene[i]))
	}
	return out, nil
}

// superframe builds the χ_mac superframe of a decoded configuration.
func (params Params) superframe() ieee.SuperframeConfig {
	return ieee.SuperframeConfig{
		BeaconOrder:     params.BeaconOrder,
		SuperframeOrder: params.SuperframeOrder,
	}
}

// Network materializes the configuration for the analytical model. Nodes
// with a payload override receive their own MAC view (same superframe,
// node-specific L_payload), so Ω, Ψ, the quanta floor and the Eq. 9
// service term all see the node's actual frames.
func (p *Problem) Network(params Params) (*core.Network, error) {
	sc := p.Scenario
	n := len(sc.Nodes)
	if len(params.CR) != n || len(params.MicroFreq) != n {
		return nil, fmt.Errorf("scenario %q: params cover %d/%d nodes", sc.Name, len(params.CR), n)
	}
	sf := params.superframe()
	base, err := core.NewGTSMac(sf, params.PayloadBytes, n)
	if err != nil {
		return nil, err
	}
	nodes := make([]*core.Node, n)
	var views []core.MAC
	for i, ns := range sc.Nodes {
		a, err := app.For(p.Cal, ns.Kind, params.CR[i])
		if err != nil {
			return nil, err
		}
		nodes[i] = &core.Node{
			Name:       ns.Name,
			Platform:   ns.Platform,
			App:        a,
			SampleFreq: ns.SampleFreq,
			MicroFreq:  params.MicroFreq[i],
		}
		if ns.PayloadBytes > 0 {
			view, err := core.NewGTSMac(sf, ns.PayloadBytes, n)
			if err != nil {
				return nil, err
			}
			if views == nil {
				views = make([]core.MAC, n)
			}
			views[i] = view
		}
	}
	return &core.Network{Nodes: nodes, MAC: base, NodeMACs: views, Theta: sc.Theta}, nil
}

// SimConfig materializes the configuration for the packet-level simulator
// under the scenario's traffic profile, with GTS allocations mirroring the
// model's per-node assignment (both sides size slots from the node's
// effective payload).
func (p *Problem) SimConfig(params Params, duration units.Seconds, seed int64) (sim.Config, error) {
	sc := p.Scenario
	net, err := p.Network(params)
	if err != nil {
		return sim.Config{}, err
	}
	sf := params.superframe()
	nodes := make([]sim.NodeConfig, len(net.Nodes))
	for i, n := range net.Nodes {
		payload := sc.Nodes[i].PayloadBytes
		if payload == 0 {
			payload = params.PayloadBytes
		}
		nodes[i] = sim.NodeConfig{
			Name:         n.Name,
			Platform:     n.Platform,
			App:          n.App,
			SampleFreq:   n.SampleFreq,
			MicroFreq:    n.MicroFreq,
			Slots:        sim.SlotsFor(sf, payload, float64(n.OutputRate())),
			PayloadBytes: sc.Nodes[i].PayloadBytes,
			Arrival:      sc.Nodes[i].Arrival,
			Link:         append([]sim.LinkPhase(nil), sc.Nodes[i].Link...),
		}
	}
	return sim.Config{
		Superframe:      sf,
		PayloadBytes:    params.PayloadBytes,
		Nodes:           nodes,
		Duration:        duration,
		Arrival:         sc.Traffic.Arrival,
		BlockSamples:    sc.Traffic.BlockSamples,
		PacketErrorRate: sc.Traffic.PacketErrorRate,
		Seed:            seed,
	}, nil
}

// DefaultSimConfig is SimConfig at the scenario's default duration and
// seed.
func (p *Problem) DefaultSimConfig(params Params) (sim.Config, error) {
	return p.SimConfig(params, p.Scenario.SimDuration, p.Scenario.SimSeed)
}

// evaluator is the three-objective model evaluator over the scenario:
// minimize (E_net [W], quality loss, delay_net [s]).
type evaluator struct{ p *Problem }

// Evaluator returns the scenario's model evaluator.
func (p *Problem) Evaluator() dse.Evaluator { return &evaluator{p: p} }

// NumObjectives returns 3.
func (e *evaluator) NumObjectives() int { return 3 }

// Evaluate runs the analytical model on the decoded configuration.
func (e *evaluator) Evaluate(c dse.Config) (dse.Objectives, error) {
	params, err := e.p.Decode(c)
	if err != nil {
		return nil, err
	}
	net, err := e.p.Network(params)
	if err != nil {
		return nil, err
	}
	ev, err := net.Evaluate()
	if err != nil {
		return nil, err
	}
	return dse.Objectives{float64(ev.Energy), ev.Quality, float64(ev.Delay)}, nil
}

// NominalConfig returns the mid-grid point of every axis — the scenario's
// "reasonable default" before any exploration.
func (p *Problem) NominalConfig() dse.Config {
	c := make(dse.Config, len(p.space.Params))
	for i, param := range p.space.Params {
		c[i] = len(param.Values) / 2
	}
	return c
}

// feasibleScanBudget bounds the random scan of FeasibleParams.
const feasibleScanBudget = 20000

// FeasibleConfig returns a deterministic feasible gene configuration of
// the scenario: the nominal mid-grid point when the model accepts it, else
// the first feasible point of a seeded random scan. Scenarios engineered
// to be wholly infeasible (a DenseGTS past the slot budget) return an
// error.
func (p *Problem) FeasibleConfig() (dse.Config, error) {
	eval := p.Evaluator()
	ok := func(c dse.Config) bool {
		if _, err := eval.Evaluate(c); err != nil {
			return false
		}
		_, err := p.Decode(c)
		return err == nil
	}
	if c := p.NominalConfig(); ok(c) {
		return c, nil
	}
	rng := rand.New(rand.NewSource(p.Scenario.SimSeed))
	for i := 0; i < feasibleScanBudget; i++ {
		if c := p.space.Random(rng); ok(c) {
			return append(dse.Config(nil), c...), nil
		}
	}
	return nil, fmt.Errorf("scenario %q: no feasible configuration in nominal point + %d samples",
		p.Scenario.Name, feasibleScanBudget)
}

// FeasibleParams is FeasibleConfig decoded to explicit per-node parameters.
func (p *Problem) FeasibleParams() (Params, error) {
	c, err := p.FeasibleConfig()
	if err != nil {
		return Params{}, err
	}
	return p.Decode(c)
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
