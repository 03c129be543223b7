package casestudy

import (
	"fmt"

	"wsndse/internal/app"
	"wsndse/internal/core"
	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

// Params is one complete configuration χ = (χ_mac, χ_node⁽¹⁾…χ_node⁽ᴺ⁾) of
// the case study. Node i runs app.DefaultKinds(N)[i].
type Params struct {
	BeaconOrder     int           // BCO
	SuperframeOrder int           // SFO
	PayloadBytes    int           // L_payload
	CR              []float64     // per node
	MicroFreq       []units.Hertz // per node
}

// Validate checks structural consistency (not feasibility).
func (p Params) Validate() error {
	if len(p.CR) == 0 || len(p.CR) != len(p.MicroFreq) {
		return fmt.Errorf("casestudy: %d CRs vs %d frequencies", len(p.CR), len(p.MicroFreq))
	}
	sf := ieee.SuperframeConfig{BeaconOrder: p.BeaconOrder, SuperframeOrder: p.SuperframeOrder}
	return sf.Validate()
}

// Network materializes the configuration as a core.Network over the given
// calibration, with the paper's half-DWT/half-CS split.
func (p Params) Network(cal *app.Calibration, theta float64) (*core.Network, error) {
	problem, params, err := p.model(cal, theta)
	if err != nil {
		return nil, err
	}
	return problem.Network(params)
}

// SimConfig materializes the same configuration for the packet-level
// simulator, with GTS allocations mirroring the model's assignment.
func (p Params) SimConfig(cal *app.Calibration, duration units.Seconds, seed int64) (sim.Config, error) {
	problem, params, err := p.model(cal, 0)
	if err != nil {
		return sim.Config{}, err
	}
	return problem.SimConfig(params, duration, seed)
}

// model returns the configuration's network as the ecg-ward scenario
// resized to len(p.CR) nodes at balance weight theta, together with p in
// that scenario's terms.
func (p Params) model(cal *app.Calibration, theta float64) (*scenario.Problem, scenario.Params, error) {
	params := scenario.Params{
		BeaconOrder:     p.BeaconOrder,
		SuperframeOrder: p.SuperframeOrder,
		PayloadBytes:    p.PayloadBytes,
		CR:              p.CR,
		MicroFreq:       p.MicroFreq,
	}
	if err := p.Validate(); err != nil {
		return nil, params, err
	}
	sc := scenario.ECGWard()
	node := sc.Nodes[0]
	sc.Nodes = make([]scenario.NodeSpec, len(p.CR))
	for i, kind := range app.DefaultKinds(len(p.CR)) {
		node.Name, node.Kind = fmt.Sprintf("%s-%d", kind, i), kind
		sc.Nodes[i] = node
	}
	sc.Theta = theta
	problem, err := scenario.NewProblem(sc, cal)
	return problem, params, err
}

// NewProblem returns the DSE formulation of the case study: the ecg-ward
// scenario in the paper's §5 gene layout (BO, SFO gap, payload, then every
// node's CR, then every node's f_µC), whose space exceeds the paper's
// "tens of millions of configurations". It panics on a nil calibration.
func NewProblem(cal *app.Calibration) *scenario.Problem {
	p, err := scenario.NewGroupedProblem(scenario.ECGWard(), cal)
	if err != nil {
		panic(err)
	}
	return p
}
