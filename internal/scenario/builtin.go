package scenario

import (
	"fmt"

	"wsndse/internal/app"
	"wsndse/internal/platform"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

func init() {
	MustRegister(ECGWard())
	MustRegister(MixedWard())
	MustRegister(Athletes())
	MustRegister(DenseGTS(7))
	MustRegister(RawStream())
}

// ecgNode builds one case-study wearable: a 250 Hz ECG compressor on
// Shimmer-class hardware exploring the paper's CR grid.
func ecgNode(name string, kind app.Kind) NodeSpec {
	return NodeSpec{
		Name:       name,
		Kind:       kind,
		Platform:   platform.Shimmer(),
		SampleFreq: app.ECGSampleRate,
		CRs:        app.CRGrid(),
	}
}

// telemetryNode builds a low-rate raw-streaming mote. Raw nodes run no
// compression, so their µC frequency axis collapses to one point (the
// model's application duty cycle is zero either way).
func telemetryNode(name string, p platform.Platform, fs units.Hertz, payload int) NodeSpec {
	return NodeSpec{
		Name:         name,
		Kind:         app.KindRaw,
		Platform:     p,
		SampleFreq:   fs,
		MicroFreqs:   []units.Hertz{1e6},
		PayloadBytes: payload,
	}
}

// ECGWard is the paper's §4–5 case study: six homogeneous ECG patients,
// half wavelet and half compressed-sensing, on the full χ_mac grid. It is
// the reference workload every other scenario deviates from.
func ECGWard() Scenario {
	nodes := make([]NodeSpec, app.DefaultNodes)
	for i, kind := range app.DefaultKinds(app.DefaultNodes) {
		nodes[i] = ecgNode(fmt.Sprintf("%s-%d", kind, i), kind)
	}
	return Scenario{
		Name:         "ecg-ward",
		Description:  "the paper's six-patient ECG ward (3 DWT + 3 CS, Shimmer)",
		Stress:       "the reference workload: CR-vs-energy-vs-delay over the full MAC grid",
		Nodes:        nodes,
		BeaconOrders: []int{1, 2, 3, 4, 5, 6},
		SFOGaps:      []int{0, 1, 2, 3},
		Payloads:     []int{32, 48, 64, 80, 102},
		Theta:        0.5,
		SimDuration:  60,
		SimSeed:      1,
	}
}

// MixedWard is a heterogeneous hospital ward: ECG compressors share the
// superframe with short-frame temperature motes on different hardware and
// an actuator whose acknowledgements trickle up at 2 Hz. The mixed payload
// profiles exercise the per-node MAC views of the model and the per-node
// overrides of the simulator.
func MixedWard() Scenario {
	return Scenario{
		Name:        "mixed-ward",
		Description: "ECG compressors + TelosB temperature motes + an actuator-ack node",
		Stress:      "mixed traffic and per-node payload profiles across two platforms",
		Nodes: []NodeSpec{
			ecgNode("ecg-dwt-0", app.KindDWT),
			ecgNode("ecg-dwt-1", app.KindDWT),
			ecgNode("ecg-cs-2", app.KindCS),
			telemetryNode("temp-3", platform.TelosB(), 4, 16),
			telemetryNode("temp-4", platform.TelosB(), 4, 16),
			telemetryNode("actuator-5", platform.Shimmer(), 2, 16),
		},
		BeaconOrders: []int{2, 3, 4, 5, 6},
		SFOGaps:      []int{0, 1, 2},
		Payloads:     []int{48, 64, 80},
		Theta:        0.5,
		SimDuration:  60,
		SimSeed:      2,
	}
}

// Athletes is a four-runner training squad on a lossy on-field channel:
// bursty block-codec motion data at 100 Hz, 5 % frame loss, and ϑ = 1
// because no runner's battery may drain faster than the squad's. The
// coach's runner streams at high fidelity (CR near raw).
func Athletes() Scenario {
	coach := NodeSpec{
		Name:       "motion-coach",
		Kind:       app.KindDWT,
		Platform:   platform.Shimmer(),
		SampleFreq: 100,
		CRs:        []float64{0.32, 0.35, 0.38},
	}
	runner := func(name string, kind app.Kind) NodeSpec {
		n := ecgNode(name, kind)
		n.SampleFreq = 100
		return n
	}
	return Scenario{
		Name:        "athletes",
		Description: "four runners with bursty 100 Hz motion data on a 5% lossy channel",
		Stress:      "block arrivals (the Eq. 9 uniformity assumption breaks) + retransmissions",
		Nodes: []NodeSpec{
			coach,
			runner("motion-1", app.KindDWT),
			runner("motion-2", app.KindCS),
			runner("motion-3", app.KindCS),
		},
		BeaconOrders: []int{1, 2, 3},
		SFOGaps:      []int{0, 1},
		Payloads:     []int{32, 48, 64},
		Theta:        1.0,
		Traffic: Traffic{
			Arrival:         sim.ArrivalBlock,
			PacketErrorRate: 0.05,
			BlockSamples:    256,
		},
		SimDuration: 120,
		SimSeed:     7,
	}
}

// DenseGTS builds an n-node star engineered to starve the 7-GTS-slot
// budget: ECG compressed-sensing streams interleaved with short-frame
// telemetry motes, short payloads, and beacon orders small enough that a
// packet service barely fits a slot. At n = 7 every node must fit exactly
// one slot for the configuration to be feasible; past 7 the protocol
// itself runs out of slots and the whole space is infeasible — the cliff
// the starvation sweep in internal/experiments walks over. The registered
// instance is DenseGTS(7).
func DenseGTS(n int) Scenario {
	nodes := make([]NodeSpec, n)
	for i := range nodes {
		if i%2 == 0 {
			nodes[i] = ecgNode(fmt.Sprintf("ecg-cs-%d", i), app.KindCS)
		} else {
			nodes[i] = telemetryNode(fmt.Sprintf("temp-%d", i), platform.TelosB(), 8, 16)
		}
	}
	return Scenario{
		Name:         "dense-gts",
		Description:  fmt.Sprintf("%d nodes contending for the 7 GTS slots on short frames", n),
		Stress:       "GTS starvation: slot quantization and the 7-slot budget dominate feasibility",
		Nodes:        nodes,
		BeaconOrders: []int{1, 2, 3, 4},
		SFOGaps:      []int{0, 1},
		Payloads:     []int{16, 32, 48},
		Theta:        0.5,
		SimDuration:  30,
		SimSeed:      3,
	}
}

// RawStream is three uncompressed ECG streamers: no quality axis at all
// (PRD is identically zero), so the three-objective front collapses onto
// the energy/delay plane and the radio term dominates every budget — the
// workload a compression-blind baseline model sees everywhere.
func RawStream() Scenario {
	return Scenario{
		Name:        "raw-stream",
		Description: "three uncompressed 250 Hz ECG streamers (375 B/s each)",
		Stress:      "radio-dominated energy with no quality trade-off; bandwidth pressure",
		Nodes: []NodeSpec{
			telemetryNode("raw-0", platform.Shimmer(), app.ECGSampleRate, 0),
			telemetryNode("raw-1", platform.Shimmer(), app.ECGSampleRate, 0),
			telemetryNode("raw-2", platform.Shimmer(), app.ECGSampleRate, 0),
		},
		BeaconOrders: []int{1, 2, 3, 4, 5, 6},
		SFOGaps:      []int{0, 1},
		Payloads:     []int{64, 80, 102},
		Theta:        0,
		SimDuration:  30,
		SimSeed:      5,
	}
}
