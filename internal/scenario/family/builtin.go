package family

import (
	"fmt"
	"strconv"
	"strings"

	"wsndse/internal/app"
	"wsndse/internal/platform"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

func init() {
	MustRegister(ChipsetSweep())
	MustRegister(MobileRelay())
}

// nodeCount parses an "n<k>" axis value.
func nodeCount(v string) (int, error) {
	k, err := strconv.Atoi(strings.TrimPrefix(v, "n"))
	if err != nil || k < 1 {
		return 0, fmt.Errorf("bad node-count value %q", v)
	}
	return k, nil
}

// compressionNode builds one wearable compressor on the given chipset.
// Kinds alternate DWT/CS by index, like the paper's ward.
func compressionNode(i int, plat platform.Platform) scenario.NodeSpec {
	kind := app.KindDWT
	if i%2 == 1 {
		kind = app.KindCS
	}
	return scenario.NodeSpec{
		Name:       fmt.Sprintf("%s-%d", kind, i),
		Kind:       kind,
		Platform:   plat,
		SampleFreq: app.ECGSampleRate,
		CRs:        app.CRGrid(),
	}
}

// ChipsetSweep is the chipset-comparison family, grounded in the
// comparative chipset investigations of the related-work survey: the same
// ward-style workload re-hosted on every catalog platform, so the chipset
// itself (per-cycle µC energy, radio per-bit costs, sleep floors, RAM)
// becomes an explorable axis of the design space. The mix axis adds a
// platform-heterogeneous variant (one node swapped for a TelosB telemetry
// mote), and the payload/traffic axes vary frame profiles and the arrival
// process.
func ChipsetSweep() Family {
	return Family{
		Name:        "chipset-sweep",
		Description: "ward workload re-hosted across the platform catalog (chipset comparison)",
		Axes: []Axis{
			{Name: "platform", Values: platform.Names()},
			{Name: "nodes", Values: []string{"n3", "n4", "n5", "n6"}},
			{Name: "mix", Values: []string{"homo", "relay"}},
			{Name: "payload", Values: []string{"short", "long"}},
			{Name: "traffic", Values: []string{"uniform", "block"}},
		},
		Build: func(v Values) (scenario.Scenario, error) {
			plat, ok := platform.ByName(v["platform"])
			if !ok {
				return scenario.Scenario{}, fmt.Errorf("unknown platform %q", v["platform"])
			}
			n, err := nodeCount(v["nodes"])
			if err != nil {
				return scenario.Scenario{}, err
			}
			nodes := make([]scenario.NodeSpec, n)
			for i := range nodes {
				nodes[i] = compressionNode(i, plat)
			}
			if v["mix"] == "relay" {
				// The platform-mix variant: the last wearable becomes a
				// short-frame TelosB telemetry mote in the same superframe.
				nodes[n-1] = scenario.NodeSpec{
					Name:         fmt.Sprintf("temp-%d", n-1),
					Kind:         app.KindRaw,
					Platform:     platform.TelosB(),
					SampleFreq:   4,
					MicroFreqs:   []units.Hertz{1e6},
					PayloadBytes: 16,
				}
			}
			payloads := []int{32, 48}
			if v["payload"] == "long" {
				payloads = []int{64, 80, 102}
			}
			var traffic scenario.Traffic
			if v["traffic"] == "block" {
				traffic = scenario.Traffic{Arrival: sim.ArrivalBlock, BlockSamples: 256}
			}
			name := ChipsetSweep().MemberName(v)
			return scenario.Scenario{
				Description: fmt.Sprintf("%d-node %s ward on %s frames, %s arrivals",
					n, v["platform"], v["payload"], v["traffic"]),
				Stress:       "chipset coefficients: per-cycle µC energy, radio bit costs and sleep floors shift the front",
				Nodes:        nodes,
				BeaconOrders: []int{2, 3, 4, 5},
				SFOGaps:      []int{0, 1, 2},
				Payloads:     payloads,
				Theta:        0.5,
				Traffic:      traffic,
				SimDuration:  30,
				SimSeed:      memberSeed(name),
			}, nil
		},
	}
}

// relayWalks maps the topology-schedule axis to link-quality phase shapes:
// PER levels the mobile relay sees as it is carried through the ward. The
// pace axis scales the phase period.
var relayWalks = map[string][]float64{
	"bedside":   {0, 0.15, 0},
	"corridor":  {0, 0.35, 0.1, 0.35, 0},
	"roundtrip": {0, 0.25, 0.5, 0.25, 0},
}

// MobileRelay is the mobile-relay family, grounded in the mobile-relay
// energy-throughput trade-off study of the related work: a ward of fixed
// wearables plus one body-worn relay whose link to the coordinator
// degrades and recovers on a time-varying schedule as its carrier walks.
// The topology schedule (walk shape × pace) is threaded through the
// simulator as a per-node LinkPhase schedule; the analytical model never
// sees it, which is exactly why these members make good cross-validation
// probes — the xcheck harness compares in the model's validity envelope
// and the native schedule exercises the retransmission path everywhere
// else.
func MobileRelay() Family {
	return Family{
		Name:        "mobile-relay",
		Description: "fixed ward + one mobile relay on a time-varying link schedule",
		Axes: []Axis{
			{Name: "nodes", Values: []string{"n3", "n4", "n5", "n6"}},
			{Name: "walk", Values: []string{"bedside", "corridor", "roundtrip"}},
			{Name: "pace", Values: []string{"slow", "fast"}},
			{Name: "relay", Values: []string{"shimmer", "z1"}},
		},
		Build: func(v Values) (scenario.Scenario, error) {
			n, err := nodeCount(v["nodes"])
			if err != nil {
				return scenario.Scenario{}, err
			}
			relayPlat, ok := platform.ByName(v["relay"])
			if !ok {
				return scenario.Scenario{}, fmt.Errorf("unknown relay platform %q", v["relay"])
			}
			walk, ok := relayWalks[v["walk"]]
			if !ok {
				return scenario.Scenario{}, fmt.Errorf("unknown walk %q", v["walk"])
			}
			period := 20.0 // seconds per phase
			if v["pace"] == "fast" {
				period = 8
			}
			link := make([]sim.LinkPhase, len(walk))
			for i, per := range walk {
				link[i] = sim.LinkPhase{Start: units.Seconds(float64(i) * period), PER: per}
			}

			nodes := make([]scenario.NodeSpec, n)
			for i := 0; i < n-1; i++ {
				nodes[i] = compressionNode(i, platform.Shimmer())
			}
			relay := compressionNode(n-1, relayPlat)
			relay.Name = "relay-" + v["relay"]
			relay.Kind = app.KindCS // the relay compresses aggressively to survive fades
			relay.Link = link
			nodes[n-1] = relay

			name := MobileRelay().MemberName(v)
			return scenario.Scenario{
				Description:  fmt.Sprintf("%d nodes, %s relay on a %s/%s walk", n, v["relay"], v["walk"], v["pace"]),
				Stress:       "time-varying link quality: retransmission bursts and recovery on the mobile node",
				Nodes:        nodes,
				BeaconOrders: []int{2, 3, 4},
				SFOGaps:      []int{0, 1},
				Payloads:     []int{48, 64, 80},
				Theta:        0.75,
				SimDuration:  units.Seconds(float64(len(walk)) * period),
				SimSeed:      memberSeed(name),
			}, nil
		},
	}
}
