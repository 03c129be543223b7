package scenario_test

import (
	"sort"
	"strings"
	"testing"

	"wsndse/internal/app"
	"wsndse/internal/casestudy"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

func TestBuiltinsRegistered(t *testing.T) {
	names := scenario.Names()
	if len(names) < 4 {
		t.Fatalf("want at least 4 registered scenarios, got %v", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names not sorted: %v", names)
	}
	for _, want := range []string{"ecg-ward", "mixed-ward", "athletes", "dense-gts", "raw-stream"} {
		sc, ok := scenario.Lookup(want)
		if !ok {
			t.Errorf("built-in %q not registered", want)
			continue
		}
		if sc.Name != want {
			t.Errorf("Lookup(%q) returned scenario named %q", want, sc.Name)
		}
		if sc.Description == "" || sc.Stress == "" {
			t.Errorf("%q lacks description or stress note", want)
		}
	}
	if _, ok := scenario.Lookup("no-such-scenario"); ok {
		t.Error("Lookup invented a scenario")
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	if err := scenario.Register(scenario.ECGWard()); err == nil {
		t.Error("duplicate registration accepted")
	}
	bad := scenario.ECGWard()
	bad.Name = "bad-ward"
	bad.Nodes = nil
	if err := scenario.Register(bad); err == nil {
		t.Error("invalid scenario registered")
	}
	if _, ok := scenario.Lookup("bad-ward"); ok {
		t.Error("rejected scenario ended up in the registry")
	}
}

func TestLookupReturnsDeepCopies(t *testing.T) {
	a, _ := scenario.Lookup("ecg-ward")
	a.Nodes[0].CRs[0] = 0.99
	a.Payloads[0] = 1
	a.Nodes[0].Platform.MicroFreqs[0] = 1
	b, _ := scenario.Lookup("ecg-ward")
	if b.Nodes[0].CRs[0] == 0.99 || b.Payloads[0] == 1 || b.Nodes[0].Platform.MicroFreqs[0] == 1 {
		t.Error("mutating a looked-up scenario corrupted the registry")
	}
}

func TestValidateTable(t *testing.T) {
	mutate := func(f func(*scenario.Scenario)) scenario.Scenario {
		sc := scenario.MixedWard()
		sc.Name = "mutant"
		f(&sc)
		return sc
	}
	cases := []struct {
		name string
		sc   scenario.Scenario
		want string // substring of the error
	}{
		{"empty name", mutate(func(s *scenario.Scenario) { s.Name = "" }), "empty name"},
		{"no nodes", mutate(func(s *scenario.Scenario) { s.Nodes = nil }), "no nodes"},
		{"unnamed node", mutate(func(s *scenario.Scenario) { s.Nodes[0].Name = "" }), "no name"},
		{"duplicate node name", mutate(func(s *scenario.Scenario) { s.Nodes[1].Name = s.Nodes[0].Name }), "duplicate node name"},
		{"bad kind", mutate(func(s *scenario.Scenario) { s.Nodes[0].Kind = app.Kind(42) }), "unknown kind"},
		{"compression without CRs", mutate(func(s *scenario.Scenario) { s.Nodes[0].CRs = nil }), "no CR values"},
		{"CR out of range", mutate(func(s *scenario.Scenario) { s.Nodes[0].CRs = []float64{1.5} }), "out of (0,1]"},
		{"bad sample rate", mutate(func(s *scenario.Scenario) { s.Nodes[0].SampleFreq = 0 }), "sample rate"},
		{"bad frequency", mutate(func(s *scenario.Scenario) { s.Nodes[0].MicroFreqs = []units.Hertz{-1} }), "µC frequency"},
		{"oversized payload override", mutate(func(s *scenario.Scenario) { s.Nodes[3].PayloadBytes = 200 }), "payload override"},
		{"no beacon orders", mutate(func(s *scenario.Scenario) { s.BeaconOrders = nil }), "MAC axis"},
		{"beacon order out of range", mutate(func(s *scenario.Scenario) { s.BeaconOrders = []int{15} }), "beacon order"},
		{"negative gap", mutate(func(s *scenario.Scenario) { s.SFOGaps = []int{-1} }), "SFO gap"},
		{"payload axis out of range", mutate(func(s *scenario.Scenario) { s.Payloads = []int{0} }), "payload 0"},
		{"negative theta", mutate(func(s *scenario.Scenario) { s.Theta = -0.5 }), "balance weight"},
		{"bad PER", mutate(func(s *scenario.Scenario) { s.Traffic.PacketErrorRate = 1 }), "error rate"},
		{"negative block", mutate(func(s *scenario.Scenario) { s.Traffic.BlockSamples = -1 }), "block size"},
		{"bad duration", mutate(func(s *scenario.Scenario) { s.SimDuration = 0 }), "duration"},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := scenario.MixedWard().Validate(); err != nil {
		t.Errorf("pristine scenario invalid: %v", err)
	}
}

func TestProblemGeneLayout(t *testing.T) {
	p, err := scenario.NewProblem(scenario.MixedWard(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	// 3 shared MAC genes + one CR gene per compression node (3) + one
	// frequency gene per node (6).
	if got, want := len(p.Space().Params), 3+3+6; got != want {
		t.Fatalf("gene count = %d, want %d", got, want)
	}
	genes := map[string]bool{}
	for _, g := range p.Space().Params {
		genes[g.Name] = true
	}
	for _, ns := range p.Scenario.Nodes {
		if hasCR := genes["cr:"+ns.Name]; hasCR == (ns.Kind == app.KindRaw) {
			t.Errorf("node %s (%v): CR gene present = %v", ns.Name, ns.Kind, hasCR)
		}
		if !genes["fuc:"+ns.Name] {
			t.Errorf("node %s has no frequency gene", ns.Name)
		}
	}
}

func TestDecodeClampsAndDefaults(t *testing.T) {
	p, err := scenario.NewProblem(scenario.MixedWard(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	c := p.NominalConfig()
	c[0] = 0                                   // BO = 2 (smallest)
	c[1] = len(p.Space().Params[1].Values) - 1 // gap = 2
	params, err := p.Decode(c)
	if err != nil {
		t.Fatal(err)
	}
	if params.SuperframeOrder != params.BeaconOrder-2 {
		t.Errorf("SFO %d with BO %d and gap 2", params.SuperframeOrder, params.BeaconOrder)
	}
	for i, ns := range p.Scenario.Nodes {
		if ns.Kind == app.KindRaw && params.CR[i] != 1 {
			t.Errorf("raw node %s decoded CR %g, want 1", ns.Name, params.CR[i])
		}
	}
	if _, err := p.Decode(nil); err == nil {
		t.Error("nil config decoded")
	}
}

func TestMaterializationCarriesOverrides(t *testing.T) {
	p, err := scenario.NewProblem(scenario.MixedWard(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	params, err := p.FeasibleParams()
	if err != nil {
		t.Fatal(err)
	}
	net, err := p.Network(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.NodeMACs) != len(net.Nodes) {
		t.Fatalf("expected per-node MAC views for the override nodes, got %d", len(net.NodeMACs))
	}
	for i, ns := range p.Scenario.Nodes {
		hasView := net.NodeMACs[i] != nil
		if hasView != (ns.PayloadBytes > 0) {
			t.Errorf("node %s: view=%v but payload override=%d", ns.Name, hasView, ns.PayloadBytes)
		}
	}
	cfg, err := p.DefaultSimConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	for i, nc := range cfg.Nodes {
		if nc.PayloadBytes != p.Scenario.Nodes[i].PayloadBytes {
			t.Errorf("sim node %s payload override %d, want %d",
				nc.Name, nc.PayloadBytes, p.Scenario.Nodes[i].PayloadBytes)
		}
		if nc.Slots < 1 {
			t.Errorf("sim node %s has no GTS slots", nc.Name)
		}
	}
	if cfg.PacketErrorRate != p.Scenario.Traffic.PacketErrorRate {
		t.Errorf("traffic profile not carried: PER %g", cfg.PacketErrorRate)
	}
}

func TestAthletesTrafficProfile(t *testing.T) {
	p, err := scenario.NewProblem(scenario.Athletes(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	params, err := p.FeasibleParams()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.DefaultSimConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Arrival != sim.ArrivalBlock || cfg.PacketErrorRate != 0.05 || cfg.BlockSamples != 256 {
		t.Errorf("athletes traffic profile lost: %+v", cfg)
	}
}

func TestDenseGTSPastSlotLimitIsInfeasible(t *testing.T) {
	sc := scenario.DenseGTS(9)
	sc.Name = "dense-gts-9"
	p, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	// Nine nodes cannot share seven GTS slots: the MAC itself refuses,
	// so no configuration in the space is feasible.
	eval := p.Evaluator()
	if _, err := eval.Evaluate(p.NominalConfig()); err == nil {
		t.Error("9-node dense scenario evaluated feasibly")
	}
}
