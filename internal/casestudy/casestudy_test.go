package casestudy

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"wsndse/internal/app"
	"wsndse/internal/core"
	"wsndse/internal/dse"
	"wsndse/internal/units"
)

func TestCalibrateProducesSaneCurves(t *testing.T) {
	cal, err := Calibrate(CalibrationConfig{Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.DWTMeasured) != len(cal.CRs) || len(cal.CSMeasured) != len(cal.CRs) {
		t.Fatal("measurement vectors mis-sized")
	}
	for i := range cal.CRs {
		if cal.DWTMeasured[i] <= 0 || cal.CSMeasured[i] <= 0 {
			t.Errorf("PRD at CR=%g not positive", cal.CRs[i])
		}
		// The case study's structural fact: CS loses more quality
		// than DWT at every rate.
		if cal.CSMeasured[i] <= cal.DWTMeasured[i] {
			t.Errorf("CR=%g: CS PRD %.2f not worse than DWT %.2f",
				cal.CRs[i], cal.CSMeasured[i], cal.DWTMeasured[i])
		}
	}
	// Both curves decrease from the lowest to the highest rate.
	last := len(cal.CRs) - 1
	if cal.DWTMeasured[last] >= cal.DWTMeasured[0] {
		t.Error("DWT PRD should improve with CR")
	}
	if cal.CSMeasured[last] >= cal.CSMeasured[0] {
		t.Error("CS PRD should improve with CR")
	}
}

func TestCalibrationEstimationErrorsSmall(t *testing.T) {
	// The Fig. 4 claim: the polynomial estimator tracks the measured
	// PRDs within ≈1 PRD point on average.
	cal := DefaultCalibration()
	dwtErr, csErr := cal.EstimationErrors()
	if dwtErr > 1.0 {
		t.Errorf("DWT estimation error %.3f PRD points, want ≤ 1", dwtErr)
	}
	if csErr > 2.0 {
		t.Errorf("CS estimation error %.3f PRD points, want ≤ 2", csErr)
	}
}

func TestDefaultCalibrationMatchesFreshRun(t *testing.T) {
	if testing.Short() {
		t.Skip("codec calibration is slow")
	}
	fresh, err := Calibrate(CalibrationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	baked := DefaultCalibration()
	for i := range baked.CRs {
		if math.Abs(fresh.DWTMeasured[i]-baked.DWTMeasured[i]) > 1e-3 {
			t.Errorf("DWT point %d drifted: %.4f vs %.4f", i, fresh.DWTMeasured[i], baked.DWTMeasured[i])
		}
		if math.Abs(fresh.CSMeasured[i]-baked.CSMeasured[i]) > 1e-3 {
			t.Errorf("CS point %d drifted: %.4f vs %.4f", i, fresh.CSMeasured[i], baked.CSMeasured[i])
		}
	}
}

func TestCalibrateValidation(t *testing.T) {
	if _, err := Calibrate(CalibrationConfig{CRs: []float64{0.2, 0.3}, PolyDegree: 5}); err == nil {
		t.Error("too few CR points for degree: want error")
	}
}

func defaultParams() Params {
	n := app.DefaultNodes
	p := Params{
		BeaconOrder:     3,
		SuperframeOrder: 2,
		PayloadBytes:    48,
		CR:              make([]float64, n),
		MicroFreq:       make([]units.Hertz, n),
	}
	for i := 0; i < n; i++ {
		p.CR[i] = 0.23
		p.MicroFreq[i] = 8e6
	}
	return p
}

func TestParamsNetworkEvaluates(t *testing.T) {
	cal := DefaultCalibration()
	net, err := defaultParams().Network(cal, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Nodes) != app.DefaultNodes {
		t.Fatalf("%d nodes", len(net.Nodes))
	}
	// Half DWT, half CS.
	if net.Nodes[0].App.Name() != "dwt" || net.Nodes[5].App.Name() != "cs" {
		t.Error("kind split wrong")
	}
	ev, err := net.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Energy <= 0 || ev.Quality <= 0 || ev.Delay <= 0 {
		t.Errorf("metrics: %+v", ev)
	}
	// Node powers in the Figure 3 range (single-digit mJ/s).
	for i, eb := range ev.PerNode {
		if eb.Total < 1e-3 || eb.Total > 15e-3 {
			t.Errorf("node %d power %v outside plausible range", i, eb.Total)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	p := defaultParams()
	p.CR = p.CR[:3]
	if err := p.Validate(); err == nil {
		t.Error("mismatched vectors accepted")
	}
	p = defaultParams()
	p.SuperframeOrder = 9
	if err := p.Validate(); err == nil {
		t.Error("SO > BO accepted")
	}
	cal := DefaultCalibration()
	p = defaultParams()
	p.PayloadBytes = 0
	if _, err := p.Network(cal, 0); err == nil {
		t.Error("payload 0 accepted")
	}
}

func TestSimConfigMirrorsModelAssignment(t *testing.T) {
	cal := DefaultCalibration()
	params := defaultParams()
	cfg, err := params.SimConfig(cal, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("sim config invalid: %v", err)
	}
	// The simulator's slot allocation must equal the model's Eq. 1
	// assignment — both sides of the Fig. 3 comparison describe the
	// same network.
	net, err := params.Network(cal, 0)
	if err != nil {
		t.Fatal(err)
	}
	phi := make([]units.BytesPerSecond, len(net.Nodes))
	for i, n := range net.Nodes {
		phi[i] = n.OutputRate()
	}
	a, err := core.Assign(net.MAC, phi)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Nodes {
		if cfg.Nodes[i].Slots != a.K[i] {
			t.Errorf("node %d: sim slots %d vs model k %d", i, cfg.Nodes[i].Slots, a.K[i])
		}
	}
}

func TestProblemSpace(t *testing.T) {
	p := NewProblem(DefaultCalibration())
	s := p.Space()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper: "the number of possible network configurations of this
	// case study exceeds the tens of millions".
	if s.Size() < 1e7 {
		t.Errorf("space size %.3g, want > 10⁷", s.Size())
	}
	// The §5 layout: BO, SFO gap, payload, then every node's CR, then
	// every node's f_µC.
	if len(s.Params) != 3+2*app.DefaultNodes {
		t.Fatalf("%d genes", len(s.Params))
	}
	for i := 0; i < app.DefaultNodes; i++ {
		if cr, f := s.Params[3+i].Name, s.Params[3+app.DefaultNodes+i].Name; !strings.HasPrefix(cr, "cr:") || !strings.HasPrefix(f, "fuc:") {
			t.Errorf("node %d genes %q, %q out of the grouped layout", i, cr, f)
		}
	}
}

func TestProblemDecode(t *testing.T) {
	p := NewProblem(DefaultCalibration())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		c := p.Space().Random(rng)
		params, err := p.Decode(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(params.CR) != app.DefaultNodes || len(params.MicroFreq) != app.DefaultNodes {
			t.Errorf("decoded %d CRs, %d frequencies", len(params.CR), len(params.MicroFreq))
		}
		if params.SuperframeOrder > params.BeaconOrder || params.SuperframeOrder < 0 {
			t.Errorf("SFO %d out of range for BO %d", params.SuperframeOrder, params.BeaconOrder)
		}
	}
	if _, err := p.Decode(dse.Config{0}); err == nil {
		t.Error("short config accepted")
	}
}

func TestProblemEvaluator(t *testing.T) {
	p := NewProblem(DefaultCalibration())
	e := p.Evaluator()
	if e.NumObjectives() != 3 {
		t.Error("objective count")
	}
	rng := rand.New(rand.NewSource(9))
	feasible, infeasible := 0, 0
	for i := 0; i < 300; i++ {
		objs, err := e.Evaluate(p.Space().Random(rng))
		if err != nil {
			if !core.IsInfeasible(err) {
				t.Fatalf("non-constraint error: %v", err)
			}
			infeasible++
			continue
		}
		feasible++
		if len(objs) != 3 {
			t.Fatal("objective vector length")
		}
		for j, o := range objs {
			if o <= 0 || math.IsNaN(o) {
				t.Errorf("objective %d = %g", j, o)
			}
		}
	}
	if feasible == 0 {
		t.Error("no feasible configurations in 300 draws")
	}
	if infeasible == 0 {
		t.Error("no infeasible configurations in 300 draws (constraints too loose)")
	}
}

// TestKindString pins the case study's node names and kind split: three
// DWT nodes, then three CS nodes (§4.1).
func TestKindString(t *testing.T) {
	if app.KindDWT.String() != "dwt" || app.KindCS.String() != "cs" {
		t.Error("kind names")
	}
	kinds := app.DefaultKinds(app.DefaultNodes)
	if kinds[0] != app.KindDWT || kinds[2] != app.KindDWT || kinds[3] != app.KindCS || kinds[5] != app.KindCS {
		t.Errorf("kind split: %v", kinds)
	}
}
