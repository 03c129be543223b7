package experiments

import (
	"bytes"
	"strings"
	"testing"

	"wsndse/internal/app"
)

func TestFig3(t *testing.T) {
	res, err := Fig3(Fig3Config{SimDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	// 2 freqs × 4 CRs × 2 kinds = 16 rows; DWT@1MHz infeasible for all
	// 4 CRs.
	if len(res.Rows) != 16 {
		t.Errorf("%d rows, want 16", len(res.Rows))
	}
	if res.InfeasibleCells != 4 {
		t.Errorf("%d infeasible cells, want 4 (DWT at 1 MHz)", res.InfeasibleCells)
	}
	// Error profile comparable to the paper's (≤ ~2 %).
	if res.MaxErr > 2.5 {
		t.Errorf("max error %.2f%%", res.MaxErr)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 3") || !strings.Contains(buf.String(), "infeas.") {
		t.Error("render output incomplete")
	}
}

func TestFig4(t *testing.T) {
	res, err := Fig4(Fig4Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Errorf("%d rows, want 16 (8 CRs × 2 kinds)", len(res.Rows))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("render output incomplete")
	}
}

func TestFig4FreshCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh-corpus validation is slow")
	}
	// Validate the estimator against ECG data it was not fitted on: the
	// errors grow but stay within a few PRD points.
	res, err := Fig4(Fig4Config{FreshSeed: 77, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgErrDWT > 3 {
		t.Errorf("DWT generalization error %.2f PRD points", res.AvgErrDWT)
	}
	if res.AvgErrCS > 12 {
		t.Errorf("CS generalization error %.2f PRD points", res.AvgErrCS)
	}
}

func TestDelayVal(t *testing.T) {
	res, err := DelayVal(DelayValConfig{Runs: 10, SimDuration: 15})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.RunsUsed != 10 {
		t.Errorf("used %d runs, want 10", res.RunsUsed)
	}
	if len(res.Samples) < 10*app.DefaultNodes/2 {
		t.Errorf("only %d samples", len(res.Samples))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Delay validation") {
		t.Error("render output incomplete")
	}
}

func TestSpeed(t *testing.T) {
	res, err := Speed(SpeedConfig{ModelEvals: 2000, SimRuns: 1, SimDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Evaluation speed") {
		t.Error("render output incomplete")
	}
}

func TestFig5(t *testing.T) {
	res, err := Fig5(Fig5Config{PopulationSize: 48, Generations: 25, RunMOSA: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.MOSAFront == nil || res.HVFullGA <= 0 || res.HVFullSA <= 0 {
		t.Error("MOSA cross-check missing")
	}
	// GA and SA fronts of broadly comparable quality (§5.2).
	ratio := res.HVFullSA / res.HVFullGA
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("GA/SA hypervolume ratio %.2f outside [0.7, 1.3]", ratio)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 5", "energy-delay", "energy-PRD", "PRD-delay"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestThetaAblation(t *testing.T) {
	res, err := ThetaAblation(ThetaAblationConfig{PopulationSize: 32, Generations: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "balance weight") {
		t.Error("render output incomplete")
	}
}

func TestArrivalAblation(t *testing.T) {
	res, err := ArrivalAblation(ArrivalAblationConfig{Runs: 8, SimDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "uniform-output-rate") {
		t.Error("render output incomplete")
	}
}

func TestCSVWriters(t *testing.T) {
	f3, err := Fig3(Fig3Config{SimDuration: 10})
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Fig4(Fig4Config{})
	if err != nil {
		t.Fatal(err)
	}
	dv, err := DelayVal(DelayValConfig{Runs: 3, SimDuration: 10})
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Fig5(Fig5Config{PopulationSize: 24, Generations: 8})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		write  func(*bytes.Buffer) error
		header string
		rows   int
	}{
		{"fig3", func(b *bytes.Buffer) error { return f3.WriteCSV(b) }, "app,fuc_hz", len(f3.Rows)},
		{"fig4", func(b *bytes.Buffer) error { return f4.WriteCSV(b) }, "app,cr", len(f4.Rows)},
		{"delay", func(b *bytes.Buffer) error { return dv.WriteCSV(b) }, "run,node", len(dv.Samples)},
		{"fig5", func(b *bytes.Buffer) error { return f5.WriteCSV(b) }, "front,energy_w", len(f5.FullFront) + len(f5.BaselineFront)},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out := buf.String()
		if !strings.HasPrefix(out, c.header) {
			t.Errorf("%s: header = %q", c.name, strings.SplitN(out, "\n", 2)[0])
		}
		lines := strings.Count(strings.TrimSpace(out), "\n")
		if lines != c.rows {
			t.Errorf("%s: %d data rows, want %d", c.name, lines, c.rows)
		}
	}
}

// TestFig3DifferentNetworkSizes backs the paper's remark that "tests on
// different networks show a similar accuracy": the estimation error
// profile holds on 2- and 4-node networks too.
func TestFig3DifferentNetworkSizes(t *testing.T) {
	for _, n := range []int{2, 4} {
		res, err := Fig3(Fig3Config{SimDuration: 20, Nodes: n})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if err := res.Check(); err != nil {
			t.Errorf("N=%d: %v", n, err)
		}
		if res.MaxErr > 2.5 {
			t.Errorf("N=%d: max error %.2f%%", n, res.MaxErr)
		}
	}
}
