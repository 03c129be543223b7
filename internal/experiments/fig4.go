package experiments

import (
	"fmt"

	"wsndse/internal/app"
	"wsndse/internal/casestudy"
	"wsndse/internal/numeric"
)

// Fig4Config parameterizes the PRD-accuracy experiment.
type Fig4Config struct {
	// Cal is the shipped calibration whose polynomials act as the
	// model's quality estimator. When nil, the default is used.
	Cal *app.Calibration
	// FreshSeed, when nonzero, validates the estimator against a corpus
	// it was NOT fitted on (a stronger check than the paper's, which
	// compares against the fitting data).
	FreshSeed int64
	Blocks    int
}

// Fig4Row is one point of Figure 4.
type Fig4Row struct {
	Kind      app.Kind
	CR        float64
	Measured  float64 // PRD from actually compressing and reconstructing
	Estimated float64 // P₅(CR)
	AbsErr    float64 // PRD percentage points
}

// Fig4Result aggregates the sweep.
type Fig4Result struct {
	Rows []Fig4Row
	// Mean absolute estimation errors (paper: 0.46 DWT, 0.92 CS).
	AvgErrDWT, AvgErrCS float64
}

// Fig4 compares the polynomial quality estimator against measured codec
// PRDs across the CR grid.
func Fig4(cfg Fig4Config) (*Fig4Result, error) {
	if cfg.Cal == nil {
		cfg.Cal = casestudy.DefaultCalibration()
	}
	measured := cfg.Cal
	if cfg.FreshSeed != 0 {
		var err error
		measured, err = casestudy.Calibrate(casestudy.CalibrationConfig{
			Seed:   cfg.FreshSeed,
			Blocks: cfg.Blocks,
		})
		if err != nil {
			return nil, err
		}
	}

	res := &Fig4Result{}
	var dwtErrs, csErrs []float64
	for i, cr := range measured.CRs {
		dwtRow := Fig4Row{
			Kind:      app.KindDWT,
			CR:        cr,
			Measured:  measured.DWTMeasured[i],
			Estimated: cfg.Cal.DWTPoly.Eval(cr),
		}
		dwtRow.AbsErr = abs(dwtRow.Estimated - dwtRow.Measured)
		csRow := Fig4Row{
			Kind:      app.KindCS,
			CR:        cr,
			Measured:  measured.CSMeasured[i],
			Estimated: cfg.Cal.CSPoly.Eval(cr),
		}
		csRow.AbsErr = abs(csRow.Estimated - csRow.Measured)
		res.Rows = append(res.Rows, dwtRow, csRow)
		dwtErrs = append(dwtErrs, dwtRow.AbsErr)
		csErrs = append(csErrs, csRow.AbsErr)
	}
	res.AvgErrDWT = numeric.Mean(dwtErrs)
	res.AvgErrCS = numeric.Mean(csErrs)
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render writes the figure as a text table.
func (r *Fig4Result) Render(w writer) {
	fmt.Fprintf(w, "Figure 4 — application quality (PRD): polynomial estimate vs measured codec\n")
	fmt.Fprintf(w, "%-5s %-5s %10s %10s %8s\n", "app", "CR", "measured", "estimated", "err")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-5s %-5.2f %9.2f%% %9.2f%% %7.2f\n",
			row.Kind, row.CR, row.Measured, row.Estimated, row.AbsErr)
	}
	fmt.Fprintf(w, "mean abs err (PRD points): DWT %.3f, CS %.3f\n", r.AvgErrDWT, r.AvgErrCS)
	fmt.Fprintf(w, "paper:                     DWT 0.46,  CS 0.92\n")
}

// Check verifies the headline claims: monotone-decreasing PRD curves, CS
// worse than DWT, and small estimation errors.
func (r *Fig4Result) Check() error {
	byKind := map[app.Kind][]Fig4Row{}
	for _, row := range r.Rows {
		byKind[row.Kind] = append(byKind[row.Kind], row)
	}
	for kind, rows := range byKind {
		first, last := rows[0], rows[len(rows)-1]
		if last.Measured >= first.Measured {
			return fmt.Errorf("fig4: %v PRD not improving with CR (%.2f → %.2f)",
				kind, first.Measured, last.Measured)
		}
	}
	for i := range byKind[app.KindDWT] {
		d, c := byKind[app.KindDWT][i], byKind[app.KindCS][i]
		if c.Measured <= d.Measured {
			return fmt.Errorf("fig4: CS PRD (%.2f) not worse than DWT (%.2f) at CR=%.2f",
				c.Measured, d.Measured, d.CR)
		}
	}
	if r.AvgErrDWT > 1.0 || r.AvgErrCS > 3.0 {
		return fmt.Errorf("fig4: estimation errors too large: DWT %.2f, CS %.2f",
			r.AvgErrDWT, r.AvgErrCS)
	}
	return nil
}
