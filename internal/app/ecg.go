package app

import (
	"fmt"
	"math"

	"wsndse/internal/numeric"
	"wsndse/internal/units"
)

// DefaultNodes is the case study's network size (§4.1: N = 6 patients).
const DefaultNodes = 6

// ECGSampleRate is the ECG sampling frequency fixed by the signal (§4.3).
const ECGSampleRate units.Hertz = 250

// CRGrid is the compression-ratio grid of the paper's Figures 3–4.
func CRGrid() []float64 {
	return []float64{0.17, 0.20, 0.23, 0.26, 0.29, 0.32, 0.35, 0.38}
}

// Kind labels a node's application.
type Kind int

// Node kinds. The case study splits the network half and half between the
// two compressors; KindRaw (an uncompressed passthrough stream) exists for
// heterogeneous scenarios beyond the paper's §4 network.
const (
	KindDWT Kind = iota
	KindCS
	KindRaw
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindDWT:
		return "dwt"
	case KindCS:
		return "cs"
	case KindRaw:
		return "raw"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefaultKinds assigns the first half of the nodes to DWT and the rest to
// CS, as in §4.1.
func DefaultKinds(n int) []Kind {
	kinds := make([]Kind, n)
	for i := range kinds {
		if i >= n/2 {
			kinds[i] = KindCS
		}
	}
	return kinds
}

// Calibration holds the fitted quality estimators together with the
// measurements they were fit from, so estimation errors (Fig. 4) can be
// recomputed at any time. The casestudy package produces it by running the
// codecs over an ECG corpus.
type Calibration struct {
	CRs []float64

	// DWTMeasured and CSMeasured are the corpus-mean PRDs at each CR,
	// obtained by actually compressing and reconstructing the signals.
	DWTMeasured []float64
	CSMeasured  []float64

	// DWTPoly and CSPoly are the paper's P₅ estimators fit to the
	// measurements.
	DWTPoly numeric.Poly
	CSPoly  numeric.Poly
}

// EstimationErrors returns the mean absolute error of each polynomial
// against its calibration measurements, in PRD percentage points — the
// quantity Fig. 4's caption reports (0.46 % DWT, 0.92 % CS in the paper).
func (c *Calibration) EstimationErrors() (dwtErr, csErr float64) {
	for i, cr := range c.CRs {
		dwtErr += math.Abs(c.DWTPoly.Eval(cr) - c.DWTMeasured[i])
		csErr += math.Abs(c.CSPoly.Eval(cr) - c.CSMeasured[i])
	}
	n := float64(len(c.CRs))
	return dwtErr / n, csErr / n
}

// For builds the application for one node kind: the calibrated DWT or CS
// compressor at the given compression ratio, or the lossless passthrough
// for raw-streaming nodes (whose CR is ignored — they always forward at
// CR 1).
func For(cal *Calibration, kind Kind, cr float64) (Application, error) {
	switch kind {
	case KindDWT:
		return NewCompression(DWTProfile(), cr, cal.DWTPoly)
	case KindCS:
		return NewCompression(CSProfile(), cr, cal.CSPoly)
	case KindRaw:
		return Passthrough{}, nil
	default:
		return nil, fmt.Errorf("app: unknown kind %d", kind)
	}
}
