// Package casestudy holds what is specific to the paper's §4 case study —
// a hospital WBSN of six ECG nodes, three compressing with the discrete
// wavelet transform and three with compressed sensing, on Shimmer-class
// hardware under the beacon-enabled IEEE 802.15.4 MAC: the calibration,
// the paper's defaults, and the §5 gene layout.
//
// Calibration is the step the paper performs against measured data
// (§4.3): running the actual codecs over an ECG corpus to obtain the
// per-application PRD-vs-CR points, then fitting the fifth-order
// polynomials P₅(CR) the analytical model uses as its quality estimator
// e(φ_in, χ_node). DefaultCalibration is its shipped output.
//
// The model itself is the ecg-ward scenario: NewProblem returns it as a
// scenario.Problem in the paper's grouped gene layout, and Params is a
// hand-picked configuration of the same network for the single-point
// tools (Fig. 3, wsn-model, wsn-sim).
package casestudy

import (
	"fmt"

	"wsndse/internal/app"
	"wsndse/internal/cs"
	"wsndse/internal/dwt"
	"wsndse/internal/ecg"
	"wsndse/internal/numeric"
	"wsndse/internal/quality"
)

// CalibrationConfig parameterizes a calibration run.
type CalibrationConfig struct {
	Blocks       int       // ECG corpus size in blocks (default 8)
	BlockSamples int       // samples per block (default 512)
	Seed         int64     // ECG generator / CS matrix seed (default 1)
	CRs          []float64 // CR grid (default app.CRGrid())
	PolyDegree   int       // fit degree (default 5, per the paper)
}

func (c CalibrationConfig) withDefaults() CalibrationConfig {
	if c.Blocks == 0 {
		c.Blocks = 8
	}
	if c.BlockSamples == 0 {
		c.BlockSamples = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CRs == nil {
		c.CRs = app.CRGrid()
	}
	if c.PolyDegree == 0 {
		c.PolyDegree = 5
	}
	return c
}

// Calibrate runs both codecs over a synthetic ECG corpus and fits the
// quality polynomials.
func Calibrate(cfg CalibrationConfig) (*app.Calibration, error) {
	cfg = cfg.withDefaults()
	if len(cfg.CRs) <= cfg.PolyDegree {
		return nil, fmt.Errorf("casestudy: %d CR points cannot support a degree-%d fit",
			len(cfg.CRs), cfg.PolyDegree)
	}
	gcfg := ecg.DefaultConfig()
	gcfg.Seed = cfg.Seed
	gen, err := ecg.NewGenerator(gcfg)
	if err != nil {
		return nil, err
	}
	adc := ecg.DefaultADC()
	corpus := gen.Corpus(cfg.Blocks, cfg.BlockSamples)
	// Digitize: the node compresses what the ADC saw.
	for i := range corpus {
		corpus[i] = adc.Digitize(corpus[i])
	}

	wavelet := dwt.Daubechies4()
	levels := 5
	if ml := wavelet.MaxLevels(cfg.BlockSamples); levels > ml {
		levels = ml
	}
	dwtCodec := dwt.NewCodec(wavelet, levels)
	csCodec := cs.NewCodec(cfg.BlockSamples, wavelet, levels, cfg.Seed)

	cal := &app.Calibration{CRs: append([]float64(nil), cfg.CRs...)}
	for _, cr := range cfg.CRs {
		var dwtSum, csSum float64
		for _, block := range corpus {
			z, err := dwtCodec.Compress(block, cr, adc.Bits)
			if err != nil {
				return nil, fmt.Errorf("casestudy: dwt at cr=%g: %w", cr, err)
			}
			rec, err := dwt.Decompress(z.Payload)
			if err != nil {
				return nil, err
			}
			prd, err := quality.PRD(block, rec)
			if err != nil {
				return nil, err
			}
			dwtSum += prd

			zc, err := csCodec.Compress(block, cr, adc.Bits)
			if err != nil {
				return nil, fmt.Errorf("casestudy: cs at cr=%g: %w", cr, err)
			}
			recc, err := csCodec.Decompress(zc.Payload)
			if err != nil {
				return nil, err
			}
			prdc, err := quality.PRD(block, recc)
			if err != nil {
				return nil, err
			}
			csSum += prdc
		}
		cal.DWTMeasured = append(cal.DWTMeasured, dwtSum/float64(len(corpus)))
		cal.CSMeasured = append(cal.CSMeasured, csSum/float64(len(corpus)))
	}

	cal.DWTPoly, err = numeric.PolyFit(cal.CRs, cal.DWTMeasured, cfg.PolyDegree)
	if err != nil {
		return nil, fmt.Errorf("casestudy: DWT fit: %w", err)
	}
	cal.CSPoly, err = numeric.PolyFit(cal.CRs, cal.CSMeasured, cfg.PolyDegree)
	if err != nil {
		return nil, fmt.Errorf("casestudy: CS fit: %w", err)
	}
	return cal, nil
}
