package casestudy

import (
	"wsndse/internal/app"
	"wsndse/internal/numeric"
)

// DefaultCalibration returns the calibration shipped with the library: the
// output of Calibrate(CalibrationConfig{}) — 8 blocks of 512 samples,
// seed 1, degree-5 fits — baked in so that model users need not re-run the
// codecs. Regenerate with `wsn-experiments -run calibrate` after touching
// the ECG generator or either codec.
//
// The measured points exhibit the Figure 4 structure: both PRDs decrease
// monotonically with CR, and compressed sensing pays a substantially
// higher reconstruction error than the wavelet transform at every rate.
func DefaultCalibration() *app.Calibration {
	return &app.Calibration{
		CRs: app.CRGrid(),
		DWTMeasured: []float64{
			16.2136, 9.6258, 6.7481, 5.3038, 4.4718, 3.9511, 3.5797, 3.2579,
		},
		CSMeasured: []float64{
			82.1033, 66.2002, 49.0636, 39.1384, 32.7605, 21.4971, 16.9790, 14.7561,
		},
		DWTPoly: numeric.Poly{
			433.98525106207694, -6835.446753701941, 44199.44411778068,
			-144095.4707252549, 235470.19663242422, -153811.46165826204,
		},
		CSPoly: numeric.Poly{
			-1212.6389448671684, 28117.119515493767, -230502.94387231744,
			900524.3848743892, -1.7100156453508288e+06, 1.2709356636994516e+06,
		},
	}
}
