package bench

import (
	"repro/internal/img"
	"repro/internal/mrf"
)

// sweepGridW and sweepGridH are the grid of the synthetic sweep model
// the observed experiment times: the acceptance configuration of the
// sweep engine is the exact-Gibbs checkerboard sweep at 256x256, M=16.
const sweepGridW, sweepGridH = 256, 256

// sweepModel builds the segmentation-shaped synthetic model used by the
// sweep benchmarks: integer energies (so the compiled path engages its
// exp rate LUT), Potts smoothness, deterministic pseudo-image data.
// Identical to the model of BenchmarkSweep in internal/gibbs.
func sweepModel(w, h, m int) (*mrf.Model, *img.LabelMap) {
	obs := make([]int, w*h)
	for i := range obs {
		obs[i] = (i*37 + (i/w)*11) % 64
	}
	model := &mrf.Model{
		W: w, H: h, M: m, T: 12, LambdaS: 1, LambdaD: 2,
		Singleton: func(x, y, label int) float64 {
			d := obs[y*w+x] - label*4
			if d < 0 {
				d = -d
			}
			return float64(d)
		},
		Doubleton: func(a, b int) float64 {
			if a == b {
				return 0
			}
			return 1
		},
	}
	init := img.NewLabelMap(w, h)
	for i := range init.Labels {
		init.Labels[i] = uint8(obs[i] % m)
	}
	return model, init
}
