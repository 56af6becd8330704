package gibbs

import (
	"math"
	"testing"

	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rng"
)

// tinyModel builds a 2x2, 2-label MRF small enough to enumerate all 16
// joint states exactly.
func tinyModel() *mrf.Model {
	return &mrf.Model{
		W: 2, H: 2, M: 2,
		T:       1.5,
		LambdaS: 1, LambdaD: 0.8,
		Singleton: func(x, y, label int) float64 {
			// Asymmetric data term so the stationary distribution is
			// non-trivial.
			if (x+2*y)%3 == 0 {
				return float64(label) * 1.3
			}
			return float64(1-label) * 0.9
		},
		Doubleton: mrf.SquaredDiff,
	}
}

// exactBoltzmann enumerates p(state) ∝ exp(-TotalEnergy/T) over all
// M^(W*H) labelings.
func exactBoltzmann(m *mrf.Model) []float64 {
	n := m.W * m.H
	states := 1
	for i := 0; i < n; i++ {
		states *= m.M
	}
	lm := img.NewLabelMap(m.W, m.H)
	probs := make([]float64, states)
	z := 0.0
	for s := 0; s < states; s++ {
		v := s
		for i := 0; i < n; i++ {
			lm.Labels[i] = uint8(v % m.M)
			v /= m.M
		}
		p := math.Exp(-m.TotalEnergy(lm) / m.T)
		probs[s] = p
		z += p
	}
	for s := range probs {
		probs[s] /= z
	}
	return probs
}

func encodeState(lm *img.LabelMap, m int) int {
	s, mul := 0, 1
	for _, l := range lm.Labels {
		s += int(l) * mul
		mul *= m
	}
	return s
}

// stationarityCheck runs one long chain and compares the empirical
// joint state distribution against the exact Boltzmann distribution.
// This is the strongest correctness property of the MCMC machinery:
// the kernel, the sweep schedule and the model bookkeeping must all be
// right for the *joint* (not just the marginals) to come out exact.
func stationarityCheck(t *testing.T, factory Factory, schedule Schedule, iters int, tol float64) {
	t.Helper()
	m := tinyModel()
	want := exactBoltzmann(m)
	lm := img.NewLabelMap(2, 2)
	sampler := factory()
	src := rng.New(12345)
	counts := make([]int, len(want))
	// Single-worker engine with every row on one sequential stream.
	eng := newEngine(m, lm, schedule, []Sampler{sampler}, []*rng.Source{src, src})
	const burn = 200
	for it := 0; it < iters; it++ {
		eng.sweep()
		if it >= burn {
			counts[encodeState(lm, m.M)]++
		}
	}
	total := iters - burn
	for s, wantP := range want {
		got := float64(counts[s]) / float64(total)
		if math.Abs(got-wantP) > tol {
			t.Errorf("%s/%v state %04b: empirical %.4f, exact %.4f",
				sampler.Name(), schedule, s, got, wantP)
		}
	}
}

func TestExactGibbsRasterStationarity(t *testing.T) {
	stationarityCheck(t, NewExactGibbs(), Raster, 120000, 0.01)
}

func TestExactGibbsCheckerboardStationarity(t *testing.T) {
	stationarityCheck(t, NewExactGibbs(), Checkerboard, 120000, 0.01)
}

func TestFirstToFireStationarity(t *testing.T) {
	stationarityCheck(t, NewFirstToFire(), Checkerboard, 120000, 0.01)
}

func TestMetropolisStationarity(t *testing.T) {
	// Metropolis mixes more slowly; allow more iterations.
	stationarityCheck(t, NewMetropolis(), Raster, 250000, 0.012)
}

// TestSecondOrderStationarity: the 4-color sweep over an 8-neighbor
// model must also leave the Boltzmann distribution invariant.
func TestSecondOrderStationarity(t *testing.T) {
	m := tinyModel()
	m.Hood = mrf.SecondOrder
	m.LambdaDiag = 0.3
	want := exactBoltzmann(m)
	lm := img.NewLabelMap(2, 2)
	sampler := NewExactGibbs()()
	src := rng.New(777)
	counts := make([]int, len(want))
	eng := newEngine(m, lm, Checkerboard, []Sampler{sampler}, []*rng.Source{src, src})
	const iters, burn = 150000, 200
	for it := 0; it < iters; it++ {
		eng.sweep()
		if it >= burn {
			counts[encodeState(lm, m.M)]++
		}
	}
	total := iters - burn
	for s, wantP := range want {
		got := float64(counts[s]) / float64(total)
		if math.Abs(got-wantP) > 0.01 {
			t.Errorf("second-order state %04b: empirical %.4f, exact %.4f", s, got, wantP)
		}
	}
}
