package gibbs

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rng"
)

// engineModel builds an M-label segmentation-like model with a
// non-trivial data term, optionally second-order.
func engineModel(w, h, m int, hood mrf.Neighborhood) *mrf.Model {
	means := make([]int, m)
	for l := range means {
		means[l] = l * 63 / (m - 1)
	}
	return &mrf.Model{
		W: w, H: h, M: m,
		T:       9,
		LambdaS: 1, LambdaD: 2,
		Hood: hood, LambdaDiag: 1,
		Singleton: func(x, y, label int) float64 {
			obs := (x*7 + y*13) % 64
			d := float64(obs - means[label])
			return d * d
		},
		Doubleton: mrf.SquaredDiff,
	}
}

func mustRun(t *testing.T, m *mrf.Model, factory Factory, opt Options, seed uint64) *Result {
	t.Helper()
	init := img.NewLabelMap(m.W, m.H)
	res, err := Run(context.Background(), m, init, factory, opt, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameLabels(a, b *img.LabelMap) bool {
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	return true
}

// TestCompiledPathByteIdentical: the compiled table path must reproduce
// the closure path's label maps byte for byte — for every software
// sampler kernel, both neighborhood orders and both schedules. (The RSU
// backend's leg of this equivalence lives in internal/core, which can
// import the application layer.)
func TestCompiledPathByteIdentical(t *testing.T) {
	factories := map[string]Factory{
		"exact-gibbs":   NewExactGibbs(),
		"first-to-fire": NewFirstToFire(),
		"metropolis":    NewMetropolis(),
	}
	for _, hood := range []mrf.Neighborhood{mrf.FirstOrder, mrf.SecondOrder} {
		for _, sched := range []Schedule{Raster, Checkerboard} {
			for name, factory := range factories {
				t.Run(fmt.Sprintf("%v/%v/%s", hood, sched, name), func(t *testing.T) {
					opt := Options{Iterations: 12, BurnIn: 4, Schedule: sched, Workers: 3, TrackMode: true, RecordEnergyEvery: 1}
					slow := engineModel(19, 17, 4, hood)
					fast := engineModel(19, 17, 4, hood)
					if err := fast.Compile(); err != nil {
						t.Fatal(err)
					}
					a := mustRun(t, slow, factory, opt, 99)
					b := mustRun(t, fast, factory, opt, 99)
					if !sameLabels(a.Final, b.Final) {
						t.Fatal("compiled path diverged from closure path (final labels)")
					}
					if !sameLabels(a.MAP, b.MAP) {
						t.Fatal("compiled path diverged from closure path (MAP)")
					}
					for i := range a.EnergyTrace {
						if a.EnergyTrace[i] != b.EnergyTrace[i] {
							t.Fatalf("energy trace diverged at %d: %v vs %v", i, a.EnergyTrace[i], b.EnergyTrace[i])
						}
					}
				})
			}
		}
	}
}

// TestWorkerCountInvariance: with row-attached RNG streams, a seeded
// checkerboard chain must produce identical label maps for W=1 and
// W=NumCPU (and an awkward in-between count), compiled or not.
func TestWorkerCountInvariance(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		for _, hood := range []mrf.Neighborhood{mrf.FirstOrder, mrf.SecondOrder} {
			t.Run(fmt.Sprintf("compiled=%v/%v", compiled, hood), func(t *testing.T) {
				m := engineModel(33, 29, 5, hood)
				if compiled {
					if err := m.Compile(); err != nil {
						t.Fatal(err)
					}
				}
				opt := Options{Iterations: 15, BurnIn: 5, Schedule: Checkerboard, TrackMode: true}
				opt.Workers = 1
				serial := mustRun(t, m, NewExactGibbs(), opt, 4242)
				for _, w := range []int{3, runtime.NumCPU(), 64} {
					opt.Workers = w
					par := mustRun(t, m, NewExactGibbs(), opt, 4242)
					if !sameLabels(serial.Final, par.Final) {
						t.Fatalf("Workers=%d final labels differ from serial", w)
					}
					if !sameLabels(serial.MAP, par.MAP) {
						t.Fatalf("Workers=%d MAP differs from serial", w)
					}
				}
			})
		}
	}
}

// TestEngineStridedCoverage: one engine sweep must update exactly the
// sites the schedule owns — the strided loop may not miss or duplicate
// a site of either color class, and the raster pass visits every site.
func TestEngineStridedCoverage(t *testing.T) {
	for _, sched := range []Schedule{Raster, Checkerboard} {
		for _, hood := range []mrf.Neighborhood{mrf.FirstOrder, mrf.SecondOrder} {
			m := engineModel(11, 7, 3, hood)
			visited := img.NewLabelMap(m.W, m.H)
			counter := &countingSampler{hits: visited}
			eng := newEngine(m, img.NewLabelMap(m.W, m.H), sched, []Sampler{counter}, rowRepeat(m.H))
			eng.sweep()
			for y := 0; y < m.H; y++ {
				for x := 0; x < m.W; x++ {
					if got := visited.At(x, y); got != 1 {
						t.Fatalf("%v/%v: site (%d,%d) visited %d times", sched, hood, x, y, got)
					}
				}
			}
		}
	}
}

// TestRowStrideMatchesColorOf: the strided iteration must enumerate
// exactly the ColorOf classes.
func TestRowStrideMatchesColorOf(t *testing.T) {
	for _, hood := range []mrf.Neighborhood{mrf.FirstOrder, mrf.SecondOrder} {
		for color := 0; color < hood.Colors(); color++ {
			for y := 0; y < 6; y++ {
				inRow := map[int]bool{}
				if x0, ok := hood.RowStride(color, y); ok {
					for x := x0; x < 9; x += 2 {
						inRow[x] = true
					}
				}
				for x := 0; x < 9; x++ {
					want := hood.ColorOf(x, y) == color
					if inRow[x] != want {
						t.Fatalf("%v color %d row %d x %d: strided=%v colorOf=%v",
							hood, color, y, x, inRow[x], want)
					}
				}
			}
		}
	}
}

// countingSampler records site visits instead of sampling.
type countingSampler struct{ hits *img.LabelMap }

func (c *countingSampler) Name() string { return "counting" }

func (c *countingSampler) SampleSite(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int {
	c.hits.Labels[y*m.W+x]++
	return lm.At(x, y)
}

func rowRepeat(h int) []*rng.Source {
	srcs := make([]*rng.Source, h)
	for i := range srcs {
		srcs[i] = rng.New(uint64(i))
	}
	return srcs
}
