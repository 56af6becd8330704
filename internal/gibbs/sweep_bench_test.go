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

// benchSweepModel is a segmentation-shaped workload (squared-difference
// data term against per-label means over a synthetic observation) — the
// paper's canonical inner loop — at an arbitrary label count.
func benchSweepModel(w, h, m int) *mrf.Model {
	obs := make([]int, w*h)
	for i := range obs {
		obs[i] = (i*37 + i/w*11) % 64
	}
	means := make([]int, m)
	for l := range means {
		means[l] = l * 63 / (m - 1)
	}
	return &mrf.Model{
		W: w, H: h, M: m,
		T:       12,
		LambdaS: 1, LambdaD: 2,
		Singleton: func(x, y, label int) float64 {
			d := float64(obs[y*w+x] - means[label])
			return d * d
		},
		Doubleton: mrf.SquaredDiff,
	}
}

// BenchmarkSweep measures full-sweep throughput of the engine across
// schedules, label counts and the closure/compiled paths. Metrics:
// ns/site and sites/sec (checkerboard runs use all CPUs).
func BenchmarkSweep(b *testing.B) {
	const w, h = 128, 128
	for _, sched := range []Schedule{Raster, Checkerboard} {
		for _, m := range []int{2, 16, 64} {
			for _, compiled := range []bool{false, true} {
				path := "closure"
				if compiled {
					path = "compiled"
				}
				name := fmt.Sprintf("%s/M=%d/%s", schedName(sched), m, path)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					model := benchSweepModel(w, h, m)
					if compiled {
						if err := model.Compile(); err != nil {
							b.Fatal(err)
						}
					}
					opt := Options{Iterations: 1, Schedule: sched}
					if sched == Checkerboard {
						opt.Workers = runtime.GOMAXPROCS(0)
					}
					init := img.NewLabelMap(w, h)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := Run(context.Background(), model, init, NewExactGibbs(), opt, uint64(i)); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					sites := float64(w*h) * float64(b.N)
					secs := b.Elapsed().Seconds()
					if secs > 0 {
						b.ReportMetric(secs*1e9/sites, "ns/site")
						b.ReportMetric(sites/secs, "sites/sec")
					}
				})
			}
		}
	}
}

// BenchmarkSweepSteadyState builds the chain once and measures repeated
// checkerboard sweeps, isolating the per-sweep cost from run setup.
// With -benchmem this is the kernel's zero-allocation proof: the
// compiled sub-benchmarks report 0 allocs/op at any worker count
// (kernel scratch is pooled, the worker channels are sized for a full
// color pass up front).
func BenchmarkSweepSteadyState(b *testing.B) {
	const w, h, m = 256, 256, 16
	for _, compiled := range []bool{false, true} {
		path := "closure"
		if compiled {
			path = "compiled"
		}
		counts := []int{1}
		if n := runtime.GOMAXPROCS(0); n > 1 {
			counts = append(counts, n)
		}
		for _, workers := range counts {
			b.Run(fmt.Sprintf("%s/W=%d", path, workers), func(b *testing.B) {
				b.ReportAllocs()
				model := benchSweepModel(w, h, m)
				if compiled {
					if err := model.Compile(); err != nil {
						b.Fatal(err)
					}
				}
				lm := img.NewLabelMap(w, h)
				root := rng.New(7)
				samplers := make([]Sampler, workers)
				for i := range samplers {
					samplers[i] = NewExactGibbs()()
				}
				rowSrc := make([]*rng.Source, h)
				for y := range rowSrc {
					rowSrc[y] = root.Split()
				}
				eng := newEngine(model, lm, Checkerboard, samplers, rowSrc)
				eng.start()
				defer eng.stop()
				eng.sweep() // warm sampler scratch and the kernel pool
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.sweep()
				}
				b.StopTimer()
				sites := float64(w*h) * float64(b.N)
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(secs*1e9/sites, "ns/site")
				}
			})
		}
	}
}

func schedName(s Schedule) string {
	if s == Raster {
		return "raster"
	}
	return "checker"
}
