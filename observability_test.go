package rsugibbs

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/checkpoint/chaostest"
)

// TestRecorderDeterminism pins the observability layer's core
// guarantee: recording reads clocks and counters only, never the RNG
// streams, so an observed run is byte-identical to an unobserved one.
// Checked on every backend at both ends of the worker range (the
// engine takes different code paths at W=1 and W=N).
func TestRecorderDeterminism(t *testing.T) {
	src := NewRand(11)
	scene := BlobScene(32, 32, 3, 6, src)
	app, err := NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}

	backends := []struct {
		name string
		b    string
	}{
		{"software", "software-gibbs"},
		{"first-to-fire", "software-first-to-fire"},
		{"metropolis", "metropolis"},
		{"rsu", "rsu"},
	}
	for _, bk := range backends {
		for _, w := range []int{1, workers} {
			solve := func(rec Recorder) string {
				t.Helper()
				cfg := Config{
					BackendName: bk.b, RSUWidth: 1,
					Iterations: 12, BurnIn: 4, Seed: 5, Workers: w,
					Recorder: rec,
				}
				s, err := NewSolver(app, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Solve(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return chaostest.Digest(res)
			}
			plain := solve(nil)
			observed := solve(NewMetrics())
			if plain != observed {
				t.Errorf("%s W=%d: observed run diverged from unobserved (digest %.12s vs %.12s)",
					bk.name, w, plain, observed)
			}
		}
	}
}
