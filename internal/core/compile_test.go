package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rng"
)

func newSegApp(scene img.Scene) (apps.App, error) {
	return apps.NewSegmentation(scene.Image, scene.Means, 2, 12)
}

func newRestApp(scene img.Scene) (apps.App, error) {
	return apps.NewRestoration(scene.Image, 4, 2, 1, 12, mrf.SecondOrder)
}

// TestCompileEquivalenceAllBackends: Config.Compile must not change a
// single sampled label on any backend — exact Gibbs, first-to-fire,
// Metropolis and the emulated RSU-G — for first- and second-order
// neighborhoods. Together with the sampler-level test in internal/gibbs
// this proves the compiled fast path is a pure optimization.
func TestCompileEquivalenceAllBackends(t *testing.T) {
	src := rng.New(31)
	scene := img.BlobScene(24, 20, 4, 7, src)

	backends := []string{"software-gibbs", "software-first-to-fire", "metropolis", "rsu"}
	for _, hood := range []mrf.Neighborhood{mrf.FirstOrder, mrf.SecondOrder} {
		for _, backend := range backends {
			t.Run(fmt.Sprintf("%v/%v", backend, hood), func(t *testing.T) {
				runOnce := func(compile bool) *Result {
					cfg := Config{
						BackendName: backend, Iterations: 10, BurnIn: 3,
						Workers: 4, Compile: compile, Seed: 77,
					}
					var solver *Solver
					var err error
					if hood == mrf.FirstOrder {
						a, aerr := newSegApp(scene)
						if aerr != nil {
							t.Fatal(aerr)
						}
						solver, err = NewSolver(a, cfg)
					} else {
						a, aerr := newRestApp(scene)
						if aerr != nil {
							t.Fatal(aerr)
						}
						solver, err = NewSolver(a, cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					res, err := solver.Solve(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				plain := runOnce(false)
				compiled := runOnce(true)
				for i := range plain.Final.Labels {
					if plain.Final.Labels[i] != compiled.Final.Labels[i] {
						t.Fatalf("final labels diverge at site %d", i)
					}
					if plain.MAP.Labels[i] != compiled.MAP.Labels[i] {
						t.Fatalf("MAP diverges at site %d", i)
					}
				}
				for i := range plain.EnergyTrace {
					if plain.EnergyTrace[i] != compiled.EnergyTrace[i] {
						t.Fatalf("energy trace diverges at iteration %d", i)
					}
				}
			})
		}
	}
}

// TestCompileWithAnnealEquivalence: the compiled rate LUT is retuned on
// every annealing step; cooled chains must stay byte-identical too.
func TestCompileWithAnnealEquivalence(t *testing.T) {
	src := rng.New(5)
	scene := img.BlobScene(20, 18, 3, 7, src)
	run := func(compile bool) *Result {
		app, err := newSegApp(scene)
		if err != nil {
			t.Fatal(err)
		}
		solver, err := NewSolver(app, Config{
			BackendName: "software-gibbs", Iterations: 12, BurnIn: 4, Workers: 2,
			Compile: compile, Seed: 9, Anneal: &AnnealSpec{StartT: 40, Rate: 0.8},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, compiled := run(false), run(true)
	for i := range plain.Final.Labels {
		if plain.Final.Labels[i] != compiled.Final.Labels[i] {
			t.Fatalf("annealed compiled run diverges at site %d", i)
		}
	}
}
