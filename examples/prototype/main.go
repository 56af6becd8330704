// Prototype example: the paper's §7 macro-scale RSU-G2 bench, emulated.
// Reproduces both prototype experiments: (1) the parameterization sweep
// — commanded vs achieved relative probabilities from 1:1 to 255:1 —
// and (2) a two-label segmentation after 10 MCMC iterations (Figure 7),
// with the bench's wall-clock estimate (the laser-controller interface
// dominates at ~60 s/iteration).
package main

import (
	"context"
	"fmt"
	"log"

	rsugibbs "repro"
)

func main() {
	// Experiment 1: parameterization accuracy.
	p := rsugibbs.NewPrototype()
	src := rsugibbs.NewRand(5)
	fmt.Println("commanded ratio -> measured (one laser setting, 50k races each)")
	for _, ratio := range []float64{1, 4, 16, 30, 64, 128, 255} {
		m := p.MeasureRatio(ratio, 50000, src)
		fmt.Printf("  %6.0f : 1  ->  %8.1f : 1   (%.1f%% off)\n",
			ratio, m, 100*abs(m-ratio)/ratio)
	}

	// Experiment 2: Figure 7 — two-label segmentation in 10 iterations.
	scene := rsugibbs.TwoRegionScene(50, 67, 10, src)
	app, err := rsugibbs.NewSegmentation(scene.Image, scene.Means, 2, 40)
	if err != nil {
		log.Fatal(err)
	}
	solver, err := rsugibbs.NewSolver(app, rsugibbs.Config{
		BackendName: "prototype", Iterations: 10, BurnIn: 2, Seed: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := solver.Solve(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if err := rsugibbs.WritePGMFile("prototype_input.pgm", scene.Image); err != nil {
		log.Fatal(err)
	}
	if err := rsugibbs.WritePGMFile("prototype_iter10.pgm", res.Final.Render([]uint8{0, 255})); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 7 rerun: 50x67 image, 10 iterations on the emulated bench\n")
	fmt.Printf("  mislabel rate vs truth: %.3f\n", res.Final.MislabelRate(scene.Truth))
	fmt.Println("  wrote prototype_input.pgm and prototype_iter10.pgm")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
