// Segmentation example: the paper's first evaluation workload (§8.1).
// Generates a noisy multi-region scene, estimates label means with
// k-means, then compares every backend — exact Gibbs, ideal
// first-to-fire, Metropolis, and RSU-G at widths 1 and 4 — on quality
// and modeled hardware latency. Writes input and result PGMs.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	rsugibbs "repro"
)

func main() {
	src := rsugibbs.NewRand(3)
	scene := rsugibbs.BlobScene(128, 128, 5, 10, src)
	if err := rsugibbs.WritePGMFile("segmentation_input.pgm", scene.Image); err != nil {
		log.Fatal(err)
	}

	// Estimate the label means from the image itself (as a real user
	// would; the scene's true means are only used for scoring).
	means := rsugibbs.KMeans1D(scene.Image, 5, 20)
	app, err := rsugibbs.NewSegmentation(scene.Image, means, 2, 12)
	if err != nil {
		log.Fatal(err)
	}

	type variant struct {
		name string
		cfg  rsugibbs.Config
	}
	variants := []variant{
		{"exact software Gibbs", rsugibbs.Config{BackendName: "software-gibbs"}},
		{"ideal first-to-fire", rsugibbs.Config{BackendName: "software-first-to-fire"}},
		{"Metropolis", rsugibbs.Config{BackendName: "metropolis"}},
		{"RSU-G1 (emulated)", rsugibbs.Config{BackendName: "rsu", RSUWidth: 1}},
		{"RSU-G4 (emulated)", rsugibbs.Config{BackendName: "rsu", RSUWidth: 4}},
	}

	fmt.Printf("%-22s %-14s %-14s %s\n", "backend", "mislabel rate", "final energy", "cycles/variable")
	var best *rsugibbs.Result
	for _, v := range variants {
		cfg := v.cfg
		cfg.Iterations, cfg.BurnIn, cfg.Seed = 120, 40, 9
		solver, err := rsugibbs.NewSolver(app, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := solver.Solve(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		cycles := "-"
		if u := solver.Unit(); u != nil {
			cycles = fmt.Sprintf("%d", u.EvalTiming().Cycles)
		}
		fmt.Printf("%-22s %-14.4f %-14.0f %s\n", v.name,
			res.MAP.MislabelRate(scene.Truth),
			res.EnergyTrace[len(res.EnergyTrace)-1], cycles)
		if v.name == "RSU-G1 (emulated)" {
			best = res
		}
	}

	// Write the RSU result rendered with the estimated means.
	palette := make([]uint8, len(app.Means6))
	for i, m := range app.Means6 {
		palette[i] = m << 2
	}
	if err := rsugibbs.WritePGMFile("segmentation_rsu.pgm", best.MAP.Render(palette)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote segmentation_input.pgm and segmentation_rsu.pgm")
	if _, err := os.Stat("segmentation_rsu.pgm"); err != nil {
		log.Fatal(err)
	}
}
