// Stereo example: disparity estimation on a synthetic rectified pair
// (paper §8.1, evaluated on the CPU). Shows the RSU backend recovering
// the raised central plane, and the single-core CPU speedup estimate
// the paper reports as "over 100".
package main

import (
	"context"
	"fmt"
	"log"

	rsugibbs "repro"
)

func main() {
	src := rsugibbs.NewRand(21)
	scene := rsugibbs.StereoPair(128, 96, 5, 3, 2, src)

	app, err := rsugibbs.NewStereo(scene.Left, scene.Right, 5, 1, 8)
	if err != nil {
		log.Fatal(err)
	}

	for _, v := range []struct {
		name    string
		backend string
	}{
		{"exact software Gibbs", "software-gibbs"},
		{"RSU-G1 (emulated)", "rsu"},
	} {
		solver, err := rsugibbs.NewSolver(app, rsugibbs.Config{
			BackendName: v.backend, Iterations: 80, BurnIn: 30, Seed: 23,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := solver.Solve(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s mislabel rate %.4f\n", v.name, res.MAP.MislabelRate(scene.Truth))
		if v.backend == "rsu" {
			palette := []uint8{0, 60, 120, 180, 240}
			if err := rsugibbs.WritePGMFile("stereo_disparity.pgm", res.MAP.Render(palette)); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Println("wrote stereo_disparity.pgm")
}
