// Quickstart: segment a synthetic noisy scene with an emulated RSU-G
// molecular-optical Gibbs sampling unit, and compare against exact
// software Gibbs — the smallest end-to-end use of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	rsugibbs "repro"
)

func main() {
	// A 96x96 five-region scene with Gaussian noise and known truth.
	src := rsugibbs.NewRand(42)
	scene := rsugibbs.BlobScene(96, 96, 5, 8, src)

	app, err := rsugibbs.NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		log.Fatal(err)
	}

	for _, backend := range []string{"software-gibbs", "rsu"} {
		solver, err := rsugibbs.NewSolver(app, rsugibbs.Config{
			BackendName: backend,
			Iterations:  80,
			BurnIn:      30,
			Seed:        7,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := solver.Solve(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s mislabel rate %.4f  final energy %.0f\n",
			res.SamplerName, res.MAP.MislabelRate(scene.Truth),
			res.EnergyTrace[len(res.EnergyTrace)-1])
	}

	// What would this workload cost on the paper's architectures?
	rep, err := rsugibbs.Performance(rsugibbs.SegmentationWorkload(1920, 1080))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nModeled HD segmentation (5000 iterations):\n")
	fmt.Printf("  GPU %.2fs | Opt GPU %.2fs | RSU-G1 GPU %.2fs | accelerator %.3fs (%d units, %.2f mW each)\n",
		rep.GPUSeconds, rep.OptGPUSeconds, rep.RSUG1Seconds,
		rep.AccelSeconds, rep.AcceleratorUnit, rep.UnitPowerMW)
}
