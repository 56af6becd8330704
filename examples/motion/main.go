// Motion example: dense motion estimation over a 7x7 search window
// (M=49 labels), the paper's most RSU-friendly workload — wide label
// spaces amortize the unit's fixed costs, which is why motion sees the
// largest speedups (Figure 8). Compares software and RSU backends and
// reports the modeled HD-frame times.
package main

import (
	"context"
	"fmt"
	"log"

	rsugibbs "repro"
)

func main() {
	// Two synthetic frames: textured background, central object moving
	// by (+2, -1) pixels.
	src := rsugibbs.NewRand(11)
	scene := rsugibbs.MotionPair(128, 128, 2, -1, 3, 2, src)

	app, err := rsugibbs.NewMotion(scene.Frame1, scene.Frame2, 3, 1, 8)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("dense motion estimation, 128x128, M=49 (7x7 window)")
	for _, v := range []struct {
		name    string
		backend string
		width   int
	}{
		{"exact software Gibbs", "software-gibbs", 0},
		{"RSU-G1 (emulated)", "rsu", 1},
		{"RSU-G4 (emulated)", "rsu", 4},
	} {
		solver, err := rsugibbs.NewSolver(app, rsugibbs.Config{
			BackendName: v.backend, RSUWidth: v.width,
			Iterations: 60, BurnIn: 20, Seed: 13,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := solver.Solve(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		field := app.Field(res.MAP)
		fmt.Printf("  %-22s avg endpoint error %.4f\n", v.name, field.AvgEndpointError(scene.Truth))
	}

	rep, err := rsugibbs.Performance(rsugibbs.MotionWorkload(1920, 1080))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nModeled HD motion (400 iterations):\n")
	fmt.Printf("  GPU %.2fs -> RSU-G1 %.2fs (%.1fx) -> RSU-G4 %.2fs (%.1fx) -> accelerator %.3fs (%.1fx)\n",
		rep.GPUSeconds,
		rep.RSUG1Seconds, rep.GPUSeconds/rep.RSUG1Seconds,
		rep.RSUG4Seconds, rep.GPUSeconds/rep.RSUG4Seconds,
		rep.AccelSeconds, rep.GPUSeconds/rep.AccelSeconds)
}
