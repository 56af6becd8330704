package rsugibbs_test

import (
	"context"
	"fmt"

	rsugibbs "repro"
)

// ExampleNewSolver runs the quickstart flow: build a synthetic scene,
// segment it with an emulated RSU-G unit, and score against the truth.
func ExampleNewSolver() {
	scene := rsugibbs.BlobScene(48, 48, 5, 6, rsugibbs.NewRand(42))
	app, err := rsugibbs.NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		panic(err)
	}
	solver, err := rsugibbs.NewSolver(app, rsugibbs.Config{
		BackendName: "rsu", Iterations: 60, BurnIn: 20, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	res, err := solver.Solve(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered:", res.MAP.MislabelRate(scene.Truth) < 0.05)
	// Output: recovered: true
}

// ExamplePerformance queries the §8 architecture models for the paper's
// HD motion workload.
func ExamplePerformance() {
	rep, err := rsugibbs.Performance(rsugibbs.MotionWorkload(1920, 1080))
	if err != nil {
		panic(err)
	}
	fmt.Printf("GPU %.2fs, RSU-G4 GPU %.2fs, accelerator bound %.3fs (%d units)\n",
		rep.GPUSeconds, rep.RSUG4Seconds, rep.AccelSeconds, rep.AcceleratorUnit)
	// Output: GPU 7.17s, RSU-G4 GPU 0.21s, accelerator bound 0.133s (336 units)
}

// ExampleSimulatePipeline validates the paper's RSU-G1 latency formula
// with the cycle-accurate pipeline model.
func ExampleSimulatePipeline() {
	stats, err := rsugibbs.SimulatePipeline(rsugibbs.PipelineConfig{
		M: 49, Width: 1, Replicas: 4,
	}, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("latency:", stats.FirstLatency, "cycles") // 7 + (M-1)
	// Output: latency: 55 cycles
}

// ExampleGelmanRubin checks chain mixing with the R-hat diagnostic.
func ExampleGelmanRubin() {
	src := rsugibbs.NewRand(3)
	chains := make([][]float64, 3)
	for i := range chains {
		chains[i] = make([]float64, 500)
		for j := range chains[i] {
			chains[i][j] = src.Normal(100, 5)
		}
	}
	rhat, err := rsugibbs.GelmanRubin(chains)
	if err != nil {
		panic(err)
	}
	fmt.Println("mixed:", rhat < 1.05)
	// Output: mixed: true
}
