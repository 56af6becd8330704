// Restoration example: Bayesian image denoising — the original Gibbs
// application (Geman & Geman 1984, the paper's ref [11]) — run with
// first-order and second-order smoothness priors, the latter on an
// emulated RSU-G8 with diagonal-neighbor registers (the paper's §9
// extension direction).
package main

import (
	"context"
	"fmt"
	"log"

	rsugibbs "repro"
)

func main() {
	// Build a clean 4-level scene and corrupt it heavily.
	src := rsugibbs.NewRand(31)
	clean := rsugibbs.NewGray(128, 128)
	levels := []uint8{34, 98, 162, 226}
	for y := 0; y < 128; y++ {
		for x := 0; x < 128; x++ {
			region := 0
			switch {
			case (x-40)*(x-40)+(y-48)*(y-48) < 900:
				region = 3
			case x > 80:
				region = 2
			case y > 88:
				region = 1
			}
			clean.Set(x, y, levels[region])
		}
	}
	noisy := clean.Clone()
	for i := range noisy.Pix {
		v := float64(noisy.Pix[i]) + src.Normal(0, 12)
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		noisy.Pix[i] = uint8(v)
	}
	if err := rsugibbs.WritePGMFile("restoration_noisy.pgm", noisy); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("noisy input MSE vs clean: %.1f\n\n", mse(noisy, clean))

	type variant struct {
		name    string
		hood    rsugibbs.Neighborhood
		diag    float64
		backend string
	}
	for _, v := range []variant{
		{"first-order, software Gibbs", rsugibbs.FirstOrder, 0, "software-gibbs"},
		{"first-order, RSU-G1", rsugibbs.FirstOrder, 0, "rsu"},
		{"second-order, software Gibbs", rsugibbs.SecondOrder, 1, "software-gibbs"},
		{"second-order, RSU-G8", rsugibbs.SecondOrder, 1, "rsu"},
	} {
		app, err := rsugibbs.NewRestoration(noisy, 4, 2, v.diag, 12, v.hood)
		if err != nil {
			log.Fatal(err)
		}
		solver, err := rsugibbs.NewSolver(app, rsugibbs.Config{
			BackendName: v.backend, Iterations: 80, BurnIn: 30, Seed: 33,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := solver.Solve(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		restored := app.Render(res.MAP)
		cycles := "-"
		if u := solver.Unit(); u != nil {
			cycles = fmt.Sprintf("%d cycles/var", u.EvalTiming().Cycles)
		}
		fmt.Printf("%-30s restored MSE %.1f  (%s)\n", v.name, mse(restored, clean), cycles)
		if v.backend == "rsu" && v.hood == rsugibbs.SecondOrder {
			if err := rsugibbs.WritePGMFile("restoration_rsu_g8.pgm", restored); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Println("\nwrote restoration_noisy.pgm and restoration_rsu_g8.pgm")
}

func mse(a, b *rsugibbs.Gray) float64 {
	sum := 0.0
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		sum += d * d
	}
	return sum / float64(len(a.Pix))
}
