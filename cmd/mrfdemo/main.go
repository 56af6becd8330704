// Command mrfdemo runs one of the paper's vision applications end to
// end: it reads (or synthesizes) input images, runs MRF-MCMC inference
// on the selected backend, writes the result as PGM, and prints quality
// and modeled-performance summaries.
//
// Usage:
//
//	mrfdemo -app segmentation [-in image.pgm] [-labels 5]
//	mrfdemo -app motion
//	mrfdemo -app stereo
//	mrfdemo -app restoration -order 2
//	mrfdemo -app segmentation -backend rsu -width 4 -iters 200
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/obs"
	"repro/internal/rng"
)

func main() {
	appName := flag.String("app", "segmentation", "segmentation | motion | stereo | restoration")
	backend := flag.String("backend", "rsu", "sampling backend: "+strings.Join(core.Backends(), " | "))
	width := flag.Int("width", 1, "RSU-G width K")
	iters := flag.Int("iters", 100, "MCMC iterations")
	burn := flag.Int("burn", 30, "burn-in iterations")
	inPath := flag.String("in", "", "input PGM (synthesized if empty)")
	labels := flag.Int("labels", 5, "segmentation label count")
	size := flag.Int("size", 128, "synthetic scene size")
	outDir := flag.String("out", ".", "output directory")
	seed := flag.Uint64("seed", 1, "random seed")
	order := flag.Int("order", 1, "restoration neighborhood order (1 or 2)")
	ckptPath := flag.String("checkpoint", "", "checkpoint file (enables periodic snapshots; empty disables)")
	ckptEvery := flag.Int("ckpt-every", 10, "checkpoint every N sweeps (with -checkpoint)")
	ckptInterval := flag.Duration("ckpt-interval", 0, "also checkpoint every D wall time (with -checkpoint)")
	resume := flag.Bool("resume", false, "resume from -checkpoint if it exists")
	metricsOut := flag.String("metrics", "", "write a metrics snapshot (JSON) to this file after the run")
	httpAddr := flag.String("http", "", "serve live /metrics, /debug/vars and /debug/pprof on this address")
	timeout := flag.Duration("timeout", 0, "abort the run after this wall time (0: none); the chain stops at a sweep boundary and partial outputs are flushed")
	flag.Parse()

	// SIGINT/SIGTERM cancel the run context: the chain stops at the next
	// sweep boundary, a final checkpoint is written (when -checkpoint is
	// set), and partial outputs are flushed instead of dying mid-write.
	// -timeout bounds the same context, so expiry takes the same graceful
	// path as an interrupt.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var ckpt *core.CheckpointSpec
	if *ckptPath != "" {
		ckpt = &core.CheckpointSpec{
			Path:        *ckptPath,
			EverySweeps: *ckptEvery,
			Every:       *ckptInterval,
			Now:         time.Now,
			Resume:      *resume,
		}
	} else if *resume {
		fmt.Fprintln(os.Stderr, "mrfdemo: -resume needs -checkpoint")
		os.Exit(2)
	}

	var rec *obs.Registry
	if *metricsOut != "" || *httpAddr != "" {
		rec = obs.New()
	}
	if *httpAddr != "" {
		addr, shutdown, err := obs.Serve(*httpAddr, rec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrfdemo: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = shutdown(sctx)
		}()
		fmt.Printf("observability endpoint on http://%s\n", addr)
	}

	if err := run(ctx, *appName, *backend, *width, *iters, *burn, *inPath, *labels, *size, *outDir, *seed, *order, ckpt, rec); err != nil {
		fmt.Fprintf(os.Stderr, "mrfdemo: %v\n", err)
		os.Exit(1)
	}
	if *metricsOut != "" {
		if err := rec.Snapshot().WriteFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "mrfdemo: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics snapshot -> %s\n", *metricsOut)
	}
}

func run(ctx context.Context, appName, backendName string, width, iters, burn int, inPath string, labels, size int, outDir string, seed uint64, order int, ckpt *core.CheckpointSpec, rec *obs.Registry) error {
	cfg := core.Config{
		BackendName: backendName, RSUWidth: width,
		Iterations: iters, BurnIn: burn, Seed: seed,
		Checkpoint: ckpt,
	}
	if rec != nil {
		// Assigned only when non-nil: a nil *obs.Registry inside the
		// interface would dodge the recorder's nil fast path.
		cfg.Recorder = rec
	}
	// Fail fast on a bad backend name or chain budget, before any scene
	// is synthesized or read.
	if err := cfg.Validate(); err != nil {
		return err
	}
	src := rng.New(seed)

	switch appName {
	case "segmentation":
		var image *img.Gray
		var truth *img.LabelMap
		if inPath != "" {
			var err error
			image, err = img.ReadPGMFile(inPath)
			if err != nil {
				return err
			}
		} else {
			scene := img.BlobScene(size, size, labels, 8, src)
			image, truth = scene.Image, scene.Truth
			if err := img.WritePGMFile(filepath.Join(outDir, "segmentation_input.pgm"), image); err != nil {
				return err
			}
		}
		means := apps.KMeans1D(image, labels, 20)
		app, err := apps.NewSegmentation(image, means, 2, 12)
		if err != nil {
			return err
		}
		res, err := solve(ctx, app, cfg)
		if err != nil {
			return err
		}
		palette := make([]uint8, labels)
		for i, m := range app.Means6 {
			palette[i] = m << 2
		}
		out := filepath.Join(outDir, "segmentation_labels.pgm")
		if err := img.WritePGMFile(out, res.MAP.Render(palette)); err != nil {
			return err
		}
		if err := img.WritePGMFile(filepath.Join(outDir, "segmentation_confidence.pgm"), res.Confidence); err != nil {
			return err
		}
		fmt.Printf("segmentation: %dx%d, M=%d, backend=%s -> %s\n", image.W, image.H, labels, backendName, out)
		if truth != nil {
			fmt.Printf("  mislabel rate vs ground truth: %.4f\n", res.MAP.MislabelRate(truth))
		}
		fmt.Printf("  final energy: %s\n", finalEnergy(res.EnergyTrace))
		return nil

	case "motion":
		scene := img.MotionPair(size, size, 2, -1, 3, 2, src)
		app, err := apps.NewMotionEstimation(scene.Frame1, scene.Frame2, 3, 1, 8)
		if err != nil {
			return err
		}
		res, err := solve(ctx, app, cfg)
		if err != nil {
			return err
		}
		field := app.Field(res.MAP)
		// Render the field with the optical-flow color wheel.
		out := filepath.Join(outDir, "motion_flow.ppm")
		if err := img.WritePPMFile(out, img.FlowToColor(field, 3)); err != nil {
			return err
		}
		fmt.Printf("motion: %dx%d, M=49, backend=%s -> %s\n", size, size, backendName, out)
		fmt.Printf("  average endpoint error: %.4f\n", field.AvgEndpointError(scene.Truth))
		return nil

	case "stereo":
		scene := img.StereoPair(size, size, 5, 3, 2, src)
		app, err := apps.NewStereoVision(scene.Left, scene.Right, 5, 1, 8)
		if err != nil {
			return err
		}
		res, err := solve(ctx, app, cfg)
		if err != nil {
			return err
		}
		palette := []uint8{0, 60, 120, 180, 240}
		out := filepath.Join(outDir, "stereo_disparity.pgm")
		if err := img.WritePGMFile(out, res.MAP.Render(palette)); err != nil {
			return err
		}
		fmt.Printf("stereo: %dx%d, M=5, backend=%s -> %s\n", size, size, backendName, out)
		fmt.Printf("  mislabel rate vs ground truth: %.4f\n", res.MAP.MislabelRate(scene.Truth))
		return nil

	case "restoration":
		var observed *img.Gray
		if inPath != "" {
			var err error
			observed, err = img.ReadPGMFile(inPath)
			if err != nil {
				return err
			}
		} else {
			scene := img.BlobScene(size, size, 4, 15, src)
			observed = scene.Image
		}
		hood := mrf.FirstOrder
		lambdaDiag := 0.0
		if order == 2 {
			hood = mrf.SecondOrder
			lambdaDiag = 1
		}
		app, err := apps.NewRestoration(observed, 4, 2, lambdaDiag, 12, hood)
		if err != nil {
			return err
		}
		res, err := solve(ctx, app, cfg)
		if err != nil {
			return err
		}
		out := filepath.Join(outDir, "restoration_out.pgm")
		if err := img.WritePGMFile(out, app.Render(res.MAP)); err != nil {
			return err
		}
		fmt.Printf("restoration: %dx%d, %v prior, backend=%s -> %s\n",
			observed.W, observed.H, hood, backendName, out)
		fmt.Printf("  final energy: %s\n", finalEnergy(res.EnergyTrace))
		return nil
	}
	return fmt.Errorf("unknown app %q", appName)
}

func solve(ctx context.Context, app apps.App, cfg core.Config) (*core.Result, error) {
	s, err := core.NewSolver(app, cfg)
	if err != nil {
		return nil, err
	}
	res, err := s.Solve(ctx)
	if err != nil {
		if res != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// Graceful interruption: the final checkpoint (if armed) is
			// already durable; flush what the chain produced so far.
			fmt.Printf("  interrupted after %d/%d sweeps; flushing partial output\n",
				res.Iterations, cfg.Iterations)
			return res, nil
		}
		return nil, err
	}
	return res, nil
}

// finalEnergy formats the last energy-trace entry ("n/a" when the run
// was interrupted before the first sweep completed).
func finalEnergy(trace []float64) string {
	if len(trace) == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f", trace[len(trace)-1])
}
