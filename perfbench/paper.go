package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/rng"
)

// problem is one paper application instance plus its ground truth.
type problem struct {
	name string
	app  apps.App
	// errorRate scores a MAP labeling against the scene's ground truth:
	// the mislabel rate for segmentation and stereo, the average
	// endpoint error (pixels) for motion.
	errorRate func(*img.LabelMap) float64
}

// buildProblem synthesizes the scene and builds the application with
// the same generators and parameters internal/serve uses for a JobSpec,
// so a direct solve of a served spec draws the identical chain.
func buildProblem(app string, size, labels int, sceneSeed uint64) (*problem, error) {
	src := rng.New(sceneSeed)
	switch app {
	case "segmentation":
		sc := img.BlobScene(size, size, labels, 8, src)
		a, err := apps.NewSegmentation(sc.Image, sc.Means, 2, 12)
		if err != nil {
			return nil, err
		}
		return &problem{app, a, func(lm *img.LabelMap) float64 { return lm.MislabelRate(sc.Truth) }}, nil
	case "stereo":
		sc := img.StereoPair(size, size, labels, labels-1, 2, src)
		a, err := apps.NewStereoVision(sc.Left, sc.Right, labels, 1, 8)
		if err != nil {
			return nil, err
		}
		return &problem{app, a, func(lm *img.LabelMap) float64 { return lm.MislabelRate(sc.Truth) }}, nil
	case "motion":
		sc := img.MotionPair(size, size, 2, -1, 3, 2, src)
		a, err := apps.NewMotionEstimation(sc.Frame1, sc.Frame2, 3, 1, 8)
		if err != nil {
			return nil, err
		}
		return &problem{app, a, func(lm *img.LabelMap) float64 { return a.Field(lm).AvgEndpointError(sc.Truth) }}, nil
	}
	return nil, fmt.Errorf("unknown app %q", app)
}

// solveDirect runs one compiled W=1 library solve of the problem,
// optionally snapshotting to ckptPath after every sweep (the serve
// default), and returns the result and the Solve wall time.
func solveDirect(ctx context.Context, p *problem, backend string, sweeps, burnIn int, seed uint64, ckptPath string) (*core.Result, time.Duration, error) {
	cfg := core.Config{
		BackendName: backend,
		Iterations:  sweeps,
		BurnIn:      burnIn,
		Workers:     1,
		Compile:     true,
		Seed:        seed,
	}
	if ckptPath != "" {
		cfg.Checkpoint = &core.CheckpointSpec{Path: ckptPath, EverySweeps: 1}
	}
	s, err := core.NewSolver(p.app, cfg)
	if err != nil {
		return nil, 0, err
	}
	t0 := now()
	res, err := s.Solve(ctx)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("%s/%s seed %d: %w", p.name, backend, seed, err)
	}
	return res, d, nil
}

// labelsPGM encodes a result's MAP labels as the PGM bytes the serving
// daemon stores and returns from /labels.
func labelsPGM(res *core.Result) ([]byte, error) {
	lm := res.MAP
	if lm == nil {
		lm = res.Final
	}
	var buf bytes.Buffer
	err := img.EncodePGM(&buf, &img.Gray{W: lm.W, H: lm.H, Pix: lm.Labels})
	return buf.Bytes(), err
}
