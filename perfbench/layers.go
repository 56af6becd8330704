package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/gibbs"
	"repro/internal/mrf"
	"repro/internal/rng"
	"repro/internal/sampler"
)

// The probes below time one layer each from outside, by calling its
// public functions the way the layer above does. They run only in the
// traced run, after the measured window.

// factoryFor builds the backend's per-worker sampler factory through
// the registry, as core.NewSolver does.
func factoryFor(p *problem, backend string) (gibbs.Factory, error) {
	be, ok := sampler.Lookup(backend)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q", backend)
	}
	inst, err := be.New(sampler.BuildSpec{App: p.app})
	if err != nil {
		return nil, err
	}
	return inst.Factory(), nil
}

// probeWork is the wall time one probe run aims for, and probeReps how
// many runs each probe takes the median of.
const (
	probeWork = 40 * time.Millisecond
	probeReps = 7
)

// probeSweeps sizes a probe run: the number of sweeps, between 2 and
// 2000, that takes about probeWork at the given cost per sweep.
func probeSweeps(perSweep time.Duration) int {
	return max(2, min(2000, int(probeWork/max(perSweep, 1))))
}

// compiledModel returns a freshly built, compiled model of the problem,
// as core.Solver.Solve prepares one for every solve: apps build a new
// model on each Model call.
func compiledModel(p *problem) (*mrf.Model, error) {
	m := p.app.Model()
	return m, m.Compile()
}

// sweepRowNsPerSite times checkerboard sweeps made directly of
// mrf.Kernel.SweepRow calls (one per color-row, stride 2), the fused
// kernel under the software-gibbs engine. Returns 0 when the model has
// no fused kernel.
func sweepRowNsPerSite(p *problem) (float64, error) {
	m, err := compiledModel(p)
	if err != nil {
		return 0, err
	}
	k := m.Kernel()
	if k == nil || !k.Ready() {
		return 0, nil
	}
	lm := p.app.InitLabels()
	root := rng.New(1)
	rows := make([]*rng.Source, m.H)
	for y := range rows {
		rows[y] = root.Split()
	}
	sc := mrf.GetScratch(m.M)
	defer mrf.PutScratch(sc)
	sweep := func(n int) func() error {
		return func() error {
			for s := 0; s < n; s++ {
				for color := 0; color < m.Hood.Colors(); color++ {
					for y := 0; y < m.H; y++ {
						if x0, ok := m.Hood.RowStride(color, y); ok {
							k.SweepRow(lm, y, x0, 2, rows[y], sc)
						}
					}
				}
			}
			return nil
		}
	}
	one, _ := medianDuration(3, sweep(1))
	n := probeSweeps(one)
	d, err := medianDuration(probeReps, sweep(n))
	return float64(d.Nanoseconds()) / float64(n*m.W*m.H), err
}

// chainCosts are gibbs.Run costs per site-update, split by bookkeeping.
type chainCosts struct {
	sweepNs, trackNs, energyNs float64
}

// chainProbe times gibbs.Run with no bookkeeping and, when bookkeeping
// is set, with mode tracking only and with the energy trace only; each
// bookkeeping cost is the median paired difference from the bare run
// of the same rep, so host drift hits both sides alike.
func chainProbe(ctx context.Context, p *problem, backend string, bookkeeping bool) (chainCosts, error) {
	f, err := factoryFor(p, backend)
	if err != nil {
		return chainCosts{}, err
	}
	m, err := compiledModel(p)
	if err != nil {
		return chainCosts{}, err
	}
	init := p.app.InitLabels()
	timeRun := func(opt gibbs.Options, seed uint64) (float64, error) {
		t0 := now()
		_, err := gibbs.Run(ctx, m, init, f, opt, seed)
		return float64(time.Since(t0).Nanoseconds()), err
	}
	base := gibbs.Options{Iterations: 2, Schedule: gibbs.Checkerboard, Workers: 1}
	two, err := timeRun(base, 1)
	if err != nil {
		return chainCosts{}, err
	}
	base.Iterations = probeSweeps(time.Duration(two / 2))
	track, energy := base, base
	track.TrackMode = true
	energy.RecordEnergyEvery = 1
	var tb, dt, de []float64
	for r := 0; r < probeReps; r++ {
		seed := uint64(r + 1)
		b, err := timeRun(base, seed)
		if err != nil {
			return chainCosts{}, err
		}
		tb = append(tb, b)
		if !bookkeeping {
			continue
		}
		t, err := timeRun(track, seed)
		if err != nil {
			return chainCosts{}, err
		}
		e, err := timeRun(energy, seed)
		if err != nil {
			return chainCosts{}, err
		}
		dt, de = append(dt, t-b), append(de, e-b)
	}
	sites := float64(base.Iterations * m.W * m.H)
	return chainCosts{sweepNs: median(tb) / sites, trackNs: median(dt) / sites, energyNs: median(de) / sites}, nil
}

// ckptCosts are the checkpoint layer's per-save costs for one spec.
type ckptCosts struct {
	captureUs, encodeUs, saveUs float64
	bytesFirst, bytesLast       int
}

// checkpointProbe measures the durability path core arms for a served
// job (mode tracking and energy trace on, a snapshot after every
// sweep):
//   - capture: gibbs.Run with a no-op Sink minus gibbs.Run with no
//     policy (median paired difference), per save;
//   - encode and save: checkpoint.Encode and checkpoint.Save (temporary
//     file write, fsync and rename in dir) of each snapshot as a run
//     takes it, median over the run;
//   - bytes of the first and last snapshot of the run.
func checkpointProbe(ctx context.Context, p *problem, backend string, sweeps, burnIn int, dir string) (ckptCosts, error) {
	f, err := factoryFor(p, backend)
	if err != nil {
		return ckptCosts{}, err
	}
	m, err := compiledModel(p)
	if err != nil {
		return ckptCosts{}, err
	}
	init := p.app.InitLabels()
	opt := gibbs.Options{
		Iterations: sweeps, BurnIn: burnIn, Schedule: gibbs.Checkerboard, Workers: 1,
		TrackMode: true, RecordEnergyEvery: 1,
	}
	ck := opt
	ck.Checkpoint = &gibbs.CheckpointPolicy{EverySweeps: 1, Sink: func(*checkpoint.Snapshot) error { return nil }}
	var diffs []float64
	for r := 0; r < probeReps; r++ {
		var d [2]float64
		for i, o := range []gibbs.Options{opt, ck} {
			t0 := now()
			if _, err := gibbs.Run(ctx, m, init, f, o, uint64(r+1)); err != nil {
				return ckptCosts{}, err
			}
			d[i] = float64(time.Since(t0).Nanoseconds())
		}
		diffs = append(diffs, d[1]-d[0])
	}
	saves := float64(sweeps - 1) // no save after the final sweep
	out := ckptCosts{captureUs: median(diffs) / saves / 1e3}

	// Encode and Save every snapshot of one more run as it is taken, so
	// the saves interleave with sweeps as they do inside a solve.
	path := filepath.Join(dir, "probe.ckpt")
	var enc, save []float64
	timed := opt
	timed.Checkpoint = &gibbs.CheckpointPolicy{EverySweeps: 1, Sink: func(s *checkpoint.Snapshot) error {
		t0 := now()
		data, err := checkpoint.Encode(s)
		if err != nil {
			return err
		}
		t1 := now()
		if err := checkpoint.Save(path, s); err != nil {
			return err
		}
		enc, save = append(enc, us(t1.Sub(t0))), append(save, us(time.Since(t1)))
		if out.bytesFirst == 0 {
			out.bytesFirst = len(data)
		}
		out.bytesLast = len(data)
		return nil
	}}
	if _, err := gibbs.Run(ctx, m, init, f, timed, 1); err != nil {
		return ckptCosts{}, err
	}
	if len(save) == 0 {
		return ckptCosts{}, fmt.Errorf("checkpoint probe: run of %d sweeps produced no snapshots", sweeps)
	}
	out.encodeUs, out.saveUs = median(enc), median(save)
	return out, nil
}

// buildProbe times apps.Build (scene synthesis plus application
// construction) and mrf.Model.Compile, median of probeReps, in ms.
func buildProbe(app string, size, labels int, sceneSeed uint64) (buildMs, compileMs float64, err error) {
	var tb, tc []float64
	for r := 0; r < probeReps; r++ {
		t0 := now()
		p, err := buildProblem(app, size, labels, sceneSeed)
		if err != nil {
			return 0, 0, err
		}
		t1 := now()
		if err := p.app.Model().Compile(); err != nil {
			return 0, 0, err
		}
		tb = append(tb, ms(t1.Sub(t0)))
		tc = append(tc, ms(time.Since(t1)))
	}
	return median(tb), median(tc), nil
}
