package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/rng"
	"repro/internal/serve"
)

// solveCase is one of the paper's applications at its benchmark size,
// on one backend.
type solveCase struct {
	app, backend   string
	size, labels   int
	sweeps, burnIn int
	// maxError is the ground-truth accuracy floor a job's MAP labels
	// must meet (mislabel rate, or endpoint error in pixels for motion).
	maxError float64
}

func (c solveCase) siteUpdates() float64 { return float64(c.size * c.size * c.sweeps) }

// runSolve measures the library workload: core.Solver.Solve on the
// cases in rotation, compiled, W=1, no serve and no checkpoint, one job
// at a time. Each job ends by writing its MAP labels as PGM, as the
// serving daemon and the CLIs deliver results.
func runSolve(ctx context.Context, cases []solveCase, e env) (*outcome, error) {
	r := rng.New(e.seed)
	sceneSeeds := map[string]uint64{}
	for _, app := range paperApps {
		sceneSeeds[app] = r.Uint64() >> 1
	}

	// Set-up: scene synthesis, application, compile and solver
	// construction for every case, setupReps times.
	var setups []float64
	var probs map[string]*problem
	for rep := 0; rep < setupReps; rep++ {
		t0 := now()
		probs = map[string]*problem{}
		for _, c := range cases {
			p := probs[c.app]
			if p == nil {
				err := e.tr.Time("apps.build."+c.app, func() (err error) {
					p, err = buildProblem(c.app, c.size, c.labels, sceneSeeds[c.app])
					return err
				})
				if err == nil {
					err = e.tr.Time("mrf.compile."+c.app, p.app.Model().Compile)
				}
				if err != nil {
					return nil, err
				}
				probs[c.app] = p
			}
			if _, err := core.NewSolver(p.app, core.Config{BackendName: c.backend, Iterations: c.sweeps, BurnIn: c.burnIn, Compile: true}); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	outDir := filepath.Join(e.dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	out := &outcome{e2e: map[string]float64{"setup_s": median(setups)}, layers: map[string]float64{}}
	solveMs := make([][]float64, len(cases))
	var lat []float64
	var lags []time.Duration
	var firstSeed uint64
	var firstDigest string
	wb0, err := procIOWriteBytes()
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	start := now()
	deadline := start.Add(e.window)
	last := start
	for n := 0; now().Before(deadline); n++ {
		i := n % len(cases)
		c, p := cases[i], probs[cases[i].app]
		seed := r.Uint64() >> 1
		t0 := now()
		lags = append(lags, t0.Sub(last))
		res, d, err := solveDirect(ctx, p, c.backend, c.sweeps, c.burnIn, seed, "")
		if err != nil {
			return nil, err
		}
		if n == 0 {
			firstSeed, firstDigest = seed, serve.Digest(res)
		}
		tw := now()
		path := filepath.Join(outDir, fmt.Sprintf("job-%06d.pgm", n))
		if err := img.WritePGMFile(path, &img.Gray{W: res.MAP.W, H: res.MAP.H, Pix: res.MAP.Labels}); err != nil {
			return nil, err
		}
		last = now()
		root := e.tr.NewID()
		e.tr.Add(Span{ID: root, Trace: root, Name: "job", Start: t0, End: last})
		e.tr.Add(Span{Trace: root, Parent: root, Name: "core.solve", Start: t0, End: t0.Add(d)})
		e.tr.Add(Span{Trace: root, Parent: root, Name: "result.write", Start: tw, End: last})
		out.attempted++
		if msg := check(n, c, p, res, e.seed); msg != "" {
			out.fail("%s", msg)
			continue
		}
		lat = append(lat, ms(last.Sub(t0)))
		solveMs[i] = append(solveMs[i], ms(d))
	}
	elapsed := time.Since(start)
	cpuUsed := cpuTime() - cpu0
	if out.rss, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	wb1, err := procIOWriteBytes()
	if err != nil {
		return nil, err
	}

	// Determinism: the first job, solved again untimed, must reproduce
	// its digest.
	c0 := cases[0]
	if res, _, err := solveDirect(ctx, probs[c0.app], c0.backend, c0.sweeps, c0.burnIn, firstSeed, ""); err != nil {
		return nil, err
	} else if got := serve.Digest(res); got != firstDigest {
		out.fail("job 0 re-solved: digest %s, first solve %s", got, firstDigest)
	}

	done := len(lat)
	if done == 0 {
		return nil, fmt.Errorf("no job completed with verified output in %v: %s", e.window, strings.Join(out.problems, "; "))
	}
	sites := 0.0
	for i, c := range cases {
		if len(solveMs[i]) == 0 {
			return nil, fmt.Errorf("no %s/%s job completed in %v", c.app, c.backend, e.window)
		}
		sites += float64(len(solveMs[i])) * c.siteUpdates()
	}
	out.samples = done
	out.e2e["job_latency_p50_ms"] = percentile(lat, 50)
	out.e2e["job_latency_p90_ms"] = percentile(lat, 90)
	out.e2e["jobs_per_s"] = float64(done) / elapsed.Seconds()
	out.e2e["completed_ratio"] = float64(done) / float64(out.attempted)
	out.e2e["write_bytes_per_job"] = float64(wb1-wb0) / float64(done)
	out.e2e["solve_msites_per_s"] = sites / elapsed.Seconds() / 1e6
	if e.tr == nil {
		return out, nil
	}

	L := out.layers
	L["loadgen.lag_p90_ms"] = percentile(durationsMS(lags), 90)
	L["loadgen.jobs"] = float64(done)
	L["trace.overhead_pct"] = 100 * float64(e.tr.Work()) / float64(cpuUsed)
	for i, c := range cases {
		L[layerName("core.solve_ns_per_site", c.app, c.backend)] = median(solveMs[i]) * 1e6 / c.siteUpdates()
	}
	for _, app := range paperApps {
		L["apps.build_ms."+app] = median(e.tr.Durations("apps.build." + app))
		L["mrf.compile_ms."+app] = median(e.tr.Durations("mrf.compile." + app))
		if err := chainLayers(ctx, L, probs[app], paperBackends); err != nil {
			return nil, err
		}
	}
	return out, hostProbes(L, e.dir)
}

// check validates one job's result: the sweep count, the ground-truth
// accuracy floor, and, for the default seed, the committed golden
// digest of the job's position in the rotation.
func check(n int, c solveCase, p *problem, res *core.Result, seed uint64) string {
	if res.Iterations != c.sweeps || res.MAP == nil {
		return fmt.Sprintf("job %d (%s/%s): %d sweeps, MAP present %v", n, c.app, c.backend, res.Iterations, res.MAP != nil)
	}
	if er := p.errorRate(res.MAP); er > c.maxError {
		return fmt.Sprintf("job %d (%s/%s): error %.4f above the accuracy floor %.4f", n, c.app, c.backend, er, c.maxError)
	}
	if seed == defaultSeed && n < len(goldenDigests) {
		if got := serve.Digest(res); got != goldenDigests[n] {
			return fmt.Sprintf("job %d (%s/%s): digest %s, golden %s", n, c.app, c.backend, got, goldenDigests[n])
		}
	}
	return ""
}
