package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/apps"
	"repro/internal/arch"
	"repro/internal/img"
	"repro/internal/rng"
	"repro/internal/rsu"
)

func segApp(t testing.TB) (*apps.Segmentation, img.Scene) {
	t.Helper()
	scene := img.BlobScene(24, 24, 4, 6, rng.New(1))
	app, err := apps.NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	return app, scene
}

func TestNewSolverValidation(t *testing.T) {
	app, _ := segApp(t)
	cases := []Config{
		{Iterations: 0},
		{Iterations: 10, BurnIn: -1},
		{Iterations: 10, BurnIn: 10},
	}
	for _, cfg := range cases {
		if _, err := NewSolver(app, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := NewSolver(nil, Config{Iterations: 1}); err == nil {
		t.Error("nil app accepted")
	}
}

func TestSolverBackends(t *testing.T) {
	app, scene := segApp(t)
	for _, backend := range []string{"software-gibbs", "software-first-to-fire", "metropolis", "rsu"} {
		s, err := NewSolver(app, Config{
			BackendName: backend, Iterations: 40, BurnIn: 15, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if (s.Unit() != nil) != (backend == "rsu") {
			t.Errorf("%v: unexpected unit presence", backend)
		}
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if res.MAP == nil || len(res.EnergyTrace) != 40 {
			t.Fatalf("%v: incomplete result", backend)
		}
		// Metropolis mixes slower; grant it a looser bound.
		limit := 0.10
		if backend == "metropolis" {
			limit = 0.25
		}
		if rate := res.MAP.MislabelRate(scene.Truth); rate > limit {
			t.Errorf("%v: mislabel rate %v", backend, rate)
		}
	}
}

func TestSolverRSUWidth(t *testing.T) {
	app, _ := segApp(t)
	s, err := NewSolver(app, Config{BackendName: "rsu", RSUWidth: 4, Iterations: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Unit().Config().Width; got != 4 {
		t.Fatalf("unit width %d", got)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplerName != "rsu-g4-ideal" {
		t.Fatalf("sampler name %q", res.SamplerName)
	}
}

func TestPerformanceReport(t *testing.T) {
	rep, err := Performance(arch.Segmentation(arch.HDW, arch.HDH))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUSeconds <= rep.RSUG1Seconds {
		t.Error("GPU should be slower than RSU-G1")
	}
	if rep.RSUG1Seconds < rep.AccelSeconds {
		t.Error("accelerator bound should be the fastest")
	}
	if rep.AcceleratorUnit != 336 {
		t.Errorf("units %d", rep.AcceleratorUnit)
	}
	if rep.UnitPowerMW != 3.91 {
		t.Errorf("unit power %v", rep.UnitPowerMW)
	}
}

func TestPerformanceUnknownWorkload(t *testing.T) {
	if _, err := Performance(arch.Stereo(320, 320)); err == nil {
		t.Fatal("uncalibrated workload accepted")
	}
	bad := arch.Segmentation(320, 320)
	bad.Labels = 0
	if _, err := Performance(bad); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestSolveUnknownBackend(t *testing.T) {
	app, _ := segApp(t)
	_, err := NewSolver(app, Config{BackendName: "bogus", Iterations: 2})
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("error %v does not wrap ErrInvalidConfig", err)
	}
}

func TestSolverAnnealing(t *testing.T) {
	app, scene := segApp(t)
	s, err := NewSolver(app, Config{
		BackendName: "software-gibbs", Iterations: 40, BurnIn: 20, Seed: 9,
		Anneal: &AnnealSpec{StartT: 60, Rate: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.MAP.MislabelRate(scene.Truth); rate > 0.10 {
		t.Fatalf("annealed mislabel rate %v", rate)
	}
	// Energy should fall as the chain cools.
	first, last := res.EnergyTrace[0], res.EnergyTrace[len(res.EnergyTrace)-1]
	if last >= first {
		t.Fatalf("annealed energy did not fall: %v -> %v", first, last)
	}
	// Model temperature must be restored after the run.
	if app.Model().T != 12 {
		t.Fatalf("model temperature %v after annealing", app.Model().T)
	}
}

func TestSolverAnnealValidation(t *testing.T) {
	app, _ := segApp(t)
	for _, spec := range []AnnealSpec{{0, 0.9}, {10, 0}, {10, 1}} {
		spec := spec
		if _, err := NewSolver(app, Config{Iterations: 5, Anneal: &spec}); err == nil {
			t.Errorf("anneal spec %+v accepted", spec)
		}
	}
}

// TestSolverPhysicalMode runs the full photon-level RET simulation end
// to end on a small scene.
func TestSolverPhysicalMode(t *testing.T) {
	app, scene := segApp(t)
	s, err := NewSolver(app, Config{
		BackendName: "rsu", RSUMode: rsu.Physical,
		Iterations: 30, BurnIn: 10, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplerName != "rsu-g1-physical" {
		t.Fatalf("sampler %q", res.SamplerName)
	}
	if rate := res.MAP.MislabelRate(scene.Truth); rate > 0.12 {
		t.Fatalf("physical-mode mislabel rate %v", rate)
	}
}

// TestPrototypeBackend: the §7 bench as a solver backend, restricted to
// two-label models.
func TestPrototypeBackend(t *testing.T) {
	scene := img.TwoRegionScene(40, 40, 10, rng.New(20))
	app, err := apps.NewSegmentation(scene.Image, scene.Means, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(app, Config{BackendName: "prototype", Iterations: 12, BurnIn: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplerName != "prototype-rsu-g2" {
		t.Fatalf("sampler %q", res.SamplerName)
	}
	if rate := res.MAP.MislabelRate(scene.Truth); rate > 0.06 {
		t.Fatalf("prototype backend mislabel rate %v", rate)
	}
	// Five-label models are rejected up front.
	multi, _ := segApp(t)
	if _, err := NewSolver(multi, Config{BackendName: "prototype", Iterations: 5}); err == nil {
		t.Fatal("five-label model accepted by prototype backend")
	}
}
