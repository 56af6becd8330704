package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/rng"
	"repro/internal/sampler/meanfield"
	"repro/internal/sampler/spiking"
)

func registryApp(t *testing.T, labels int) apps.App {
	t.Helper()
	scene := img.BlobScene(20, 20, labels, 6, rng.New(31))
	app, err := apps.NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestBackendNameEquivalence: an empty BackendName selects
// software-gibbs, drawing the byte-identical chain the explicit name
// draws.
func TestBackendNameEquivalence(t *testing.T) {
	app := registryApp(t, 2)
	cfg := Config{Iterations: 12, BurnIn: 3, Seed: 17, Workers: 2}
	byDefault := solveOne(t, app, cfg)
	cfg.BackendName = "software-gibbs"
	byName := solveOne(t, app, cfg)
	if !bytes.Equal(byDefault.Final.Labels, byName.Final.Labels) ||
		!bytes.Equal(byDefault.MAP.Labels, byName.MAP.Labels) ||
		!bytes.Equal(byDefault.Confidence.Pix, byName.Confidence.Pix) {
		t.Fatal("empty and software-gibbs backend names draw different chains")
	}
	if byDefault.SamplerName != byName.SamplerName {
		t.Fatalf("sampler %q vs %q", byDefault.SamplerName, byName.SamplerName)
	}
}

func solveOne(t *testing.T, app apps.App, cfg Config) *Result {
	t.Helper()
	s, err := NewSolver(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNewBackendsSolve: the two approximate backends run end-to-end
// through the solver and identify themselves.
func TestNewBackendsSolve(t *testing.T) {
	app := registryApp(t, 2)
	res := solveOne(t, app, Config{BackendName: "spiking", Iterations: 15, BurnIn: 4, Seed: 3,
		Spiking: &spiking.Spec{Bits: 4, Tau: 2}})
	if res.SamplerName != "spiking-b4" {
		t.Fatalf("sampler %q", res.SamplerName)
	}
	res = solveOne(t, app, Config{BackendName: "meanfield", Iterations: 15, BurnIn: 4, Seed: 3,
		MeanField: &meanfield.Spec{Damping: 0.7}})
	if res.SamplerName != "meanfield" {
		t.Fatalf("sampler %q", res.SamplerName)
	}
}

// TestCapabilityChecks: the declared capabilities replace the old
// hard-coded per-backend cases in Validate/NewSolver.
func TestCapabilityChecks(t *testing.T) {
	binary := registryApp(t, 2)
	multi := registryApp(t, 5)
	cases := []struct {
		name string
		app  apps.App
		cfg  Config
	}{
		{"meanfield label bound", multi, Config{BackendName: "meanfield", Iterations: 5}},
		{"prototype label bound", multi, Config{BackendName: "prototype", Iterations: 5}},
		{"meanfield checkpoint", binary, Config{BackendName: "meanfield", Iterations: 5,
			Checkpoint: &CheckpointSpec{Path: t.TempDir() + "/ck", EverySweeps: 1}}},
		{"spiking faults", binary, Config{BackendName: "spiking", Iterations: 5,
			Faults: &fault.Options{}}},
		{"bad spiking knob", binary, Config{BackendName: "spiking", Iterations: 5,
			Spiking: &spiking.Spec{Bits: 99}}},
		{"bad meanfield knob", binary, Config{BackendName: "meanfield", Iterations: 5,
			MeanField: &meanfield.Spec{Damping: 2}}},
		{"unknown name", binary, Config{BackendName: "sram-sampler", Iterations: 5}},
	}
	for _, tc := range cases {
		_, err := NewSolver(tc.app, tc.cfg)
		if !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("%s: error %v does not wrap ErrInvalidConfig", tc.name, err)
		}
		if tc.name == "unknown name" && !strings.Contains(err.Error(), "software-gibbs") {
			t.Fatalf("%s: error %v does not list known backends", tc.name, err)
		}
	}
}

// TestSpikingCheckpointTag: approximate-backend knobs are part of the
// checkpoint fingerprint, so a resume under different knobs is refused.
func TestSpikingCheckpointTag(t *testing.T) {
	app := registryApp(t, 2)
	mk := func(bits int) *Solver {
		s, err := NewSolver(app, Config{BackendName: "spiking", Iterations: 10, Seed: 1,
			Spiking: &spiking.Spec{Bits: bits}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(4).Fingerprint(), mk(8).Fingerprint()
	if a.Tag == b.Tag {
		t.Fatalf("bits=4 and bits=8 share fingerprint tag %q", a.Tag)
	}
}
