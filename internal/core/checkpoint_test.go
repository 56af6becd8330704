package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
)

// sameSolveResult asserts bit-exact equality of everything a resumed
// run must reproduce.
func sameSolveResult(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d != %d", name, got.Iterations, want.Iterations)
	}
	for i := range want.Final.Labels {
		if got.Final.Labels[i] != want.Final.Labels[i] {
			t.Fatalf("%s: final label diverged at site %d", name, i)
		}
		if got.MAP.Labels[i] != want.MAP.Labels[i] {
			t.Fatalf("%s: MAP diverged at site %d", name, i)
		}
		if got.Confidence.Pix[i] != want.Confidence.Pix[i] {
			t.Fatalf("%s: confidence diverged at site %d", name, i)
		}
	}
	if len(got.EnergyTrace) != len(want.EnergyTrace) {
		t.Fatalf("%s: energy trace length %d != %d", name, len(got.EnergyTrace), len(want.EnergyTrace))
	}
	for i := range want.EnergyTrace {
		if math.Float64bits(got.EnergyTrace[i]) != math.Float64bits(want.EnergyTrace[i]) {
			t.Fatalf("%s: energy trace diverged at entry %d", name, i)
		}
	}
}

func solve(t *testing.T, cfg Config) *Result {
	t.Helper()
	app, _ := segApp(t)
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

// TestSolveResumeMatchesUninterrupted: for every backend, a run that
// checkpointed periodically and a second run resumed from the last
// durable snapshot together reproduce the uninterrupted golden run
// bit-exactly — including across worker counts (the snapshot is taken
// at W=1 and resumed at W=3).
func TestSolveResumeMatchesUninterrupted(t *testing.T) {
	for _, backend := range []string{"software-gibbs", "software-first-to-fire", "metropolis", "rsu"} {
		t.Run(backend, func(t *testing.T) {
			base := Config{BackendName: backend, Iterations: 20, BurnIn: 5, Seed: 2, Compile: true}
			golden := solve(t, base)

			path := filepath.Join(t.TempDir(), "solve.ckpt")
			first := base
			first.Workers = 1
			first.Checkpoint = &CheckpointSpec{Path: path, EverySweeps: 7}
			solve(t, first) // leaves the sweep-14 snapshot at path

			snap, err := checkpoint.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Sweep != 14 {
				t.Fatalf("last durable snapshot at sweep %d, want 14", snap.Sweep)
			}

			resumed := base
			resumed.Workers = 3
			resumed.Checkpoint = &CheckpointSpec{Path: path, EverySweeps: 7, Resume: true}
			sameSolveResult(t, backend, golden, solve(t, resumed))
		})
	}
}

// TestSolveResumeFaultyRSU: the fault session's state rides in the
// snapshot's fault section, so a resumed faulty run reproduces not just
// the labels but the full injected-vs-detected audit.
func TestSolveResumeFaultyRSU(t *testing.T) {
	base := Config{
		BackendName: "rsu", Iterations: 16, BurnIn: 4, Seed: 5,
		Faults: &fault.Options{Schedule: "hot:rate=5e-3;dead:unit=3,sweep=2", Seed: 9, Policy: fault.PolicyRemap},
	}
	golden := solve(t, base)
	if golden.FaultAudit == nil {
		t.Fatal("faulty run carries no audit")
	}

	path := filepath.Join(t.TempDir(), "faulty.ckpt")
	first := base
	first.Checkpoint = &CheckpointSpec{Path: path, EverySweeps: 5}
	solve(t, first)

	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Section(checkpoint.SectionFault); !ok {
		t.Fatal("snapshot of a faulty run has no fault section")
	}

	resumed := base
	resumed.Checkpoint = &CheckpointSpec{Path: path, EverySweeps: 5, Resume: true}
	got := solve(t, resumed)
	sameSolveResult(t, "faulty-rsu", golden, got)

	var wantAudit, gotAudit bytes.Buffer
	if err := golden.FaultAudit.WriteJSON(&wantAudit); err != nil {
		t.Fatal(err)
	}
	if err := got.FaultAudit.WriteJSON(&gotAudit); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantAudit.Bytes(), gotAudit.Bytes()) {
		t.Fatalf("fault audit diverged after resume:\n--- golden ---\n%s\n--- resumed ---\n%s",
			wantAudit.Bytes(), gotAudit.Bytes())
	}
}

// TestSolveResumeRejectsForeignSnapshot: a snapshot from a different
// configuration is refused with checkpoint.ErrMismatch, naming the
// field, instead of silently diverging.
func TestSolveResumeRejectsForeignSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solve.ckpt")
	base := Config{BackendName: "software-gibbs", Iterations: 12, BurnIn: 2, Seed: 2}
	first := base
	first.Checkpoint = &CheckpointSpec{Path: path, EverySweeps: 5}
	solve(t, first)

	for name, mutate := range map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed = 3 },
		"backend": func(c *Config) { c.BackendName = "metropolis" },
		"burn-in": func(c *Config) { c.BurnIn = 3 },
		"anneal":  func(c *Config) { c.Anneal = &AnnealSpec{StartT: 4, Rate: 0.9} },
	} {
		cfg := base
		mutate(&cfg)
		cfg.Checkpoint = &CheckpointSpec{Path: path, EverySweeps: 5, Resume: true}
		app, _ := segApp(t)
		s, err := NewSolver(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(context.Background()); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Errorf("%s change: got %v, want checkpoint.ErrMismatch", name, err)
		}
	}
}

// TestSolveResumeRejectsMissingFaultSection: a mid-run snapshot without
// the fault section cannot restore a fault-armed run.
func TestSolveResumeRejectsMissingFaultSection(t *testing.T) {
	base := Config{
		BackendName: "rsu", Iterations: 12, BurnIn: 2, Seed: 5,
		Faults: &fault.Options{Schedule: "hot:rate=5e-3", Seed: 9, Policy: fault.PolicyNone},
	}
	path := filepath.Join(t.TempDir(), "faulty.ckpt")
	first := base
	first.Checkpoint = &CheckpointSpec{Path: path, EverySweeps: 5}
	solve(t, first)

	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	snap.Sections = nil
	if err := checkpoint.Save(path, snap); err != nil {
		t.Fatal(err)
	}

	resumed := base
	resumed.Checkpoint = &CheckpointSpec{Path: path, EverySweeps: 5, Resume: true}
	app, _ := segApp(t)
	s, err := NewSolver(app, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background()); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("got %v, want checkpoint.ErrMismatch", err)
	}
}

// TestSolveCtxCancelled: cancellation surfaces the partial result, an
// error wrapping ctx.Err(), and a durable snapshot the run can resume
// from to reproduce the golden result.
func TestSolveCtxCancelled(t *testing.T) {
	base := Config{BackendName: "software-gibbs", Iterations: 15, BurnIn: 3, Seed: 4}
	golden := solve(t, base)

	path := filepath.Join(t.TempDir(), "cancel.ckpt")
	cancelled := base
	cancelled.Checkpoint = &CheckpointSpec{Path: path, EverySweeps: 4}
	app, _ := segApp(t)
	s, err := NewSolver(app, cancelled)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.Solve(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || res.Iterations != 0 {
		t.Fatalf("want partial result at 0 sweeps, got %+v", res)
	}
	if _, err := checkpoint.Load(path); err != nil {
		t.Fatalf("cancellation left no loadable snapshot: %v", err)
	}

	resumed := base
	resumed.Checkpoint = &CheckpointSpec{Path: path, EverySweeps: 4, Resume: true}
	sameSolveResult(t, "resume-after-cancel", golden, solve(t, resumed))
}

// TestSolveResumeMissingFileStartsFresh: Resume with no snapshot on
// disk is a fresh run (first boot and post-crash boot share one code
// path), and it still produces the golden result.
func TestSolveResumeMissingFileStartsFresh(t *testing.T) {
	base := Config{BackendName: "software-gibbs", Iterations: 10, BurnIn: 2, Seed: 6}
	golden := solve(t, base)
	fresh := base
	fresh.Checkpoint = &CheckpointSpec{
		Path: filepath.Join(t.TempDir(), "never-written.ckpt"), EverySweeps: 3, Resume: true,
	}
	sameSolveResult(t, "fresh-resume", golden, solve(t, fresh))
}

// TestValidateCheckpointSpec: malformed checkpoint specs are rejected
// as ErrInvalidConfig before any work starts.
func TestValidateCheckpointSpec(t *testing.T) {
	app, _ := segApp(t)
	cases := []CheckpointSpec{
		{},                            // no path
		{Path: "x", EverySweeps: -1},  // negative interval
		{Path: "x", Every: -1},        // negative duration
		{Path: "x", Every: 1_000_000}, // duration without a clock
	}
	for i, ck := range cases {
		spec := ck
		_, err := NewSolver(app, Config{Iterations: 5, Checkpoint: &spec})
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("case %d: got %v, want ErrInvalidConfig", i, err)
		}
	}
}
