package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestConfigValidateLimits pins the admission-hardening bounds added
// for the serving layer: zero/negative and absurdly large deadline and
// limit fields are rejected up front with wrapped ErrInvalidConfig, not
// discovered mid-solve.
func TestConfigValidateLimits(t *testing.T) {
	base := Config{BackendName: "software-gibbs", Iterations: 10, BurnIn: 2}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative deadline", func(c *Config) { c.Deadline = -time.Second }},
		{"absurd deadline", func(c *Config) { c.Deadline = MaxDeadline + time.Hour }},
		{"zero iterations", func(c *Config) { c.Iterations = 0 }},
		{"negative iterations", func(c *Config) { c.Iterations = -1 }},
		{"absurd iterations", func(c *Config) { c.Iterations = MaxIterations + 1 }},
		{"negative workers", func(c *Config) { c.Workers = -1 }},
		{"absurd workers", func(c *Config) { c.Workers = MaxWorkers + 1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: %v does not wrap ErrInvalidConfig", tc.name, err)
		}
	}

	// The boundary values themselves are legal.
	ok := base
	ok.Deadline = MaxDeadline
	ok.Workers = MaxWorkers
	if err := ok.Validate(); err != nil {
		t.Errorf("boundary config rejected: %v", err)
	}
}

// TestSolveDeadlinePartialResult exercises Config.Deadline end to end:
// an expired deadline stops the chain at a sweep boundary and returns
// the partial result with an error wrapping context.DeadlineExceeded —
// the contract the serving layer's deadline-exceeded terminal state is
// built on.
func TestSolveDeadlinePartialResult(t *testing.T) {
	app, _ := segApp(t)
	s, err := NewSolver(app, Config{
		BackendName: "software-gibbs", Iterations: 1 << 20, BurnIn: 1,
		Seed: 5, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("no partial result returned at deadline")
	}
	if res.Iterations <= 0 || res.Iterations >= 1<<20 {
		t.Errorf("partial sweep count %d not in (0, budget)", res.Iterations)
	}
	if res.Final == nil {
		t.Error("partial result has no final labels")
	}
}

// TestSolveDeadlineDoesNotPerturbChain pins that a generous deadline
// is invisible: same seed with and without Deadline set produces
// byte-identical labels (Deadline only truncates, never perturbs).
func TestSolveDeadlineDoesNotPerturbChain(t *testing.T) {
	run := func(d time.Duration) *Result {
		t.Helper()
		app, _ := segApp(t)
		s, err := NewSolver(app, Config{
			BackendName: "software-gibbs", Iterations: 20, BurnIn: 5, Seed: 77, Deadline: d,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(0)
	b := run(time.Hour)
	if string(a.Final.Labels) != string(b.Final.Labels) {
		t.Error("Deadline changed sampled labels")
	}
	if string(a.MAP.Labels) != string(b.MAP.Labels) {
		t.Error("Deadline changed MAP labels")
	}
}
