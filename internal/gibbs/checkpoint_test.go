package gibbs

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/img"
	"repro/internal/mrf"
)

// captureAt runs the chain with a checkpoint policy and returns the
// snapshot taken at the boundary before sweep `at` (captured every
// sweep so any boundary is observable).
func captureAt(t *testing.T, m *mrf.Model, init *img.LabelMap, factory Factory, opt Options, seed uint64, at int) *checkpoint.Snapshot {
	t.Helper()
	var snap *checkpoint.Snapshot
	opt.Checkpoint = &CheckpointPolicy{
		EverySweeps: 1,
		Sink: func(s *checkpoint.Snapshot) error {
			if s.Sweep == at {
				snap = s
			}
			return nil
		},
	}
	if _, err := Run(context.Background(), m, init, factory, opt, seed); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatalf("no checkpoint observed at sweep %d", at)
	}
	return snap
}

// sameResult asserts two results are bit-identical in every
// user-visible field.
func sameResult(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d != %d", name, got.Iterations, want.Iterations)
	}
	for i := range want.Final.Labels {
		if got.Final.Labels[i] != want.Final.Labels[i] {
			t.Fatalf("%s: final label diverged at site %d", name, i)
		}
	}
	if (want.MAP == nil) != (got.MAP == nil) {
		t.Fatalf("%s: MAP presence differs", name)
	}
	if want.MAP != nil {
		for i := range want.MAP.Labels {
			if got.MAP.Labels[i] != want.MAP.Labels[i] {
				t.Fatalf("%s: MAP diverged at site %d", name, i)
			}
			if got.Confidence.Pix[i] != want.Confidence.Pix[i] {
				t.Fatalf("%s: confidence diverged at site %d", name, i)
			}
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

// TestResumeMatchesUninterrupted: resuming from a mid-run snapshot
// reproduces the uninterrupted run bit-exactly — final labels, marginal
// MAP, confidence, and energy trace — for every sampler kernel and both
// schedules.
func TestResumeMatchesUninterrupted(t *testing.T) {
	cases := []struct {
		name    string
		factory Factory
		sched   Schedule
		workers int
	}{
		{"exact-raster", NewExactGibbs(), Raster, 1},
		{"exact-checkerboard", NewExactGibbs(), Checkerboard, 3},
		{"first-to-fire", NewFirstToFire(), Checkerboard, 2},
		{"metropolis", NewMetropolis(), Raster, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := twoLabelModel(8, 6)
			init := img.NewLabelMap(8, 6)
			opt := Options{
				Iterations: 12, BurnIn: 4,
				Schedule: tc.sched, Workers: tc.workers,
				TrackMode: true, RecordEnergyEvery: 1,
			}
			golden, err := Run(context.Background(), m, init, tc.factory, opt, 42)
			if err != nil {
				t.Fatal(err)
			}
			snap := captureAt(t, twoLabelModel(8, 6), init, tc.factory, opt, 42, 7)
			opt.Resume = snap
			resumed, err := Run(context.Background(), twoLabelModel(8, 6), init, tc.factory, opt, 42)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, tc.name, golden, resumed)
		})
	}
}

// TestResumeWorkerCountInvariant: RNG streams attach to rows, so a
// snapshot taken at one worker count resumes bit-exactly at any other.
func TestResumeWorkerCountInvariant(t *testing.T) {
	init := img.NewLabelMap(8, 8)
	opt := Options{Iterations: 10, BurnIn: 2, Schedule: Checkerboard, TrackMode: true, RecordEnergyEvery: 2}

	opt.Workers = 4
	golden, err := Run(context.Background(), twoLabelModel(8, 8), init, NewExactGibbs(), opt, 9)
	if err != nil {
		t.Fatal(err)
	}

	for _, cross := range []struct {
		name           string
		snapW, resumeW int
	}{
		{"snap@1-resume@4", 1, 4},
		{"snap@4-resume@1", 4, 1},
	} {
		opt.Workers = cross.snapW
		opt.Resume = nil
		snap := captureAt(t, twoLabelModel(8, 8), init, NewExactGibbs(), opt, 9, 5)
		opt.Workers = cross.resumeW
		opt.Resume = snap
		resumed, err := Run(context.Background(), twoLabelModel(8, 8), init, NewExactGibbs(), opt, 9)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, cross.name, golden, resumed)
	}
}

// TestCancelReturnsPartialResultAndFinalCheckpoint: cancellation stops
// the chain at the next sweep boundary, writes a final snapshot, and
// returns the partial result alongside an error wrapping ctx.Err().
func TestCancelReturnsPartialResultAndFinalCheckpoint(t *testing.T) {
	m := twoLabelModel(8, 6)
	init := img.NewLabelMap(8, 6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var snaps []*checkpoint.Snapshot
	opt := Options{
		Iterations: 100, Schedule: Checkerboard, Workers: 2,
		TrackMode: true,
		Checkpoint: &CheckpointPolicy{
			EverySweeps: 2,
			Sink: func(s *checkpoint.Snapshot) error {
				snaps = append(snaps, s)
				if len(snaps) == 1 {
					cancel() // trip the context after the first durable snapshot
				}
				return nil
			},
		},
	}
	res, err := Run(ctx, m, init, NewExactGibbs(), opt, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || res.Final == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Iterations != 2 {
		t.Fatalf("partial result reports %d sweeps, want 2", res.Iterations)
	}
	if res.MAP == nil {
		t.Fatal("partial result dropped the MAP estimate")
	}
	if len(snaps) != 2 {
		t.Fatalf("want periodic + final snapshot, got %d snapshots", len(snaps))
	}
	final := snaps[len(snaps)-1]
	if final.Sweep != 2 {
		t.Fatalf("final snapshot at sweep %d, want 2", final.Sweep)
	}
	// The final snapshot is a live resume point: finishing from it must
	// match the uninterrupted run.
	golden, err := Run(context.Background(), twoLabelModel(8, 6), init, NewExactGibbs(), Options{
		Iterations: 100, Schedule: Checkerboard, Workers: 2, TrackMode: true,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(context.Background(), twoLabelModel(8, 6), init, NewExactGibbs(), Options{
		Iterations: 100, Schedule: Checkerboard, Workers: 2, TrackMode: true,
		Resume: final,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "resume-after-cancel", golden, resumed)
}

// TestCancelAlreadyCancelled: a context dead on arrival yields zero
// completed sweeps, a partial (initial-state) result, and no snapshots
// unless a policy is armed — in which case the sweep-0 state is saved.
func TestCancelAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var snaps int
	opt := Options{
		Iterations: 10,
		Checkpoint: &CheckpointPolicy{
			EverySweeps: 1,
			Sink:        func(*checkpoint.Snapshot) error { snaps++; return nil },
		},
	}
	res, err := Run(ctx, twoLabelModel(4, 4), img.NewLabelMap(4, 4), NewExactGibbs(), opt, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Iterations != 0 {
		t.Fatalf("dead-on-arrival run reports %d sweeps", res.Iterations)
	}
	if snaps != 1 {
		t.Fatalf("want exactly the final snapshot, got %d", snaps)
	}
}

// TestDeadlineExceeded: deadline expiry behaves like cancellation and is
// distinguishable via errors.Is.
func TestDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	res, err := Run(ctx, twoLabelModel(4, 4), img.NewLabelMap(4, 4), NewExactGibbs(),
		Options{Iterations: 10}, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if res == nil {
		t.Fatal("no partial result on deadline")
	}
}

// TestCancelLeaksNoGoroutinesAndPoolRestarts: the worker pool shuts
// down on the cancellation return path (deferred stop), and a fresh run
// on the same model works afterwards.
func TestCancelLeaksNoGoroutinesAndPoolRestarts(t *testing.T) {
	m := twoLabelModel(16, 16)
	init := img.NewLabelMap(16, 16)
	before := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Run(ctx, m, init, NewExactGibbs(),
			Options{Iterations: 50, Schedule: Checkerboard, Workers: 8}, uint64(i)); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: want context.Canceled, got %v", i, err)
		}
	}

	// Worker exit is asynchronous after the channels close; give the
	// scheduler a bounded settle window before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}

	// The pool machinery is per-run; a full run after cancelled runs
	// must still work.
	if _, err := Run(context.Background(), m, init, NewExactGibbs(),
		Options{Iterations: 5, Schedule: Checkerboard, Workers: 8}, 1); err != nil {
		t.Fatalf("run after cancelled runs failed: %v", err)
	}
}

// TestResumeRejectsMismatchedSnapshots: every structural mismatch is a
// typed checkpoint.ErrMismatch, never a silent divergence.
func TestResumeRejectsMismatchedSnapshots(t *testing.T) {
	init := img.NewLabelMap(8, 6)
	base := Options{Iterations: 12, BurnIn: 4, Schedule: Checkerboard, Workers: 2, TrackMode: true}
	snap := captureAt(t, twoLabelModel(8, 6), init, NewExactGibbs(), base, 42, 7)

	cases := []struct {
		name string
		m    *mrf.Model
		init *img.LabelMap
		opt  Options
		snap *checkpoint.Snapshot
	}{
		{"geometry", twoLabelModel(6, 6), img.NewLabelMap(6, 6), base, snap},
		{"schedule", twoLabelModel(8, 6), init,
			Options{Iterations: 12, BurnIn: 4, Schedule: Raster, TrackMode: true}, snap},
		{"sweep past end", twoLabelModel(8, 6), init,
			Options{Iterations: 5, BurnIn: 1, Schedule: Checkerboard, TrackMode: true}, snap},
		{"counters missing past burn-in", twoLabelModel(8, 6), init, base,
			func() *checkpoint.Snapshot { c := snap.Clone(); c.Counts = nil; return c }()},
	}
	for _, tc := range cases {
		opt := tc.opt
		opt.Resume = tc.snap
		if _, err := Run(context.Background(), tc.m, tc.init, NewExactGibbs(), opt, 42); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Errorf("%s: got %v, want checkpoint.ErrMismatch", tc.name, err)
		}
	}
}

// TestCheckpointPolicyValidate: unusable policies are rejected before
// the chain starts.
func TestCheckpointPolicyValidate(t *testing.T) {
	m := twoLabelModel(4, 4)
	init := img.NewLabelMap(4, 4)
	sink := func(*checkpoint.Snapshot) error { return nil }
	cases := []struct {
		name string
		pol  *CheckpointPolicy
	}{
		{"no sink", &CheckpointPolicy{EverySweeps: 1}},
		{"negative sweeps", &CheckpointPolicy{EverySweeps: -1, Sink: sink}},
		{"negative duration", &CheckpointPolicy{Every: -time.Second, Sink: sink}},
		{"duration without clock", &CheckpointPolicy{Every: time.Second, Sink: sink}},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), m, init, NewExactGibbs(), Options{Iterations: 2, Checkpoint: tc.pol}, 1); err == nil {
			t.Errorf("%s: invalid policy accepted", tc.name)
		}
	}
}

// TestSinkErrorAbortsRun: a checkpoint the caller asked for but could
// not keep is a durability hole — the run stops with the sink's error.
func TestSinkErrorAbortsRun(t *testing.T) {
	sinkErr := errors.New("disk full")
	opt := Options{
		Iterations: 10,
		Checkpoint: &CheckpointPolicy{
			EverySweeps: 2,
			Sink:        func(*checkpoint.Snapshot) error { return sinkErr },
		},
	}
	if _, err := Run(context.Background(), twoLabelModel(4, 4), img.NewLabelMap(4, 4), NewExactGibbs(), opt, 1); !errors.Is(err, sinkErr) {
		t.Fatalf("got %v, want the sink error", err)
	}
}

// TestDurationPolicyUsesInjectedClock: the wall-time trigger fires off
// the injected Now, so it is testable without real sleeps (and library
// code never reads the wall clock itself).
func TestDurationPolicyUsesInjectedClock(t *testing.T) {
	fake := time.Unix(1000, 0)
	var snaps []int
	opt := Options{
		Iterations: 8,
		Checkpoint: &CheckpointPolicy{
			Every: 10 * time.Second,
			Now: func() time.Time {
				fake = fake.Add(3 * time.Second) // each sweep "takes" 3s
				return fake
			},
			Sink: func(s *checkpoint.Snapshot) error { snaps = append(snaps, s.Sweep); return nil },
		},
	}
	if _, err := Run(context.Background(), twoLabelModel(4, 4), img.NewLabelMap(4, 4), NewExactGibbs(), opt, 1); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("duration policy never fired")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] <= snaps[i-1] {
			t.Fatalf("non-monotone checkpoint sweeps: %v", snaps)
		}
	}
}
