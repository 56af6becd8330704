package rsugibbs

import (
	"context"
	"errors"
	"io"
	"testing"
)

// TestFacadeContract is the compile-time contract of the public façade:
// it references every exported type, constant, function variable and
// option, so renaming or dropping any of them breaks this test's build
// rather than a downstream user's. The runtime body is deliberately
// thin — behavior is covered by the per-subsystem tests; this file
// pins the surface.
func TestFacadeContract(t *testing.T) {
	// Types. A var of each aliased type proves the alias still exists
	// and still names a type.
	var (
		_ *Gray
		_ *LabelMap
		_ *VectorField
		_ *Scene
		_ *MotionScene
		_ *StereoScene
		_ *Rand
		_ *Model
		_ *Segmentation
		_ *Motion
		_ *Stereo
		_ *Restoration
		_ App
		_ *Solver
		_ Config
		_ *Result
		_ CheckpointSpec
		_ *Snapshot
		_ SnapshotFingerprint
		_ ChainCheckpointPolicy
		_ FaultOptions
		_ FaultPolicy
		_ *FaultSchedule
		_ *FaultAudit
		_ FaultEvent
		_ *Unit
		_ UnitConfig
		_ IntensityMap
		_ SamplingMode
		_ *Circuit
		_ *Network
		_ Workload
		_ *GPU
		_ *Accelerator
		_ PerformanceReport
		_ *Prototype
		_ ChainOptions
		_ *ChainResult
		_ Neighborhood
		_ PipelineConfig
		_ PipelineStats
		_ *AgingCircuit
		_ Wearout
		_ *StagedAccelerator
		_ AccelConfig
		_ AccelStats
		_ SamplerBackend
		_ SamplerCapabilities
		_ SpikingSpec
		_ MeanFieldSpec
		_ Option
		_ Recorder
		_ *MetricsRegistry
		_ *MetricsSnapshot
		_ MetricsEvent
		_ *EventSink
	)

	// Policy constants, sampling modes, neighborhoods. Backends have no
	// constants: a registry name (Backends) is the only selector.
	for _, p := range []FaultPolicy{FaultPolicyNone, FaultPolicyRemap, FaultPolicyResample, FaultPolicyQuarantine, FaultPolicyFallback} {
		_ = p
	}
	_, _ = Ideal, Physical
	_, _ = FirstOrder, SecondOrder

	// Function variables. Assigning to the blank identifier references
	// each without invoking it.
	_, _, _, _ = NewGray, NewLabelMap, ReadPGMFile, WritePGMFile
	_, _, _, _ = BlobScene, TwoRegionScene, MotionPair, StereoPair
	_ = NewRand
	_, _, _, _, _ = NewSegmentation, NewMotion, NewStereo, NewRestoration, KMeans1D
	_, _ = NewSolver, NewSolverOpts
	_, _ = Backends, LookupBackend
	_, _, _ = WithBackendName, WithSpiking, WithMeanField
	_, _ = SaveSnapshot, LoadSnapshot
	_, _ = ParseFaults, ParseFaultPolicy
	_, _, _ = NewUnit, BuildUnit, BuildIntensityMap
	_, _ = DefaultCircuit, DefaultLadderCircuit
	_, _, _ = TitanX, DefaultAccelerator, Performance
	_, _, _ = SegmentationWorkload, MotionWorkload, StereoWorkload
	_, _ = RSUG1Budget45, RSUG1Budget15
	_ = NewPrototype
	_, _, _ = EffectiveSampleSize, IntegratedAutocorrTime, GelmanRubin
	_ = SimulatePipeline
	_ = NewAgingCircuit
	_ = DefaultStagedAccelerator
	_, _ = RunAccelerator, PaperAccelConfig
	_, _, _, _, _ = NewMetrics, NewEventSink, ServeMetrics, MetricsHandler, ValidateMetricsJSON

	// Typed errors: the short aliases must be the same sentinel values
	// as their long names, and each must survive errors.Is through a
	// wrap.
	pairs := []struct {
		name        string
		short, long error
	}{
		{"corrupt", ErrCorrupt, ErrSnapshotCorrupt},
		{"version", ErrVersion, ErrSnapshotVersion},
		{"mismatch", ErrMismatch, ErrSnapshotMismatch},
	}
	for _, p := range pairs {
		if p.short != p.long {
			t.Errorf("alias %s diverged from its long name", p.name)
		}
		if !errors.Is(io.EOF, io.EOF) || !errors.Is(p.short, p.long) {
			t.Errorf("errors.Is(%s) broken", p.name)
		}
	}
	if ErrInvalidConfig == nil {
		t.Error("ErrInvalidConfig is nil")
	}
}

// TestFacadeOptions drives NewSolverOpts with every option constructor
// and checks the resulting run behaves: options must land in the
// config (observable through Result), and invalid combinations must
// wrap ErrInvalidConfig exactly like a literal Config would.
func TestFacadeOptions(t *testing.T) {
	src := NewRand(1)
	scene := BlobScene(32, 32, 3, 6, src)
	app, err := NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewMetrics()
	solver, err := NewSolverOpts(app,
		WithBackendName("rsu"),
		WithRSUWidth(2),
		WithIterations(24),
		WithBurnIn(8),
		WithCompile(true),
		WithWorkers(2),
		WithSeed(7),
		WithAnneal(4, 0.9),
		WithRecorder(reg),
		WithCheckpoint(CheckpointSpec{Path: t.TempDir() + "/ck.snap", EverySweeps: 10}),
		WithFaults(FaultOptions{Schedule: "dead:unit=1,sweep=4", Seed: 3, Policy: FaultPolicyRemap}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 24 {
		t.Fatalf("WithIterations not applied: ran %d sweeps", res.Iterations)
	}
	if res.FaultAudit == nil {
		t.Fatal("WithFaults not applied: no audit on result")
	}
	if res.Metrics == nil {
		t.Fatal("WithRecorder not applied: no metrics snapshot on result")
	}
	if n := res.Metrics.Counter("gibbs.sweeps"); n != 24 {
		t.Fatalf("metrics snapshot counted %d sweeps, want 24", n)
	}

	// Later options must win.
	s2, err := NewSolverOpts(app, WithIterations(5), WithIterations(9), WithBurnIn(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Iterations != 9 {
		t.Fatalf("later option did not win: %d iterations", r2.Iterations)
	}

	// Validation parity with literal configs.
	if _, err := NewSolverOpts(app, WithIterations(-1)); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("negative iterations: got %v, want ErrInvalidConfig", err)
	}
	if _, err := NewSolverOpts(app, WithFaults(FaultOptions{Schedule: "dead:unit=1,sweep=4"})); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("faults on software backend: got %v, want ErrInvalidConfig", err)
	}
}

// TestFacadeBackendRegistry pins the registry surface: every registered
// name resolves through LookupBackend and is accepted by
// WithBackendName, and unknown names are rejected wrapping
// ErrInvalidConfig at solve time.
func TestFacadeBackendRegistry(t *testing.T) {
	src := NewRand(1)
	scene := BlobScene(16, 16, 2, 6, src)
	app, err := NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		t.Fatal(err)
	}

	names := Backends()
	if len(names) < 7 {
		t.Fatalf("registry lists %d backends, want >= 7: %v", len(names), names)
	}
	for _, name := range names {
		be, ok := LookupBackend(name)
		if !ok || be.Name() != name {
			t.Fatalf("LookupBackend(%q) failed", name)
		}
		if _, err := NewSolverOpts(app, WithBackendName(name), WithIterations(3), WithBurnIn(1)); err != nil {
			t.Fatalf("WithBackendName(%q) rejected: %v", name, err)
		}
	}
	if _, err := NewSolverOpts(app, WithBackendName("sram-sampler")); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("unknown backend name: got %v, want ErrInvalidConfig", err)
	}
	if _, ok := LookupBackend("sram-sampler"); ok {
		t.Fatal("unknown name resolved")
	}

	// The approximate-backend option constructors select their backend
	// and carry the knobs.
	s, err := NewSolverOpts(app, WithSpiking(SpikingSpec{Bits: 4}), WithIterations(6), WithBurnIn(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplerName != "spiking-b4" {
		t.Fatalf("WithSpiking ran sampler %q", res.SamplerName)
	}
	s, err = NewSolverOpts(app, WithMeanField(MeanFieldSpec{}), WithIterations(6), WithBurnIn(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplerName != "meanfield" {
		t.Fatalf("WithMeanField ran sampler %q", res.SamplerName)
	}
}
