package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rng"
	"repro/internal/sampler"
)

// ErrInvalidSpec is wrapped by every job-spec validation error; the
// HTTP layer maps it to 400 and the retry layer treats it as permanent.
var ErrInvalidSpec = errors.New("serve: invalid job spec")

// Spec bounds: a serving daemon must reject absurd requests before they
// reserve queue slots, not discover them mid-solve.
const (
	// MaxSpecSize bounds the synthetic scene edge (memory: size²·M·8
	// bytes of compiled tables).
	MaxSpecSize = 1024
	// MaxSpecIterations bounds the sweep budget of one job.
	MaxSpecIterations = 1 << 20
	// MaxSpecWorkers bounds per-job checkerboard parallelism.
	MaxSpecWorkers = 256
)

// JobSpec is the client-facing description of one inference job. The
// observation is synthesized deterministically from SceneSeed, so a
// spec fully determines the chain: two runs of the same spec (at any
// worker count) produce byte-identical labels, which is what lets the
// chaos harness compare a SIGKILLed-and-resumed server against an
// uninterrupted golden run.
type JobSpec struct {
	// App selects the workload: segmentation | stereo | motion |
	// restoration.
	App string `json:"app"`
	// Size is the synthetic scene edge in pixels (default 32).
	Size int `json:"size,omitempty"`
	// Labels is the label count for segmentation (default 3).
	Labels int `json:"labels,omitempty"`
	// SceneSeed draws the synthetic observation (independent of the
	// chain seed).
	SceneSeed uint64 `json:"scene_seed"`
	// Backend selects the sampling engine by registry name (see
	// core.Backends(); default software). The legacy spellings
	// "software" and "first-to-fire" remain accepted. Backends that
	// cannot checkpoint (meanfield) are rejected: the server
	// checkpoints every in-flight chain.
	Backend string `json:"backend,omitempty"`
	// Width is the RSU-G unit width K (rsu backend; default 1).
	Width int `json:"width,omitempty"`
	// Iterations and BurnIn are the chain budget (defaults 100 / 30).
	Iterations int `json:"iterations,omitempty"`
	BurnIn     int `json:"burn_in,omitempty"`
	// Workers is the requested checkerboard parallelism (0: server
	// default). Results are worker-count-invariant, so the server is
	// free to override it — see Config.WorkerOverride.
	Workers int `json:"workers,omitempty"`
	// Seed is the chain seed.
	Seed uint64 `json:"seed"`
	// Compile enables the precomputed-table sweep engine (bit-identical
	// labels either way; on is the serving default because the compile
	// cache amortizes table construction across jobs).
	Compile *bool `json:"compile,omitempty"`
	// Faults optionally arms the fault-injection subsystem (rsu backend
	// only) with this schedule DSL.
	Faults string `json:"faults,omitempty"`
	// FaultPolicy selects the initial degradation policy (none | remap |
	// resample | quarantine | fallback; default remap). The server
	// escalates toward fallback on degraded attempts.
	FaultPolicy string `json:"fault_policy,omitempty"`
	// FaultSeed drives the schedule's stochastic expansion.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// DeadlineMS bounds one attempt's wall time in milliseconds
	// (0: no deadline). A job over deadline terminates with the partial
	// labels and sweep count it reached. The budget re-arms when a
	// preempted job resumes after a restart: wall-clock budgets are
	// per-attempt, chain budgets (Iterations) are global.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// withDefaults returns the spec with zero fields replaced by their
// documented defaults.
func (sp JobSpec) withDefaults() JobSpec {
	if sp.App == "" {
		sp.App = "segmentation"
	}
	if sp.Backend == "" {
		sp.Backend = "software"
	}
	if sp.Size == 0 {
		sp.Size = 32
	}
	if sp.Labels == 0 {
		sp.Labels = 3
	}
	if sp.Iterations == 0 {
		sp.Iterations = 100
	}
	if sp.BurnIn == 0 {
		sp.BurnIn = min(30, sp.Iterations-1)
	}
	if sp.Compile == nil {
		on := true
		sp.Compile = &on
	}
	if sp.FaultPolicy == "" {
		sp.FaultPolicy = "remap"
	}
	return sp
}

// Validate rejects malformed specs with errors wrapping ErrInvalidSpec.
// It re-applies defaults first, so callers may validate raw client
// input directly.
func (sp JobSpec) Validate() error {
	sp = sp.withDefaults()
	switch sp.App {
	case "segmentation", "stereo", "motion", "restoration":
	default:
		return fmt.Errorf("%w: unknown app %q", ErrInvalidSpec, sp.App)
	}
	if err := checkBackend(sp.Backend); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	if sp.Size < 8 || sp.Size > MaxSpecSize {
		return fmt.Errorf("%w: size %d outside [8,%d]", ErrInvalidSpec, sp.Size, MaxSpecSize)
	}
	if sp.Labels < 2 || sp.Labels > 8 {
		return fmt.Errorf("%w: labels %d outside [2,8]", ErrInvalidSpec, sp.Labels)
	}
	if sp.Iterations < 0 || sp.Iterations > MaxSpecIterations {
		return fmt.Errorf("%w: iterations %d outside [1,%d]", ErrInvalidSpec, sp.Iterations, MaxSpecIterations)
	}
	if sp.BurnIn < 0 || sp.BurnIn >= sp.Iterations {
		return fmt.Errorf("%w: burn-in %d outside [0,%d)", ErrInvalidSpec, sp.BurnIn, sp.Iterations)
	}
	if sp.Workers < 0 || sp.Workers > MaxSpecWorkers {
		return fmt.Errorf("%w: workers %d outside [0,%d]", ErrInvalidSpec, sp.Workers, MaxSpecWorkers)
	}
	if sp.Width < 0 || sp.Width > 64 {
		return fmt.Errorf("%w: width %d outside [0,64]", ErrInvalidSpec, sp.Width)
	}
	if sp.DeadlineMS < 0 || time.Duration(sp.DeadlineMS)*time.Millisecond > core.MaxDeadline {
		return fmt.Errorf("%w: deadline %dms outside [0,%v]", ErrInvalidSpec, sp.DeadlineMS, core.MaxDeadline)
	}
	if sp.Faults != "" {
		if sp.Backend != "rsu" {
			return fmt.Errorf("%w: faults need the rsu backend, got %q", ErrInvalidSpec, sp.Backend)
		}
		if _, err := fault.Parse(sp.Faults); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
		}
	}
	if _, err := fault.ParsePolicy(sp.FaultPolicy); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	return nil
}

// ModelKey fingerprints the fields that determine the MRF model — the
// app-cache key. Chain parameters (seed, iterations, backend) are
// deliberately excluded: many jobs, few distinct models.
func (sp JobSpec) ModelKey() string {
	sp = sp.withDefaults()
	return fmt.Sprintf("%s/size=%d/labels=%d/scene=%d", sp.App, sp.Size, sp.Labels, sp.SceneSeed)
}

// checkBackend resolves a spec backend name through the registry. The
// server checkpoints every in-flight chain (drain, migration, crash
// recovery), so backends whose registry capabilities exclude
// checkpointing are rejected at admission rather than failing
// mid-drain.
func checkBackend(name string) error {
	be, ok := sampler.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown backend %q (known: %s)", name, strings.Join(core.Backends(), ", "))
	}
	if !be.Caps().Checkpoint {
		return fmt.Errorf("backend %q cannot checkpoint/resume and is not servable", name)
	}
	return nil
}

// buildApp synthesizes the spec's deterministic scene and constructs
// the application over it. Expensive relative to small solves — which
// is exactly what the app cache amortizes.
func buildApp(sp JobSpec) (apps.App, error) {
	sp = sp.withDefaults()
	src := rng.New(sp.SceneSeed)
	switch sp.App {
	case "segmentation":
		scene := img.BlobScene(sp.Size, sp.Size, sp.Labels, 8, src)
		return apps.NewSegmentation(scene.Image, scene.Means, 2, 12)
	case "stereo":
		scene := img.StereoPair(sp.Size, sp.Size, sp.Labels, sp.Labels-1, 2, src)
		return apps.NewStereoVision(scene.Left, scene.Right, sp.Labels, 1, 8)
	case "motion":
		scene := img.MotionPair(sp.Size, sp.Size, 2, -1, 3, 2, src)
		return apps.NewMotionEstimation(scene.Frame1, scene.Frame2, 3, 1, 8)
	case "restoration":
		scene := img.BlobScene(sp.Size, sp.Size, sp.Labels, 15, src)
		return apps.NewRestoration(scene.Image, sp.Labels, 2, 0, 12, mrf.FirstOrder)
	default:
		return nil, fmt.Errorf("%w: unknown app %q", ErrInvalidSpec, sp.App)
	}
}

// solverConfig assembles the core configuration for one attempt of the
// job: the spec's chain parameters, the server's checkpoint policy
// pointed at the job's snapshot path, and the (possibly escalated)
// fault policy. onSave, when non-nil, fires after each durable
// snapshot write (the replication layer's dirty-marking hook).
func solverConfig(sp JobSpec, policy fault.Policy, workers int, ckptPath string, everySweeps int, onSave func(int)) (core.Config, error) {
	sp = sp.withDefaults()
	if err := checkBackend(sp.Backend); err != nil {
		return core.Config{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	cfg := core.Config{
		BackendName: sp.Backend,
		Iterations:  sp.Iterations,
		BurnIn:      sp.BurnIn,
		Workers:     workers,
		Compile:     *sp.Compile,
		RSUWidth:    sp.Width,
		Seed:        sp.Seed,
		Deadline:    time.Duration(sp.DeadlineMS) * time.Millisecond,
	}
	if sp.Faults != "" {
		cfg.Faults = &fault.Options{Schedule: sp.Faults, Seed: sp.FaultSeed, Policy: policy}
	}
	if ckptPath != "" {
		cfg.Checkpoint = &core.CheckpointSpec{
			Path:        ckptPath,
			EverySweeps: everySweeps,
			Resume:      true,
			OnSave:      onSave,
		}
	}
	return cfg, nil
}

// Digest hashes every chain-derived field of a result into a stable hex
// string (the same construction as the checkpoint chaos harness): two
// results are byte-identical iff their digests match, so resumed-vs-
// uninterrupted equivalence travels through the job-status API as one
// short string.
func Digest(res *core.Result) string {
	h := sha256.New()
	var word [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	writeInt(res.Iterations)
	h.Write(res.Final.Labels)
	if res.MAP != nil {
		h.Write(res.MAP.Labels)
	}
	if res.Confidence != nil {
		h.Write(res.Confidence.Pix)
	}
	writeInt(len(res.EnergyTrace))
	for _, e := range res.EnergyTrace {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(e))
		h.Write(word[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
