package rsugibbs

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// Option mutates a Config. The With* constructors below compose into
// NewSolverOpts, the functional-options alternative to filling a
// Config literal — later options win, and every combination is
// validated by NewSolver exactly as a literal Config would be.
type Option func(*Config)

// WithBackendName selects the sampling engine by registry name — see
// Backends() for the available names. Unknown names fail solver
// construction with an error wrapping ErrInvalidConfig.
func WithBackendName(name string) Option {
	return func(c *Config) { c.BackendName = name }
}

// WithSpiking selects the spiking digital-neuron backend and sets its
// comparator bit width and tick length τ (zero fields pick the package
// defaults).
func WithSpiking(spec SpikingSpec) Option {
	return func(c *Config) {
		c.BackendName = "spiking"
		c.Spiking = &spec
	}
}

// WithMeanField selects the deterministic mean-field backend for binary
// MRFs and sets its damping factor and fixed-point tolerance (zero
// fields pick the package defaults).
func WithMeanField(spec MeanFieldSpec) Option {
	return func(c *Config) {
		c.BackendName = "meanfield"
		c.MeanField = &spec
	}
}

// WithIterations sets the MCMC sweep budget.
func WithIterations(n int) Option {
	return func(c *Config) { c.Iterations = n }
}

// WithBurnIn sets the sweeps discarded before mode tracking.
func WithBurnIn(n int) Option {
	return func(c *Config) { c.BurnIn = n }
}

// WithCompile toggles the precomputed-potential sweep engine. Sampled
// labels are bit-identical either way; compiling trades table memory
// for closure-free inner loops.
func WithCompile(on bool) Option {
	return func(c *Config) { c.Compile = on }
}

// WithWorkers sets checkerboard parallelism. Seeded results are
// identical for every worker count (RNG streams attach to rows).
func WithWorkers(n int) Option {
	return func(c *Config) { c.Workers = n }
}

// WithSeed fixes the chain seed for reproducible runs.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithRSUWidth sets the unit width K for the RSU backend.
func WithRSUWidth(k int) Option {
	return func(c *Config) { c.RSUWidth = k }
}

// WithAnneal enables geometric simulated-annealing cooling from startT
// decaying by rate per sweep (floored at the model temperature).
func WithAnneal(startT, rate float64) Option {
	return func(c *Config) { c.Anneal = &core.AnnealSpec{StartT: startT, Rate: rate} }
}

// WithRecorder injects the observability layer: sweep and color-phase
// timings, checkpoint and fault events, backend counters. Recording
// never touches the RNG streams, so an observed run produces
// byte-identical labels to an unobserved one. Pass a *MetricsRegistry
// (NewMetrics) to also receive Result.Metrics snapshots.
func WithRecorder(r Recorder) Option {
	return func(c *Config) { c.Recorder = r }
}

// WithCheckpoint arms durable snapshots and crash recovery.
func WithCheckpoint(spec CheckpointSpec) Option {
	return func(c *Config) { c.Checkpoint = &spec }
}

// WithFaults arms the fault-injection and graceful-degradation
// subsystem on the RSU backend.
func WithFaults(fo FaultOptions) Option {
	return func(c *Config) { c.Faults = &fo }
}

// NewSolverOpts builds a solver from options over a small sensible
// default (software-gibbs backend, 100 iterations, 30 burn-in, seed 0).
// Equivalent to NewSolver with the corresponding Config literal; the
// same validation applies and errors wrap ErrInvalidConfig.
func NewSolverOpts(app App, opts ...Option) (*Solver, error) {
	cfg := Config{Iterations: 100, BurnIn: 30}
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewSolver(app, cfg)
}

// Observability layer (internal/obs): a zero-dependency metrics,
// tracing and structured-event subsystem threaded through the whole
// solver stack. Inject with WithRecorder (or Config.Recorder); a nil
// recorder records nothing and costs nothing.
type (
	// Recorder is the instrumentation surface the solver stack accepts.
	Recorder = obs.Recorder
	// MetricsRegistry is the concrete mutex-guarded Recorder.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a deterministic point-in-time metrics export
	// (Result.Metrics and MetricsRegistry.Snapshot).
	MetricsSnapshot = obs.Snapshot
	// MetricsEvent is one structured observability record.
	MetricsEvent = obs.Event
	// EventSink streams events as NDJSON, one complete line per event,
	// safe for concurrent emitters.
	EventSink = obs.EventSink
)

// Observability constructors and helpers.
var (
	// NewMetrics returns an empty metrics registry.
	NewMetrics = obs.New
	// NewEventSink returns an NDJSON event sink over a writer.
	NewEventSink = obs.NewEventSink
	// ServeMetrics starts the /metrics + /debug/vars + /debug/pprof
	// endpoint on an address and returns the bound address and a
	// shutdown func.
	ServeMetrics = obs.Serve
	// MetricsHandler serves a live registry over HTTP.
	MetricsHandler = obs.Handler
	// ValidateMetricsJSON schema-validates a serialized snapshot.
	ValidateMetricsJSON = obs.ValidateSnapshotJSON
)

// Short aliases of the typed errors, for errors.Is branching through
// the façade alone.
var (
	// ErrCorrupt marks a truncated or checksum-failed snapshot
	// (alias of ErrSnapshotCorrupt).
	ErrCorrupt = ErrSnapshotCorrupt
	// ErrVersion marks a snapshot format-version skew (alias of
	// ErrSnapshotVersion).
	ErrVersion = ErrSnapshotVersion
	// ErrMismatch marks a snapshot/configuration mismatch (alias of
	// ErrSnapshotMismatch).
	ErrMismatch = ErrSnapshotMismatch
)
