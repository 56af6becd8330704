// Package serve is the inference-as-a-service layer (ROADMAP item 1):
// a multi-tenant job runtime that admits MRF inference jobs through a
// bounded, load-shedding queue, runs them on a sharded pool of solver
// workers, and survives both graceful drains (SIGTERM → checkpoint →
// restart → resume) and outright SIGKILL with no job lost and no job
// completed twice.
//
// Robustness invariants, in the order the request path meets them:
//
//   - Admission is never unbounded: a full queue, an empty tenant token
//     bucket, or an exhausted tenant quota sheds the submit with a typed
//     ShedError (HTTP 429 + Retry-After) instead of blocking.
//   - Every accepted job is durable before the client learns its ID
//     (journal record fsynced first), and reaches exactly one terminal
//     state: done, deadline-exceeded (with the partial labels and sweep
//     count the chain reached), or failed.
//   - Per-job deadlines ride the PR 4 context plumbing: expiry stops the
//     chain at a sweep boundary and keeps the partial result.
//   - Transient attempt failures retry with exponential backoff and
//     deterministic jitter (internal/serve/backoff); the jitter stream
//     is derived from the server's BackoffSeed and the job sequence,
//     never from the solver's chain streams, so retrying cannot change
//     a single sampled label. Permanent errors (invalid configs,
//     checkpoint fingerprint mismatches) never retry.
//   - Fault-degraded attempts escalate the degradation policy
//     (→ quarantine → fallback) instead of failing outright.
//   - Drain stops admission, cancels in-flight chains (each writes a
//     final checkpoint at its sweep boundary), parks them as preempted,
//     and a restarted server resumes them bit-exactly — fingerprint
//     checked, worker-count invariant — per the checkpoint guarantees.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve/backoff"
	"repro/internal/serve/migrate"
)

// ErrInvalidConfig is wrapped by every server-configuration error.
var ErrInvalidConfig = errors.New("serve: invalid config")

// ErrDraining rejects submissions while the server is shutting down.
var ErrDraining = errors.New("serve: draining")

// ErrUnknownJob marks status/labels lookups for IDs never accepted.
var ErrUnknownJob = errors.New("serve: unknown job")

// ErrDegraded is the transient failure produced when a fault-armed
// attempt completes with unaccounted injected faults — the monitors
// missed real damage, so the result cannot be trusted. The retry runs
// under an escalated degradation policy.
var ErrDegraded = errors.New("serve: fault degradation exceeded policy")

// errPreempted marks an attempt stopped by drain/shutdown rather than
// by its own failure; the job parks as preempted and resumes after
// restart.
var errPreempted = errors.New("serve: preempted")

// ErrNotActive rejects submissions on a node that does not own the
// cluster lease: a standby, or a primary still acquiring its lease.
// The HTTP layer renders it as 503 + Retry-After.
var ErrNotActive = errors.New("serve: not active (standby or awaiting lease)")

// ErrNoPeer rejects migration requests on a server with no replication
// peer configured.
var ErrNoPeer = errors.New("serve: no migration peer configured")

// errMigrate marks an attempt stopped by a planned handoff rather than
// by its own failure; runJob hands the job off to the peer.
var errMigrate = errors.New("serve: migrating")

// ShedError is a load-shedding admission rejection: the client should
// retry after the hinted delay. The HTTP layer renders it as 429 +
// Retry-After.
type ShedError struct {
	// Reason is the shed class: "queue-full" | "rate-limited" | "quota".
	Reason string
	// RetryAfter hints when capacity should exist again.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: shed (%s), retry after %v", e.Reason, e.RetryAfter)
}

// Config shapes a Server.
type Config struct {
	// StateDir is the durable root: job journal, chain snapshots,
	// terminal outputs. Required.
	StateDir string
	// QueueDepth bounds the admission queue; submits past it are shed
	// with 429 (default 64).
	QueueDepth int
	// Shards is the number of solver workers pulling from the queue
	// (default 2). Each runs one job at a time; per-job checkerboard
	// parallelism inside a solve is the job's Workers setting.
	Shards int
	// WorkerOverride, when positive, replaces every job's requested
	// Workers — safe because seeded results are worker-count-invariant,
	// and exactly what the chaos harness uses to prove W=1↔W=N resume.
	WorkerOverride int
	// ModelCacheSize is the app-cache capacity in checked-in app
	// instances (default 8; 0 keeps the default, negative disables).
	// The cache saves scene synthesis and app construction; potential
	// tables are still compiled per job.
	ModelCacheSize int
	// CheckpointEverySweeps is the per-job snapshot cadence (default 1:
	// every sweep boundary is durable, the strongest resume guarantee).
	CheckpointEverySweeps int
	// Retry is the transient-failure backoff policy. Zero value gets
	// the serving default (3 retries, 100ms base, 2s cap, 0.5 jitter).
	Retry backoff.Policy
	// BackoffSeed derives the per-job jitter streams (seed ^ job seq).
	// Deliberately separate from every chain seed.
	BackoffSeed uint64
	// Tenants maps tenant names to their limits; unlisted tenants get
	// DefaultLimits.
	Tenants map[string]TenantLimits
	// DefaultLimits applies to tenants absent from Tenants (zero value:
	// unlimited rate, unlimited quota).
	DefaultLimits TenantLimits
	// RetryAfterHint is the Retry-After returned on queue-full sheds
	// (default 1s).
	RetryAfterHint time.Duration
	// Recorder is the server-wide metrics registry (default: a fresh
	// obs.New()). Queue-depth and in-flight gauges, shed/retry/deadline
	// counters, per-tenant counters and job-latency histograms land
	// here; /metrics serves it.
	Recorder *obs.Registry
	// Now supplies the wall clock (default time.Now — injected so tests
	// and the detrand determinism discipline control time).
	Now func() time.Time
	// Sleep waits out backoff delays (default backoff.SleepTimer).
	Sleep backoff.SleepFunc
	// Migrate, when non-nil, makes this server one side of a two-node
	// replication pair (internal/serve/migrate): a primary (Peer set)
	// acquires an epoch lease and streams every journal frame and chain
	// snapshot to its standby; a standby (Standby set) receives them
	// and takes over when the primary's heartbeats stop.
	Migrate *migrate.Config
	// EventsHeartbeat is the cadence of heartbeat lines on followed
	// /v1/jobs/{id}/events streams while the job is queued or running
	// (default 15s; negative disables).
	EventsHeartbeat time.Duration

	// preSolve is a test hook invoked before each solve attempt; a
	// non-nil return is handled exactly like a solver error. Unexported:
	// only this package's tests can arm it.
	preSolve func(jobID string, attempt int) error
}

// withDefaults returns cfg with zero fields filled in.
func (cfg Config) withDefaults() Config {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.ModelCacheSize == 0 {
		cfg.ModelCacheSize = 8
	}
	if cfg.CheckpointEverySweeps == 0 {
		cfg.CheckpointEverySweeps = 1
	}
	if cfg.Retry.Base == 0 && cfg.Retry.MaxRetries == 0 {
		cfg.Retry = backoff.Policy{
			Base:       100 * time.Millisecond,
			Cap:        2 * time.Second,
			Factor:     2,
			Jitter:     0.5,
			MaxRetries: 3,
		}
	}
	if cfg.RetryAfterHint == 0 {
		cfg.RetryAfterHint = time.Second
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obs.New()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Sleep == nil {
		cfg.Sleep = backoff.SleepTimer
	}
	if cfg.EventsHeartbeat == 0 {
		cfg.EventsHeartbeat = 15 * time.Second
	}
	return cfg
}

// Validate checks the configuration, wrapping ErrInvalidConfig.
func (cfg Config) Validate() error {
	if cfg.StateDir == "" {
		return fmt.Errorf("%w: StateDir is required", ErrInvalidConfig)
	}
	if cfg.QueueDepth < 0 {
		return fmt.Errorf("%w: QueueDepth %d < 0", ErrInvalidConfig, cfg.QueueDepth)
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("%w: Shards %d < 0", ErrInvalidConfig, cfg.Shards)
	}
	if cfg.WorkerOverride < 0 || cfg.WorkerOverride > MaxSpecWorkers {
		return fmt.Errorf("%w: WorkerOverride %d outside [0,%d]", ErrInvalidConfig, cfg.WorkerOverride, MaxSpecWorkers)
	}
	if cfg.CheckpointEverySweeps < 0 {
		return fmt.Errorf("%w: CheckpointEverySweeps %d < 0", ErrInvalidConfig, cfg.CheckpointEverySweeps)
	}
	if err := cfg.Retry.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if cfg.Migrate != nil {
		if err := cfg.Migrate.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	if err := cfg.DefaultLimits.Validate(); err != nil {
		return err
	}
	for name, tl := range cfg.Tenants {
		if !tenantName.MatchString(name) {
			return fmt.Errorf("%w: tenant name %q (want %s)", ErrInvalidConfig, name, tenantName)
		}
		if err := tl.Validate(); err != nil {
			return fmt.Errorf("tenant %q: %w", name, err)
		}
	}
	return nil
}

// Server is the multi-tenant inference daemon runtime. Construct with
// New (which also recovers the journal), start the shard pool with
// Start, serve Handler over HTTP, and stop with Drain.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	store *store
	cache *appCache

	// repl / standby are the two sides of the migration pair (at most
	// one non-nil, per migrate.Config.Validate).
	repl    *migrate.Primary
	standby *migrate.Standby

	mu       sync.Mutex
	jobs     map[string]*job
	queue    chan *job
	queued   int // client-admitted jobs currently in the queue
	running  int
	seq      uint64
	tenants  map[string]*tenantState
	draining bool
	started  bool
	// active gates admission and job execution enqueueing: true on an
	// unreplicated server, after the lease grant on a primary, and
	// after takeover on a standby.
	active bool
	// fenced latches when the peer refused this node's lease epoch —
	// the node stops committing state permanently.
	fenced bool
	// pendingRecovered holds journal-recovered jobs on a replicated
	// primary until its lease is granted.
	pendingRecovered []*job

	runCtx     context.Context
	cancelRun  context.CancelFunc
	replCancel context.CancelFunc
	wg         sync.WaitGroup
}

// New validates the configuration, opens the state directory, and
// recovers the journal: every non-terminal job found there is re-queued
// with resume armed, in original admission order, ahead of any new
// submissions. Terminal jobs stay addressable for status and labels.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	st, err := newStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	replicated := cfg.Migrate != nil && cfg.Migrate.Peer != ""
	standbyMode := cfg.Migrate != nil && cfg.Migrate.Standby
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Recorder,
		store:   st,
		cache:   newAppCache(cfg.ModelCacheSize),
		jobs:    map[string]*job{},
		tenants: map[string]*tenantState{},
		active:  !replicated && !standbyMode,
	}
	var recovered []*job
	if !standbyMode {
		// A standby skips journal recovery entirely: the primary is
		// streaming the live truth into the journal, and takeover()
		// rebuilds from it at promotion time. Recovering here would
		// freeze a stale view and fight the incoming frames.
		recs, err := st.Load()
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			status, err := st.GetStatus(rec.ID)
			if err != nil {
				return nil, err
			}
			if rec.Seq >= s.seq {
				s.seq = rec.Seq + 1
			}
			j := newJob(rec, status)
			s.jobs[rec.ID] = j
			if status.State.Terminal() {
				j.events.Close()
				continue
			}
			j.resumed = status.Sweeps > 0 || status.Attempts > 0
			j.setState(func(st *jobStatus) { st.State = StateQueued })
			if _, err := st.PutStatus(rec.ID, j.Status()); err != nil {
				return nil, err
			}
			recovered = append(recovered, j)
			s.tenant(rec.Tenant).inflight++
		}
	}
	// The queue channel is sized so that recovery plus a full client
	// admission window can never block a push: shedding is enforced by
	// the queued counter, not by channel capacity. (Takeover and
	// adoption enqueue through feedQueue, which never blocks a caller.)
	s.queue = make(chan *job, cfg.QueueDepth+len(recovered)+1)
	if s.active {
		for _, j := range recovered {
			j.queuedOnce = true
			s.queue <- j
			s.queued++
			obs.Add(s.reg, "serve.jobs.recovered", 1)
		}
	} else {
		// A leaseless primary holds its recovered jobs until activate().
		s.pendingRecovered = recovered
	}
	if replicated {
		p, err := migrate.NewPrimary(cfg.StateDir, *cfg.Migrate, s.reg,
			s.store.CheckpointPath, s.activate, s.fence)
		if err != nil {
			return nil, err
		}
		s.repl = p
	}
	if standbyMode {
		sb, err := migrate.NewStandby(cfg.StateDir, *cfg.Migrate, s.reg, migrate.Hooks{
			WriteRecord:  s.store.PutRawRecord,
			WriteStatus:  s.store.PutRawStatus,
			WriteLabels:  s.store.PutLabels,
			SnapshotPath: s.store.CheckpointPath,
			Adopt:        s.adoptJob,
			Takeover:     s.takeover,
		})
		if err != nil {
			return nil, err
		}
		s.standby = sb
		if sb.TookOver() {
			// A restarted standby that had already seized ownership
			// resumes it immediately (the ledger is durable).
			s.takeover(0)
		}
	}
	s.gauges()
	return s, nil
}

// tenant returns (creating on first use) the tenant's state. Callers
// hold s.mu or are in single-threaded construction.
func (s *Server) tenant(name string) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		tl, listed := s.cfg.Tenants[name]
		if !listed {
			tl = s.cfg.DefaultLimits
		}
		t = newTenantState(tl, s.cfg.Now())
		s.tenants[name] = t
	}
	return t
}

// Start launches the shard pool under ctx. Canceling ctx is a hard
// stop (jobs park as preempted at their next sweep boundary); prefer
// Drain for the graceful path.
func (s *Server) Start(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("%w: Start called twice", ErrInvalidConfig)
	}
	s.started = true
	s.runCtx, s.cancelRun = context.WithCancel(ctx)
	for i := 0; i < s.cfg.Shards; i++ {
		s.wg.Add(1)
		go func(shard int) {
			defer s.wg.Done()
			s.shardLoop(s.runCtx, shard)
		}(i)
	}
	// Replication runs on its own context derived from the caller's,
	// NOT runCtx: a drain cancels the shards first, then flushes the
	// replication queue, and only then stops the sender/detector.
	if s.repl != nil || s.standby != nil {
		rctx, cancel := context.WithCancel(ctx)
		s.replCancel = cancel
		if s.repl != nil {
			go func() { _ = s.repl.Run(rctx) }()
		}
		if s.standby != nil {
			go func() { _ = s.standby.Run(rctx) }()
		}
	}
	return nil
}

// Drain gracefully stops the server: admission turns off (submits get
// ErrDraining), every in-flight chain is canceled and writes its final
// checkpoint at the next sweep boundary, queued jobs stay journaled,
// and the shard pool exits. Returns once all shards have parked or ctx
// expires. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	wasStarted := s.started
	s.draining = true
	s.gaugesLocked()
	if s.cancelRun != nil {
		s.cancelRun()
	}
	s.mu.Unlock()
	if !wasStarted {
		return nil
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
	// Shards are parked and every in-flight chain has written its final
	// checkpoint; flush the replication queue so the standby holds the
	// newest state before the sender stops.
	if s.repl != nil {
		_ = s.repl.Flush(ctx)
	}
	s.mu.Lock()
	replCancel := s.replCancel
	// End every live event stream so followers drain and disconnect
	// (otherwise they would pin the HTTP shutdown).
	for _, j := range s.jobs {
		j.events.Close()
	}
	s.mu.Unlock()
	if replCancel != nil {
		replCancel()
	}
	return nil
}

// Draining reports whether admission is off.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Metrics returns the server-wide registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Active reports whether this node owns job execution (unreplicated,
// leased primary, or promoted standby).
func (s *Server) Active() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Fenced reports whether the peer refused this node's lease epoch.
func (s *Server) Fenced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenced
}

// activate runs when the standby grants this primary its lease: jobs
// recovered from the journal finally enqueue, and the whole journal is
// re-replicated so the standby can fail over even for jobs admitted
// under an earlier lease.
func (s *Server) activate(epoch uint64) {
	s.mu.Lock()
	if s.active || s.fenced {
		s.mu.Unlock()
		return
	}
	s.active = true
	pending := s.pendingRecovered
	s.pendingRecovered = nil
	for _, j := range pending {
		j.queuedOnce = true
	}
	known := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		known = append(known, j)
	}
	s.gaugesLocked()
	s.mu.Unlock()

	for _, j := range pending {
		s.mu.Lock()
		s.queued++
		s.gaugesLocked()
		s.mu.Unlock()
		s.queue <- j
		obs.Add(s.reg, "serve.jobs.recovered", 1)
	}
	// Initial journal sync. Frame order per job (record before status)
	// matches the store's recovery contract; snapshots ride the dirty
	// set. Terminal outputs replicate too, so a failed-over standby can
	// serve every job's labels.
	for _, j := range known {
		if data, err := json.MarshalIndent(j.rec, "", "  "); err == nil {
			s.repl.Record(j.rec.ID, data)
		}
		st := j.Status()
		if data, err := json.MarshalIndent(st, "", "  "); err == nil {
			s.repl.Status(j.rec.ID, data)
		}
		if st.State == StateDone || st.State == StateExpired {
			if data, err := os.ReadFile(s.store.LabelsPath(j.rec.ID)); err == nil {
				s.repl.Labels(j.rec.ID, data)
			}
		}
		s.repl.Snapshot(j.rec.ID)
	}
	obs.Add(s.reg, "serve.migrate.activations", 1)
}

// fence runs when the peer refuses this node's lease epoch: a newer
// epoch owns the jobs, so this node must never commit state again. It
// behaves like a drain that cannot be undone — admission off, chains
// canceled at their next sweep boundary (their local checkpoints stay,
// but no frame leaves the node).
func (s *Server) fence() {
	s.mu.Lock()
	if s.fenced {
		s.mu.Unlock()
		return
	}
	s.fenced = true
	s.active = false
	s.draining = true
	cancel := s.cancelRun
	s.gaugesLocked()
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// takeover promotes this standby: the replicated journal is re-scanned
// and every non-terminal job enqueues exactly as local crash recovery
// would — the replicated snapshot carries the chain, and worker-count
// invariance means it resumes bit-exactly whatever W the primary ran.
// Runs on the failure detector's goroutine (or New, for a restarted
// already-promoted standby), so the queue is fed asynchronously.
func (s *Server) takeover(uint64) {
	recs, err := s.store.Load()
	if err != nil {
		obs.Add(s.reg, "serve.journal.errors", 1)
		recs = nil
	}
	var enqueue []*job
	s.mu.Lock()
	s.active = true
	for _, rec := range recs {
		j, ok := s.jobs[rec.ID]
		if !ok {
			status, serr := s.store.GetStatus(rec.ID)
			if serr != nil {
				obs.Add(s.reg, "serve.journal.errors", 1)
				continue
			}
			if rec.Seq >= s.seq {
				s.seq = rec.Seq + 1
			}
			j = newJob(rec, status)
			s.jobs[rec.ID] = j
		}
		st := j.Status()
		if st.State.Terminal() {
			j.events.Close()
			continue
		}
		if j.queuedOnce {
			continue
		}
		j.queuedOnce = true
		j.resumed = st.Sweeps > 0 || st.Attempts > 0
		j.setState(func(st *jobStatus) {
			st.State = StateQueued
			st.Peer = ""
		})
		s.tenant(rec.Tenant).inflight++
		enqueue = append(enqueue, j)
	}
	s.gaugesLocked()
	s.mu.Unlock()
	s.feedQueue(enqueue)
}

// adoptJob is the standby's planned-handoff hook: the primary has
// flushed the job's frames and snapshot, and now transfers execution.
// Idempotent — a retried adopt finds queuedOnce set and does nothing.
func (s *Server) adoptJob(id string) error {
	rec, err := s.store.GetRecord(id)
	if err != nil {
		return err
	}
	status, err := s.store.GetStatus(id)
	if err != nil {
		return err
	}
	var enqueue []*job
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		if rec.Seq >= s.seq {
			s.seq = rec.Seq + 1
		}
		j = newJob(rec, status)
		s.jobs[id] = j
	}
	st := j.Status()
	switch {
	case st.State.Terminal():
		j.events.Close()
	case j.queuedOnce:
		// Already adopted (or recovered by a takeover racing this
		// handoff); nothing to do.
	default:
		j.queuedOnce = true
		j.resumed = st.Sweeps > 0 || st.Attempts > 0
		j.setState(func(st *jobStatus) {
			st.State = StateQueued
			st.Peer = ""
		})
		s.tenant(j.rec.Tenant).inflight++
		enqueue = append(enqueue, j)
	}
	s.gaugesLocked()
	s.mu.Unlock()
	s.feedQueue(enqueue)
	return nil
}

// feedQueue persists the queued statuses and pushes the jobs onto the
// shard queue from a separate goroutine — takeover and adoption run on
// replication goroutines that must never block on queue capacity.
func (s *Server) feedQueue(jobs []*job) {
	if len(jobs) == 0 {
		return
	}
	go func() {
		for _, j := range jobs {
			if _, err := s.store.PutStatus(j.rec.ID, j.Status()); err != nil {
				obs.Add(s.reg, "serve.journal.errors", 1)
			}
			s.mu.Lock()
			s.queued++
			s.gaugesLocked()
			s.mu.Unlock()
			s.queue <- j
			obs.Add(s.reg, "serve.jobs.recovered", 1)
		}
	}()
}

// MigrateJob starts a planned handoff: the job's in-flight attempt (if
// any) stops at its next sweep boundary, replication flushes its final
// checkpoint, and the peer adopts execution. The handoff completes
// asynchronously; poll the job for the migrated state.
func (s *Server) MigrateJob(id string) error {
	if s.repl == nil {
		return ErrNoPeer
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if st := j.Status(); st.State.Terminal() {
		return fmt.Errorf("serve: job %s already terminal (%s)", id, st.State)
	}
	obs.Add(s.reg, "serve.migrate.requests", 1)
	j.setMigrating(true)
	j.cancelAttempt()
	return nil
}

// handoff completes a planned migration on the owning shard: the final
// snapshot is marked dirty, the replication queue flushes (record,
// statuses, snapshot — everything the peer needs), and the peer adopts
// the job. Failure is not terminal: the job clears its migrating flag
// and re-queues locally.
func (s *Server) handoff(ctx context.Context, j *job) {
	id := j.rec.ID
	err := func() error {
		if s.repl == nil {
			return ErrNoPeer
		}
		s.repl.Snapshot(id)
		if err := s.repl.Flush(ctx); err != nil {
			return err
		}
		return s.repl.Adopt(ctx, id)
	}()
	if err != nil {
		obs.Add(s.reg, "serve.migrate.handoff_failures", 1)
		j.setMigrating(false)
		s.persist(j, 0, func(st *jobStatus) {
			st.State = StateQueued
		})
		s.mu.Lock()
		s.queued++
		s.gaugesLocked()
		s.mu.Unlock()
		s.queue <- j
		return
	}
	// Mark migrated BEFORE persisting, so the terminal status is local
	// only: the peer owns the job's status stream from here on.
	j.setMigrated()
	s.persist(j, 0, func(st *jobStatus) {
		st.State = StateMigrated
		st.Peer = s.cfg.Migrate.Peer
		st.Error = ""
	})
	obs.Add(s.reg, "serve.migrate.jobs_migrated", 1)
}

// Submit admits one job for tenant: spec validation, tenant token
// bucket, tenant quota, then a bounded-queue reservation — shedding
// with a typed ShedError at the first limit hit — and only then the
// durable journal write that makes the job real. Never blocks on queue
// capacity.
func (s *Server) Submit(tenant string, spec JobSpec) (id string, err error) {
	if !tenantName.MatchString(tenant) {
		return "", fmt.Errorf("%w: tenant name %q (want %s)", ErrInvalidSpec, tenant, tenantName)
	}
	if err := spec.Validate(); err != nil {
		obs.Add(s.reg, "serve.jobs.rejected", 1)
		return "", err
	}
	spec = spec.withDefaults()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		obs.Add(s.reg, "serve.shed.draining", 1)
		return "", ErrDraining
	}
	if !s.active {
		s.mu.Unlock()
		obs.Add(s.reg, "serve.shed.inactive", 1)
		return "", ErrNotActive
	}
	t := s.tenant(tenant)
	if ok, retry := t.admit(s.cfg.Now()); !ok {
		s.mu.Unlock()
		obs.Add(s.reg, "serve.shed.rate", 1)
		obs.Add(s.reg, "serve.tenant."+tenant+".shed", 1)
		return "", &ShedError{Reason: "rate-limited", RetryAfter: retry}
	}
	if !t.quotaOK() {
		s.mu.Unlock()
		obs.Add(s.reg, "serve.shed.quota", 1)
		obs.Add(s.reg, "serve.tenant."+tenant+".shed", 1)
		return "", &ShedError{Reason: "quota", RetryAfter: s.cfg.RetryAfterHint}
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		obs.Add(s.reg, "serve.shed.queue", 1)
		obs.Add(s.reg, "serve.tenant."+tenant+".shed", 1)
		return "", &ShedError{Reason: "queue-full", RetryAfter: s.cfg.RetryAfterHint}
	}
	seq := s.seq
	s.seq++
	rec := jobRecord{
		ID:     fmt.Sprintf("%s-%06d", tenant, seq),
		Tenant: tenant,
		Seq:    seq,
		Spec:   spec,
	}
	j := newJob(rec, jobStatus{State: StateQueued})
	j.queuedOnce = true
	// Reserve the slot before releasing the lock so concurrent submits
	// see the queue fill immediately; roll back if the journal write
	// fails.
	s.jobs[rec.ID] = j
	s.queued++
	t.inflight++
	s.gaugesLocked()
	s.mu.Unlock()

	recData, err := s.store.PutRecord(rec)
	if err != nil {
		s.mu.Lock()
		delete(s.jobs, rec.ID)
		s.queued--
		t.inflight--
		s.gaugesLocked()
		s.mu.Unlock()
		return "", fmt.Errorf("serve: journal: %w", err)
	}
	if s.repl != nil {
		s.repl.Record(rec.ID, recData)
	}
	s.emitState(j, j.Status(), 0)
	s.queue <- j
	obs.Add(s.reg, "serve.jobs.accepted", 1)
	obs.Add(s.reg, "serve.tenant."+tenant+".accepted", 1)
	return rec.ID, nil
}

// Job returns the job's record and current status.
func (s *Server) Job(id string) (jobRecord, jobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return jobRecord{}, jobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.rec, j.Status(), nil
}

// Jobs lists every known job ID in admission order.
func (s *Server) Jobs() []jobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]jobRecord, 0, len(s.jobs))
	for _, j := range s.jobs {
		recs = append(recs, j.rec)
	}
	for i := 1; i < len(recs); i++ { // insertion sort by seq; list endpoints are cold
		for k := i; k > 0 && recs[k-1].Seq > recs[k].Seq; k-- {
			recs[k-1], recs[k] = recs[k], recs[k-1]
		}
	}
	return recs
}

// Labels returns the terminal label bytes (PGM) for a done or expired
// job.
func (s *Server) Labels(id string) ([]byte, error) {
	_, status, err := s.Job(id)
	if err != nil {
		return nil, err
	}
	switch status.State {
	case StateDone, StateExpired:
		return os.ReadFile(s.store.LabelsPath(id))
	default:
		return nil, fmt.Errorf("serve: job %s not terminal (state %s)", id, status.State)
	}
}

// shardLoop pulls jobs until the run context dies.
func (s *Server) shardLoop(ctx context.Context, shard int) {
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-s.queue:
			s.mu.Lock()
			s.queued--
			s.running++
			s.gaugesLocked()
			s.mu.Unlock()
			s.runJob(ctx, j)
			s.mu.Lock()
			s.running--
			s.gaugesLocked()
			s.mu.Unlock()
		}
	}
}

// runJob drives one job to a terminal or parked state: the backoff.Do
// retry loop around attempts, permanent-error classification, and the
// final bookkeeping (tenant quota release, latency histogram).
func (s *Server) runJob(ctx context.Context, j *job) {
	start := s.cfg.Now()
	// The jitter stream is keyed by the job's admission sequence and the
	// server's backoff seed — disjoint by construction from every chain
	// seed, which only ever reaches rng.New through gibbs.Run.
	jitter := rng.New(s.cfg.BackoffSeed ^ (j.rec.Seq+1)*0x9e3779b97f4a7c15)
	policy := s.cfg.Retry
	policy.Permanent = append(append([]error(nil), policy.Permanent...),
		core.ErrInvalidConfig, ErrInvalidSpec, checkpoint.ErrMismatch)

	err := backoff.Do(ctx, policy, jitter, s.cfg.Sleep, func(ctx context.Context, attempt int) (aerr error) {
		// A panicking attempt (hostile spec reaching an assertion, a bug
		// in one workload) fails that job permanently instead of taking
		// down the daemon and every other tenant's jobs with it.
		defer func() {
			if r := recover(); r != nil {
				obs.Add(s.reg, "serve.attempt.panics", 1)
				aerr = backoff.Permanent(fmt.Errorf("serve: attempt panic: %v", r))
			}
		}()
		return s.attempt(ctx, j, attempt)
	})

	s.mu.Lock()
	tenant := s.tenant(j.rec.Tenant)
	s.mu.Unlock()

	switch {
	case err == nil:
		// Terminal state (done or deadline-exceeded) already persisted
		// by the attempt.
	case errors.Is(err, errMigrate):
		// Planned handoff: flush replication and transfer execution to
		// the peer (or re-queue locally on failure).
		s.handoff(ctx, j)
	case errors.Is(err, errPreempted), ctx.Err() != nil:
		// Parked, not terminal: quota stays held on the journal, and the
		// restarted server re-counts it during recovery. The ctx.Err()
		// arm catches a drain landing mid-backoff-wait — Do surfaces the
		// attempt's transient error then, not a preemption marker.
		if !errors.Is(err, errPreempted) {
			s.persist(j, 0, func(st *jobStatus) { st.State = StatePreempted })
			obs.Add(s.reg, "serve.jobs.preempted", 1)
		}
	default:
		obs.Add(s.reg, "serve.jobs.failed", 1)
		s.persist(j, 0, func(st *jobStatus) {
			st.State = StateFailed
			st.Error = err.Error()
		})
	}

	status := j.Status()
	if status.State.Terminal() {
		j.events.Close()
		s.mu.Lock()
		tenant.inflight--
		s.gaugesLocked()
		s.mu.Unlock()
		s.reg.Observe("serve.job.latency_seconds", s.cfg.Now().Sub(start).Seconds())
		obs.Add(s.reg, "serve.tenant."+j.rec.Tenant+".terminal", 1)
	}
}

// attempt runs one solve attempt end to end and persists any terminal
// outcome itself. Its error return drives retry classification only:
// nil for a terminal outcome (done or expired), errPreempted (wrapped
// Permanent) when the server is stopping, a transient error to back
// off and retry, or a permanent error to fail.
func (s *Server) attempt(ctx context.Context, j *job, attempt int) error {
	if j.isMigrating() {
		// A planned handoff armed while the job was queued or waiting
		// out a backoff: hand it off without starting the attempt.
		return backoff.Permanent(errMigrate)
	}
	if ctx.Err() != nil {
		s.persist(j, attempt, func(st *jobStatus) { st.State = StatePreempted })
		obs.Add(s.reg, "serve.jobs.preempted", 1)
		return backoff.Permanent(errPreempted)
	}
	if hook := s.cfg.preSolve; hook != nil {
		if err := hook(j.rec.ID, attempt); err != nil {
			return s.attemptFailed(j, attempt, err)
		}
	}

	spec := j.rec.Spec
	prev := j.Status()
	faultPolicy := fault.PolicyRemap
	if prev.FaultPolicy != "" {
		p, err := fault.ParsePolicy(prev.FaultPolicy)
		if err != nil {
			return backoff.Permanent(fmt.Errorf("%w: %v", ErrInvalidSpec, err))
		}
		faultPolicy = p
	} else if spec.FaultPolicy != "" {
		p, err := fault.ParsePolicy(spec.FaultPolicy)
		if err != nil {
			return backoff.Permanent(fmt.Errorf("%w: %v", ErrInvalidSpec, err))
		}
		faultPolicy = p
	}

	workers := spec.Workers
	if s.cfg.WorkerOverride > 0 {
		workers = s.cfg.WorkerOverride
	}
	ckptPath := s.store.CheckpointPath(j.rec.ID)
	// Every durable snapshot marks the job's replication state dirty;
	// the sender ships the newest generation. The hook runs on the
	// solve goroutine, so it only flips a flag.
	var onSave func(int)
	if s.repl != nil {
		id := j.rec.ID
		onSave = func(int) {
			if !j.isMigrated() {
				s.repl.Snapshot(id)
			}
		}
	}
	cfg, err := solverConfig(spec, faultPolicy, workers, ckptPath, s.cfg.CheckpointEverySweeps, onSave)
	if err != nil {
		return backoff.Permanent(err)
	}
	cfg.Recorder = j.reg

	key := spec.ModelKey()
	app := s.cache.Get(key)
	if app == nil {
		obs.Add(s.reg, "serve.cache.misses", 1)
		app, err = buildApp(spec)
		if err != nil {
			return backoff.Permanent(err)
		}
	} else {
		obs.Add(s.reg, "serve.cache.hits", 1)
	}
	defer func() {
		if r := recover(); r != nil {
			// Do not check a panicked-over instance back in — its state
			// is suspect and would poison later jobs. Re-panic for the
			// attempt-level containment above.
			panic(r)
		}
		s.cache.Put(key, app)
	}()

	solver, err := core.NewSolver(app, cfg)
	if err != nil {
		return s.attemptFailed(j, attempt, err)
	}

	s.persist(j, attempt, func(st *jobStatus) {
		st.State = StateRunning
		st.Attempts = attempt + 1
		st.FaultPolicy = faultPolicy.String()
		st.Error = ""
	})

	// The attempt runs under its own cancel so a planned handoff can
	// stop this chain at its next sweep boundary without touching the
	// shard's run context. Re-check the flag after publishing the
	// cancel func: a MigrateJob landing in between would miss it.
	actx, cancelAttempt := context.WithCancel(ctx)
	defer cancelAttempt()
	j.setAttemptCancel(cancelAttempt)
	defer j.setAttemptCancel(nil)
	if j.isMigrating() {
		cancelAttempt()
	}

	res, err := solver.Solve(actx)

	switch {
	case err == nil:
		if spec.Faults != "" && res.FaultAudit != nil && res.FaultAudit.Summary.Unaccounted > 0 {
			return s.degraded(j, attempt, faultPolicy, res)
		}
		return s.finish(j, attempt, res, StateDone)
	case errors.Is(err, context.DeadlineExceeded) && actx.Err() == nil:
		// The job's own deadline (core applied Config.Deadline inside
		// this attempt) — terminal, with whatever the chain reached.
		obs.Add(s.reg, "serve.jobs.deadline_exceeded", 1)
		return s.finish(j, attempt, res, StateExpired)
	case actx.Err() != nil && ctx.Err() == nil && j.isMigrating():
		// Planned handoff stopped the chain; its final checkpoint is
		// durable at the cancellation sweep boundary, and OnSave has
		// already marked it for replication.
		s.persist(j, attempt, func(st *jobStatus) {
			st.State = StateMigrating
			if res != nil {
				st.Sweeps = res.Iterations
			}
		})
		return backoff.Permanent(errMigrate)
	case ctx.Err() != nil, actx.Err() != nil:
		// Drain or hard stop: the final checkpoint is already durable
		// (written at the cancellation sweep boundary).
		s.persist(j, attempt, func(st *jobStatus) {
			st.State = StatePreempted
			if res != nil {
				st.Sweeps = res.Iterations
			}
		})
		obs.Add(s.reg, "serve.jobs.preempted", 1)
		return backoff.Permanent(errPreempted)
	default:
		return s.attemptFailed(j, attempt, err)
	}
}

// attemptFailed classifies an attempt error: permanent classes pass
// straight through (backoff.Do stops on them), transient ones persist
// the retry-wait state. A snapshot the chain cannot resume from — a
// corrupt one (external damage by the checkpoint layer's contract) or
// one written by another format version (a job parked across an
// upgrade) — is cleared so the retry reruns the chain from sweep 0,
// which reproduces the same digest because the chain is a pure
// function of the spec.
func (s *Server) attemptFailed(j *job, attempt int, err error) error {
	switch {
	case errors.Is(err, checkpoint.ErrCorrupt):
		_ = os.Remove(s.store.CheckpointPath(j.rec.ID))
		obs.Add(s.reg, "serve.ckpt.corrupt_dropped", 1)
	case errors.Is(err, checkpoint.ErrVersion):
		_ = os.Remove(s.store.CheckpointPath(j.rec.ID))
		obs.Add(s.reg, "serve.ckpt.version_dropped", 1)
	}
	perm := errors.Is(err, core.ErrInvalidConfig) || errors.Is(err, ErrInvalidSpec) ||
		errors.Is(err, checkpoint.ErrMismatch)
	if !perm {
		obs.Add(s.reg, "serve.retries", 1)
		s.persist(j, attempt, func(st *jobStatus) {
			st.State = StateRetryWait
			st.Error = err.Error()
		})
	}
	return err
}

// degraded handles a fault-armed attempt whose audit shows unaccounted
// injected faults: escalate the degradation policy toward the exact
// CMOS fallback and retry on a fresh chain. An attempt already at
// fallback is accepted — the exact kernel is the strongest response
// available.
func (s *Server) degraded(j *job, attempt int, current fault.Policy, res *core.Result) error {
	next, ok := escalate(current)
	if !ok {
		return s.finish(j, attempt, res, StateDone)
	}
	// The policy is part of the checkpoint fingerprint, so the retry
	// cannot resume the degraded chain; drop the snapshot and start
	// clean under the stronger policy.
	_ = os.Remove(s.store.CheckpointPath(j.rec.ID))
	obs.Add(s.reg, "serve.retries", 1)
	obs.Add(s.reg, "serve.fault.escalations", 1)
	s.persist(j, attempt, func(st *jobStatus) {
		st.State = StateRetryWait
		st.Error = ErrDegraded.Error()
		st.FaultPolicy = next.String()
	})
	return fmt.Errorf("%w: escalating %v -> %v", ErrDegraded, current, next)
}

// escalate returns the next-stronger degradation policy.
func escalate(p fault.Policy) (fault.Policy, bool) {
	switch p {
	case fault.PolicyNone, fault.PolicyRemap, fault.PolicyResample:
		return fault.PolicyQuarantine, true
	case fault.PolicyQuarantine:
		return fault.PolicyFallback, true
	default:
		return p, false
	}
}

// finish persists a terminal result: labels first (durable before the
// status that advertises them), then the status flip. The label bytes
// are the raw label field as a PGM — byte-exact, so clients can golden-
// diff results across resumes.
func (s *Server) finish(j *job, attempt int, res *core.Result, state State) error {
	if res == nil {
		return s.attemptFailed(j, attempt, fmt.Errorf("serve: %s result missing", state))
	}
	lm := res.MAP
	if lm == nil {
		lm = res.Final
	}
	if lm == nil {
		return s.attemptFailed(j, attempt, fmt.Errorf("serve: %s result has no labels", state))
	}
	gray := &img.Gray{W: lm.W, H: lm.H, Pix: append([]uint8(nil), lm.Labels...)}
	var pgm pgmBuffer
	if err := img.EncodePGM(&pgm, gray); err != nil {
		return s.attemptFailed(j, attempt, err)
	}
	if err := s.store.PutLabels(j.rec.ID, pgm.data); err != nil {
		return s.attemptFailed(j, attempt, err)
	}
	if s.repl != nil && !j.isMigrated() {
		s.repl.Labels(j.rec.ID, pgm.data)
	}
	digest := Digest(res)
	// Counters move before the state flips: pollers that observe the
	// terminal state must also observe its counters.
	if state == StateDone {
		obs.Add(s.reg, "serve.jobs.completed", 1)
		if j.resumed {
			obs.Add(s.reg, "serve.jobs.resumed_completed", 1)
		}
	}
	s.persist(j, attempt, func(st *jobStatus) {
		st.State = state
		st.Sweeps = res.Iterations
		st.Digest = digest
		st.Error = ""
	})
	return nil
}

// persist applies a status mutation: journal write first, then the
// job.state event, and only then the in-memory state that pollers see —
// so a client that observes a state has the matching journal entry and
// event stream available. Each job has a single persisting goroutine
// (its owning shard), which is what makes the preview/commit split
// race-free. Journal errors on status rewrites are recorded (counter)
// but do not fail the job: the record file plus the chain snapshot are
// what recovery needs.
func (s *Server) persist(j *job, attempt int, mut func(*jobStatus)) {
	status := j.previewState(mut)
	data, err := s.store.PutStatus(j.rec.ID, status)
	if err != nil {
		obs.Add(s.reg, "serve.journal.errors", 1)
	}
	if s.repl != nil && err == nil && !j.isMigrated() {
		// The exact journal bytes stream to the standby. Migrated jobs
		// are excluded: the peer owns their status from adoption on,
		// and a stale frame must not stomp its progress.
		s.repl.Status(j.rec.ID, data)
	}
	s.emitState(j, status, attempt)
	j.commitState(status)
}

// emitState streams a job state transition into the event buffer.
func (s *Server) emitState(j *job, status jobStatus, attempt int) {
	fields := map[string]any{
		"job":    j.rec.ID,
		"tenant": j.rec.Tenant,
		"state":  string(status.State),
		"sweeps": status.Sweeps,
	}
	if attempt > 0 {
		fields["attempt"] = attempt
	}
	if status.Error != "" {
		fields["error"] = status.Error
	}
	obs.Emit(j.reg, "job.state", fields)
}

// gauges/gaugesLocked refresh the queue and in-flight gauges.
func (s *Server) gauges() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gaugesLocked()
}

func (s *Server) gaugesLocked() {
	s.reg.Gauge("serve.queue.depth", float64(s.queued))
	s.reg.Gauge("serve.jobs.running", float64(s.running))
	drain := 0.0
	if s.draining {
		drain = 1
	}
	s.reg.Gauge("serve.draining", drain)
	active := 0.0
	if s.active {
		active = 1
	}
	s.reg.Gauge("serve.active", active)
	fenced := 0.0
	if s.fenced {
		fenced = 1
	}
	s.reg.Gauge("serve.fenced", fenced)
}

// pgmBuffer is a minimal in-memory io.Writer for PGM encoding (avoids
// importing bytes just for a buffer).
type pgmBuffer struct{ data []byte }

func (b *pgmBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}
