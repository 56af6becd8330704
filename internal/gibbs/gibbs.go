// Package gibbs implements the software MCMC substrate of the paper
// (§4.2): Gibbs sampling over first-order MRFs, with raster and
// checkerboard-parallel sweep schedules, annealing, burn-in, and
// per-site mode tracking for marginal MAP estimates.
//
// Each MCMC iteration updates every random variable once. In a
// first-order MRF all sites of one checkerboard color are conditionally
// independent given the other color, exposing the parallelism both the
// GPU baselines and the RSU architectures exploit.
package gibbs

import (
	"context"
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Sampler draws a new label for one site from (an approximation of) its
// full conditional distribution. Implementations may keep scratch state
// and are NOT safe for concurrent use; create one per worker via a
// Factory.
type Sampler interface {
	// SampleSite returns a new label in [0, m.M) for site (x, y).
	SampleSite(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int
	// Name identifies the sampler in reports.
	Name() string
}

// Factory creates an independent Sampler instance for each worker.
type Factory func() Sampler

// SweepAware is an optional Sampler extension: Run calls BeginSweep on
// every worker's sampler at the top of each iteration, strictly between
// sweeps (no SampleSite call in flight anywhere). Samplers that carry
// per-sweep state — e.g. the fault-injection session, which rebuilds
// the active fault set each sweep — implement it; shared state behind
// several workers' samplers must deduplicate by the iteration index
// (every worker's sampler receives the call).
type SweepAware interface {
	BeginSweep(iteration int)
}

// ExactGibbs samples directly from the normalized full conditional
// p(l) ∝ exp(-E(l)/T) — the textbook Gibbs update the software baselines
// implement (§8.1).
type ExactGibbs struct {
	buf []float64
}

// NewExactGibbs returns a Factory of exact Gibbs samplers.
func NewExactGibbs() Factory { return func() Sampler { return &ExactGibbs{} } }

// Name implements Sampler.
func (g *ExactGibbs) Name() string { return "exact-gibbs" }

// SampleSite implements Sampler. Categorical normalizes internally, so
// the unnormalized Boltzmann rates suffice — one fewer O(M) pass per
// site than drawing from ConditionalProbs. The branch-free draw
// returns the same index as CategoricalRates from the same generator
// state, so this path and the fused kernel (mrf.Kernel) stay
// byte-identical.
func (g *ExactGibbs) SampleSite(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int {
	g.buf = m.ConditionalRates(g.buf, lm, x, y)
	return src.CategoricalRatesBranchfree(g.buf)
}

// FirstToFireGibbs performs the Gibbs update by racing M ideal
// (unquantized) exponential clocks with rates λ_l = exp(-E(l)/T) — the
// mathematical principle of the RSU-G (§4.3) without any hardware
// quantization. It is distributionally identical to ExactGibbs; tests
// verify the equivalence.
type FirstToFireGibbs struct {
	buf []float64
}

// NewFirstToFire returns a Factory of ideal first-to-fire samplers.
func NewFirstToFire() Factory { return func() Sampler { return &FirstToFireGibbs{} } }

// Name implements Sampler.
func (g *FirstToFireGibbs) Name() string { return "first-to-fire" }

// SampleSite implements Sampler. The winner of an exponential-clock
// race is invariant under a common scaling of the rates, so the
// unnormalized Boltzmann rates parameterize the race directly — the
// divide-by-sum pass of ConditionalProbs is pure overhead here, exactly
// as it would be for an RSU intensity mapping.
func (g *FirstToFireGibbs) SampleSite(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int {
	g.buf = m.ConditionalRates(g.buf, lm, x, y)
	winner, _ := src.FirstToFire(g.buf)
	return winner
}

// Metropolis implements a Metropolis-Hastings update with a uniform
// label proposal — the other common MCMC kernel the paper mentions
// (§4.2). Included as a baseline for convergence comparisons.
type Metropolis struct{}

// NewMetropolis returns a Factory of Metropolis samplers.
func NewMetropolis() Factory { return func() Sampler { return &Metropolis{} } }

// Name implements Sampler.
func (Metropolis) Name() string { return "metropolis" }

// SampleSite implements Sampler.
func (Metropolis) SampleSite(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int {
	cur := lm.At(x, y)
	prop := src.Intn(m.M)
	if prop == cur {
		return cur
	}
	eCur := m.SiteEnergy(lm, x, y, cur)
	eProp := m.SiteEnergy(lm, x, y, prop)
	if eProp <= eCur {
		return prop
	}
	if src.Bernoulli(math.Exp(-(eProp - eCur) / m.T)) {
		return prop
	}
	return cur
}

// Schedule selects the order sites are visited within one iteration.
type Schedule int

const (
	// Raster visits sites row-major, one at a time (sequential chain).
	Raster Schedule = iota
	// Checkerboard updates all color-0 sites, then all color-1 sites.
	// Sites within a color are conditionally independent, so they may be
	// updated concurrently without changing the stationary distribution.
	Checkerboard
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	switch s {
	case Raster:
		return "raster"
	case Checkerboard:
		return "checkerboard"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Options configures a chain run.
type Options struct {
	Iterations int      // total MCMC iterations (full sweeps)
	BurnIn     int      // iterations before mode tracking starts
	Schedule   Schedule // sweep order
	// Workers sets checkerboard parallelism (<=1: sequential). RNG
	// streams are attached to rows, not workers, so for the built-in
	// samplers (whose state is pure scratch) a seeded run produces the
	// same labels for every worker count.
	Workers int
	// Anneal, if non-nil, returns the temperature for iteration t
	// (0-based); otherwise the model temperature is used throughout.
	Anneal func(t int) float64
	// TrackMode enables per-site sample counting for marginal-MAP
	// estimates; costs W*H*M counters.
	TrackMode bool
	// RecordEnergyEvery records the total energy every k iterations into
	// Result.EnergyTrace (0 disables; 1 records every iteration).
	RecordEnergyEvery int
	// Resume, if non-nil, rewinds the chain to this snapshot before the
	// first sweep: labels, RNG streams, mode counters, and energy trace
	// are restored and the run continues from Snapshot.Sweep. The
	// snapshot must match the model geometry and the sweep schedule;
	// fingerprint identity is checked by the layer that owns the
	// configuration (core), not here.
	Resume *checkpoint.Snapshot
	// Checkpoint, if non-nil, captures durable snapshots at sweep
	// boundaries per the policy. On cancellation a final snapshot is
	// always written before returning.
	Checkpoint *CheckpointPolicy
	// Recorder, if non-nil, receives chain metrics: sweep and
	// color-phase span timings, sweep/site counters, the energy gauge,
	// and checkpoint-write spans and events. Recording happens only at
	// sweep and color-pass boundaries — never per site — and never
	// touches the RNG streams, so an observed run samples the exact
	// same labels as an unobserved one (nil is the zero-cost default).
	Recorder obs.Recorder
}

// Result is the outcome of a chain run.
type Result struct {
	// Final is the labeling after the last iteration.
	Final *img.LabelMap
	// MAP is the per-site mode over post-burn-in samples (marginal MAP,
	// §1: "identifying the mode of the generated samples"). Nil unless
	// Options.TrackMode.
	MAP *img.LabelMap
	// Confidence holds, per site, the fraction of post-burn-in samples
	// equal to the MAP label, scaled to 0..255 — an uncertainty map
	// (255 = the chain always agreed). Nil unless Options.TrackMode.
	Confidence *img.Gray
	// EnergyTrace holds TotalEnergy snapshots (see RecordEnergyEvery).
	EnergyTrace []float64
	// Iterations is the number of sweeps performed.
	Iterations int
	// SamplerName records which sampler kernel ran.
	SamplerName string
}

// Run executes an MCMC chain on model m starting from init (which is not
// modified). The run is deterministic given (factory, opt, seed), and
// checkerboard runs are additionally invariant to Options.Workers (see
// Options). Compiling the model first (mrf.Model.Compile) switches the
// inner loop to the precomputed-table fast path without changing any
// sampled label: table and closure evaluation are bit-identical.
//
// The context provides cooperative cancellation and is checked at sweep
// boundaries only — a sweep in progress always completes, so
// cancellation can never leave a color pass half-applied or a snapshot
// capturing mid-sweep state. On cancellation (or deadline) Run writes a
// final checkpoint if Options.Checkpoint is set, then returns a non-nil
// *partial* Result (final labels, MAP/confidence over the sweeps that
// did run) alongside an error wrapping ctx.Err(); callers that want the
// partial output check errors.Is(err, context.Canceled) /
// context.DeadlineExceeded. The deferred worker-pool shutdown runs on
// every return path, so no goroutines outlive the call.
func Run(ctx context.Context, m *mrf.Model, init *img.LabelMap, factory Factory, opt Options, seed uint64) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if init.W != m.W || init.H != m.H {
		return nil, fmt.Errorf("gibbs: init labeling is %dx%d, model is %dx%d", init.W, init.H, m.W, m.H)
	}
	for i, l := range init.Labels {
		if int(l) >= m.M {
			return nil, fmt.Errorf("gibbs: init label %d at site %d outside [0,%d)", l, i, m.M)
		}
	}
	if opt.Iterations <= 0 {
		return nil, fmt.Errorf("gibbs: Iterations must be positive, got %d", opt.Iterations)
	}
	if opt.BurnIn < 0 || opt.BurnIn >= opt.Iterations {
		return nil, fmt.Errorf("gibbs: BurnIn %d outside [0,%d)", opt.BurnIn, opt.Iterations)
	}
	if opt.Checkpoint != nil {
		if err := opt.Checkpoint.validate(); err != nil {
			return nil, err
		}
	}

	rec := opt.Recorder
	endRun := obs.Span(rec, "gibbs.run")
	defer endRun()

	lm := init.Clone()
	res := &Result{Iterations: opt.Iterations}

	var counts []uint32
	if opt.TrackMode {
		counts = make([]uint32, m.W*m.H*m.M)
	}

	if opt.Schedule != Raster && opt.Schedule != Checkerboard {
		return nil, fmt.Errorf("gibbs: unknown schedule %v", opt.Schedule)
	}

	workers := opt.Workers
	if workers < 1 || opt.Schedule == Raster {
		workers = 1
	}
	if workers > m.H {
		workers = m.H // a worker owns at least one row
	}

	// Per-worker samplers (scratch state), a sequential chain stream for
	// raster sweeps, and — for checkerboard sweeps — one decorrelated
	// stream per row so results are independent of the worker count.
	root := rng.New(seed)
	chain := root.Split()
	samplers := make([]Sampler, workers)
	for i := range samplers {
		samplers[i] = factory()
	}
	res.SamplerName = samplers[0].Name()

	var eng *engine
	cs := &chainState{m: m, lm: lm, chain: chain, counts: counts}
	if opt.Schedule == Checkerboard {
		rowSrc := make([]*rng.Source, m.H)
		for y := range rowSrc {
			rowSrc[y] = root.Split()
		}
		cs.rowSrc = rowSrc
		eng = newEngine(m, lm, samplers, rowSrc)
		eng.rec = rec
		eng.start()
		defer eng.stop()
	}

	start := 0
	if opt.Resume != nil {
		var err error
		if start, err = cs.restore(opt.Resume, opt); err != nil {
			return nil, err
		}
		obs.Emit(rec, "checkpoint.resume", map[string]any{"sweep": start})
	}

	pol := opt.Checkpoint
	// durationDue reports (statefully) whether pol.Every wall time has
	// elapsed since the run started or the last duration checkpoint.
	var durationDue func() bool
	if pol != nil && pol.Every > 0 {
		t0 := pol.Now()
		durationDue = func() bool {
			now := pol.Now()
			if now.Sub(t0) >= pol.Every {
				t0 = now
				return true
			}
			return false
		}
	}
	save := func(next int) error {
		endSave := obs.Span(rec, "checkpoint.save")
		defer endSave()
		snap, err := cs.capture(pol, next)
		if err != nil {
			return err
		}
		if err := pol.Sink(snap); err != nil {
			return fmt.Errorf("gibbs: checkpoint sink at sweep %d: %w", next, err)
		}
		obs.Add(rec, "checkpoint.saves", 1)
		obs.Emit(rec, "checkpoint.save", map[string]any{"sweep": next})
		return nil
	}

	baseT := m.T
	defer func() { m.T = baseT }()

	completed := start
	for it := start; it < opt.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			if pol != nil {
				if serr := save(completed); serr != nil {
					return nil, serr
				}
			}
			finish(res, cs, opt, completed)
			obs.Emit(rec, "gibbs.cancel", map[string]any{"sweep": completed})
			return res, fmt.Errorf("gibbs: run stopped before sweep %d/%d: %w", it, opt.Iterations, err)
		}
		for _, s := range samplers {
			if sa, ok := s.(SweepAware); ok {
				sa.BeginSweep(it)
			}
		}
		if opt.Anneal != nil {
			t := opt.Anneal(it)
			if t <= 0 {
				return nil, fmt.Errorf("gibbs: Anneal(%d) returned non-positive temperature %v", it, t)
			}
			m.T = t
			m.RetuneRateLUT() // keep the compiled rate LUT on the new temperature
		}
		endSweep := obs.Span(rec, "gibbs.sweep")
		if opt.Schedule == Raster {
			sweepRaster(m, lm, samplers[0], chain)
		} else {
			eng.sweep()
		}
		endSweep()
		obs.Add(rec, "gibbs.sweeps", 1)
		obs.Add(rec, "gibbs.sites", int64(m.W*m.H))
		if opt.TrackMode && it >= opt.BurnIn {
			for i, l := range lm.Labels {
				counts[i*m.M+int(l)]++
			}
		}
		if opt.RecordEnergyEvery > 0 && it%opt.RecordEnergyEvery == 0 {
			cs.energy = append(cs.energy, m.TotalEnergy(lm))
			obs.Gauge(rec, "gibbs.energy", cs.energy[len(cs.energy)-1])
		}
		completed = it + 1
		if pol != nil && completed < opt.Iterations {
			due := pol.EverySweeps > 0 && completed%pol.EverySweeps == 0
			if !due && durationDue != nil {
				due = durationDue()
			}
			if due {
				if err := save(completed); err != nil {
					return nil, err
				}
			}
		}
	}

	finish(res, cs, opt, completed)
	return res, nil
}

// finish derives the result fields from the chain state after
// `completed` total sweeps (which is opt.Iterations for a full run, less
// when cancellation stopped the chain early).
func finish(res *Result, cs *chainState, opt Options, completed int) {
	res.Final = cs.lm
	res.Iterations = completed
	res.EnergyTrace = cs.energy
	if !opt.TrackMode {
		return
	}
	m := cs.m
	res.MAP = img.NewLabelMap(m.W, m.H)
	res.Confidence = img.NewGray(m.W, m.H)
	samples := uint32(0)
	if completed > opt.BurnIn {
		samples = uint32(completed - opt.BurnIn)
	}
	for i := 0; i < m.W*m.H; i++ {
		best, bestC := 0, uint32(0)
		for l := 0; l < m.M; l++ {
			if c := cs.counts[i*m.M+l]; c > bestC {
				best, bestC = l, c
			}
		}
		res.MAP.Labels[i] = uint8(best)
		if samples > 0 {
			res.Confidence.Pix[i] = uint8(bestC * 255 / samples)
		}
	}
}

func sweepRaster(m *mrf.Model, lm *img.LabelMap, s Sampler, src *rng.Source) {
	if _, ok := s.(*ExactGibbs); ok {
		if k := m.Kernel(); k != nil && k.Ready() {
			sc := mrf.GetScratch(m.M)
			for y := 0; y < m.H; y++ {
				k.SweepRow(lm, y, 0, 1, src, sc)
			}
			mrf.PutScratch(sc)
			return
		}
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			lm.Set(x, y, s.SampleSite(m, lm, x, y, src))
		}
	}
}

// GeometricAnneal returns an annealing schedule T(t) = t0 * r^t, floored
// at tMin. Classic simulated-annealing cooling for MAP-style inference.
func GeometricAnneal(t0, r, tMin float64) func(int) float64 {
	return func(t int) float64 {
		temp := t0 * math.Pow(r, float64(t))
		if temp < tMin {
			return tMin
		}
		return temp
	}
}

// Converged reports whether the last `window` entries of an energy trace
// changed by less than relTol relative to their mean — a cheap
// convergence heuristic for tests and demos.
func Converged(trace []float64, window int, relTol float64) bool {
	if len(trace) < window || window < 2 {
		return false
	}
	tail := trace[len(trace)-window:]
	lo, hi, sum := tail[0], tail[0], 0.0
	for _, v := range tail {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		sum += v
	}
	mean := sum / float64(window)
	if mean == 0 {
		return hi-lo == 0
	}
	return (hi-lo)/abs(mean) < relTol
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
