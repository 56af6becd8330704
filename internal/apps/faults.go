package apps

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/gibbs"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/rng"
	"repro/internal/rsu"
)

// SitePath says which path of the RSU-G fault policy decided a site.
type SitePath int

const (
	// PathRSU: the (possibly degraded) RSU array drew the site. A draw
	// the policy rejected, keeping the current label, counts here too.
	PathRSU SitePath = iota
	// PathFallback: the exact CMOS Gibbs kernel redrew the site.
	PathFallback
	// PathSkip: quarantine froze the site at its current label.
	PathSkip
)

// FaultSite is the RSU-G fault site policy, the per-site loop of the
// rsu.SampleFaulty contract, shared by the gibbs-layer fault sampler
// and the accelerator simulator. It holds CMOS-kernel scratch, so each
// goroutine needs its own.
type FaultSite struct {
	App  App
	Unit *rsu.Unit
	buf  []float64 // CMOS fallback kernel scratch
}

// Sample returns the new label of site (x, y) under the fault context
// uc of the site's row, and the path that decided it. Quarantined rows
// keep their labels, fallback rows run the exact CMOS Gibbs kernel,
// sampling rows draw on the (possibly degraded) RSU and react to the
// session's verdict — redraw on a transient suspect, keep the current
// label on a reject, or switch to the CMOS kernel when the policy
// escalates mid-sample.
func (f *FaultSite) Sample(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source, uc *fault.UnitCtx) (int, SitePath) {
	switch uc.Directive() {
	case fault.DirectiveSkip:
		return lm.At(x, y), PathSkip
	case fault.DirectiveFallback:
		return f.cmosSample(m, lm, x, y, src), PathFallback
	}
	in := f.App.RSUInput(lm, x, y)
	for tries := 0; ; tries++ {
		label, _ := f.Unit.SampleFaulty(in, src, uc)
		switch uc.AfterSample(tries) {
		case fault.ReactAccept:
			return int(label), PathRSU
		case fault.ReactResample:
			continue
		default: // ReactReject
			// The policy discarded the sample. If it escalated this
			// row to CMOS fallback the site redraws exactly; otherwise
			// the reject keeps the current label (a rejected move).
			if uc.Directive() == fault.DirectiveFallback {
				return f.cmosSample(m, lm, x, y, src), PathFallback
			}
			return lm.At(x, y), PathRSU
		}
	}
}

// cmosSample is the exact software Gibbs kernel (the whole-unit
// fallback target): full quality at software cost.
func (f *FaultSite) cmosSample(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int {
	f.buf = m.ConditionalRates(f.buf, lm, x, y)
	return src.CategoricalRates(f.buf)
}

// faultRSUSampler is rsuSampler with the fault-injection session in the
// loop: every site update runs the FaultSite policy against the site
// row's fault context. The fault domain is the image row (unit index =
// y): in the checkerboard engine a row is swept by exactly one worker
// per color pass and BeginSweep runs between sweeps only, so the
// per-unit mutable state is never shared between concurrently running
// goroutines and results are invariant to the worker count.
type faultRSUSampler struct {
	site FaultSite
	sess *fault.Session
}

// NewFaultRSUSampler returns a gibbs.Factory whose samplers thread the
// fault session through the RSU sampling path. All workers share the
// session (its state is sharded per row); each worker gets its own
// scratch.
func NewFaultRSUSampler(a App, u *rsu.Unit, sess *fault.Session) gibbs.Factory {
	return func() gibbs.Sampler { return &faultRSUSampler{site: FaultSite{App: a, Unit: u}, sess: sess} }
}

// Name implements gibbs.Sampler.
func (s *faultRSUSampler) Name() string {
	cfg := s.site.Unit.Config()
	return fmt.Sprintf("rsu-g%d-%v+faults-%v", cfg.Width, cfg.Mode, s.sess.Policy())
}

// BeginSweep implements gibbs.SweepAware: it advances the fault session
// to the new sweep (rebuilding each row's active fault effects). The
// session deduplicates by sweep index — every worker's sampler makes
// this call, only the first acts.
func (s *faultRSUSampler) BeginSweep(iteration int) {
	s.sess.BeginSweep(iteration)
}

// SampleSite implements gibbs.Sampler.
func (s *faultRSUSampler) SampleSite(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int {
	label, _ := s.site.Sample(m, lm, x, y, src, s.sess.Unit(y))
	return label
}
