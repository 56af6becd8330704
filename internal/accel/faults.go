package accel

import (
	"context"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/rsu"
)

// Control-core cost of one CMOS-fallback site evaluation, per §2.2 /
// Table 1: ~100 cycles of parameterization plus ~100 of exponentiation
// per label, plus the categorical draw. Fallback sites run on the
// accelerator's scalar control processor, serially with the array.
const (
	fallbackCyclesPerLabel = 200
	fallbackSampleCycles   = 588
)

// FaultStats extends Stats with the fault subsystem's accounting for a
// RunFaulty invocation.
type FaultStats struct {
	// RSUSites, FallbackSites and SkippedSites partition the site
	// evaluations: drawn on the (possibly degraded) RSU array, rerouted
	// to the control core's exact CMOS kernel, or frozen by quarantine.
	RSUSites, FallbackSites, SkippedSites uint64
	// FallbackCycles is the control-core time spent on rerouted sites
	// (already included in Stats.Cycles).
	FallbackCycles float64
	// Audit reconciles injected against detected faults.
	Audit *fault.Audit
}

// RunFaulty is Run with the fault-injection subsystem in the loop: the
// schedule in fopt is compiled over the image geometry (fault unit =
// image row), every TTF measurement feeds the online monitors, and the
// selected policy degrades around detections. Quarantined rows stop
// consuming array or memory time; fallback rows are evaluated by the
// scalar control core at software cost, serial with the array — the
// timing model of graceful degradation. Cancellation is cooperative and
// checked between sweeps; on ctx cancel RunFaulty returns the state
// simulated so far — including the audit of the sweeps that did run —
// together with an error wrapping ctx.Err().
func RunFaulty(ctx context.Context, a apps.App, unit *rsu.Unit, cfg Config, fopt fault.Options) (*img.LabelMap, *img.LabelMap, Stats, FaultStats, error) {
	return simulate(ctx, a, unit, cfg, &fopt)
}
