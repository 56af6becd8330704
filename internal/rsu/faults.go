package rsu

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/rng"
)

// SampleFaulty is Sample with the fault-injection and online-detection
// layer of internal/fault threaded between the pipeline stages. For a
// unit with no active faults and untripped monitors it draws exactly
// the same RNG stream as Sample and returns the same label, so the
// fault path costs nothing in fidelity when healthy.
//
// Per channel draw the fault hooks are, in stage order:
//
//	replica   — uc.NextReplica(): the §5.3 round-robin scheduler over
//	            the (possibly remapped) physical RET replicas
//	intensity — uc.ApplyCode: stuck-at bits corrupt the latched code
//	rate      — uc.RateScale: dead SPAD (0) or wear-out decay (<1)
//	race      — uc.ExtraRace: dark-count storms and quiescence
//	            leakage race a spurious exponential clock
//	register  — uc.WrapActive: a saturating measurement latches a
//	            junk phase of the free-running shift register
//	monitor   — uc.Observe: every measurement feeds the per-replica
//	            monitors (stall/EWMA/readback/dark-fire)
//
// The caller owns the policy loop: call uc.AfterSample after each
// sample and react to the returned fault.Reaction (see
// apps.FaultSite).
func (u *Unit) SampleFaulty(in Input, src *rng.Source, uc *fault.UnitCtx) (fixed.Label, Timing) {
	if in.Data2PerLabel != nil && len(in.Data2PerLabel) < u.cfg.M {
		panic(fmt.Sprintf("rsu: Data2PerLabel has %d entries, need %d", len(in.Data2PerLabel), u.cfg.M))
	}
	if in.SingletonPerLabel != nil && len(in.SingletonPerLabel) < u.cfg.M {
		panic(fmt.Sprintf("rsu: SingletonPerLabel has %d entries, need %d", len(in.SingletonPerLabel), u.cfg.M))
	}
	uc.BeginSample()
	window := u.timer.Window()
	maxCount := u.timer.MaxCount()
	bestIdx := u.cfg.M - 1
	bestCount := maxCount
	first := true
	for idx := u.cfg.M - 1; idx >= 0; idx-- {
		e := u.Energy(in, idx)
		commanded := u.cfg.Map[e]
		rep := uc.NextReplica()
		code := uc.ApplyCode(commanded, rep)

		scale := uc.RateScale(rep)
		nominal := u.levels[code]
		var ttf float64
		switch {
		case scale <= 0 || nominal <= 0:
			// Dead SPAD or dark rung: the channel never fires.
			ttf = math.Inf(1)
		case u.cfg.Mode == Physical:
			ttf = u.cfg.Circuit.SampleTTF(uint8(code), window, src)
			if scale < 1 {
				// Wear-out stretches the photon interarrival times by
				// the surviving fraction.
				ttf /= scale
			}
		default:
			ttf = src.Exponential(nominal * scale)
		}
		if extra := uc.ExtraRace(rep) * u.maxLevel; extra > 0 {
			// Spurious detections (dark-count storm, quiescence
			// leakage) race the real channel.
			if t := src.Exponential(extra); t < ttf {
				ttf = t
			}
		}

		count, saturated := u.timer.QuantizeSat(ttf)
		if saturated && uc.WrapActive(rep) {
			// Register-wrap fault: instead of holding at max count the
			// free-running shift register is latched at a junk phase.
			count = uint32(src.Intn(int(maxCount)))
			saturated = false
		}

		uc.Observe(fault.Obs{
			Replica:   rep,
			Commanded: commanded,
			Applied:   code,
			Dark:      u.levels[commanded] <= 0,
			ExpCount:  u.expCount[commanded],
			Count:     count,
			Saturated: saturated,
		})

		if first || count < bestCount {
			bestIdx, bestCount = idx, count
			first = false
		}
	}
	if bestCount >= maxCount {
		return in.Current, u.EvalTiming()
	}
	return fixed.NewLabel(bestIdx), u.EvalTiming()
}
