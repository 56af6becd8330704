package accel

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/img"
)

// goldenDigest hashes the labels, the mode and a summary line that
// carries the exact bits of the cycle count.
func goldenDigest(lm, mode *img.LabelMap, summary string) string {
	h := sha256.New()
	h.Write(lm.Labels)
	h.Write(mode.Labels)
	h.Write([]byte(summary))
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenRunDigest pins Run's labels, mode and Stats.Cycles to a
// fixed digest, so a change to the simulator loop cannot drift the
// plain and faulty paths together unnoticed.
func TestGoldenRunDigest(t *testing.T) {
	app, _, unit := segSetup(t, 24, 24)
	lm, mode, stats, err := Run(context.Background(), app, unit, PaperConfig(5, 20, 7))
	if err != nil {
		t.Fatal(err)
	}
	summary := fmt.Sprintf("cycles=%x compute=%d memory=%d",
		math.Float64bits(stats.Cycles), stats.ComputeBoundPhases, stats.MemoryBoundPhases)
	const want = "30fbc0ec367678e030d36ec955d6792c1d91c14e1f4ca05454970789b9b02a7e"
	if got := goldenDigest(lm, mode, summary); got != want {
		t.Errorf("digest %s, want %s (%s)", got, want, summary)
	}
}

// TestGoldenRunFaultyDigests pins RunFaulty's labels, mode, cycle
// count, FaultStats site counts and audit JSON for every policy under
// one mixed fault schedule.
func TestGoldenRunFaultyDigests(t *testing.T) {
	app, _, unit := segSetup(t, 24, 24)
	cfg := PaperConfig(5, 20, 7)
	const schedule = "dead:unit=3,sweep=2;dead:rate=4e-3;hot:rate=3e-3,storm=6;stuck:rate=2e-3,bit=3,val=0;wrap:rate=1e-3"
	want := map[fault.Policy]string{
		fault.PolicyNone:       "df2153b1b32a52ad1a16aaf56c7fc5e6e2f02503e03a8ad649e4ac46ae986b36",
		fault.PolicyRemap:      "5c86f31c37730a94d8035e3d5b35f5dd447e4463d9fae0a5d47df9fdf86ad895",
		fault.PolicyResample:   "1410ab1cb7c893552637181ec6318fd01bc611d106b49594e174658a628345f1",
		fault.PolicyQuarantine: "aab18dab55210aec3844811485d2c89fd40637e3557acd2c04fc486e00a8bbc9",
		fault.PolicyFallback:   "3dda1b61f5f74d0b7f689a4672d43a954c37eeb6131ec8745994782e68af3dda",
	}
	for _, p := range []fault.Policy{fault.PolicyNone, fault.PolicyRemap, fault.PolicyResample, fault.PolicyQuarantine, fault.PolicyFallback} {
		t.Run(p.String(), func(t *testing.T) {
			lm, mode, stats, fs, err := RunFaulty(context.Background(), app, unit, cfg,
				fault.Options{Schedule: schedule, Seed: 11, Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			var audit bytes.Buffer
			if err := fs.Audit.WriteJSON(&audit); err != nil {
				t.Fatal(err)
			}
			summary := fmt.Sprintf("cycles=%x fallback_cycles=%x rsu=%d fallback=%d skipped=%d\n%s",
				math.Float64bits(stats.Cycles), math.Float64bits(fs.FallbackCycles),
				fs.RSUSites, fs.FallbackSites, fs.SkippedSites, audit.String())
			if got := goldenDigest(lm, mode, summary); got != want[p] {
				t.Errorf("digest %s, want %s (rsu=%d fallback=%d skipped=%d)",
					got, want[p], fs.RSUSites, fs.FallbackSites, fs.SkippedSites)
			}
		})
	}
}
