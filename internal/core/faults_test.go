package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/rng"
)

// faultTestApp builds the small segmentation instance shared by the
// fault-path tests.
func faultTestApp(t *testing.T) (apps.App, img.Scene) {
	t.Helper()
	scene := img.BlobScene(32, 32, 3, 6, rng.New(41))
	app, err := apps.NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	return app, scene
}

func faultConfig(policy fault.Policy, schedule string, workers int) Config {
	return Config{
		BackendName: "rsu",
		Iterations:  24,
		BurnIn:      8,
		Workers:     workers,
		Seed:        5,
		Faults: &fault.Options{
			Schedule: schedule,
			Seed:     99,
			Policy:   policy,
		},
	}
}

// TestFaultPathHealthyMatchesPlain: with an empty fault schedule and
// untripped monitors the fault-threaded sampler must draw exactly the
// same RNG stream as the plain RSU path — byte-identical labelings.
func TestFaultPathHealthyMatchesPlain(t *testing.T) {
	app, _ := faultTestApp(t)

	plain, err := NewSolver(app, Config{BackendName: "rsu", Iterations: 24, BurnIn: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pRes, err := plain.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	faulty, err := NewSolver(app, faultConfig(fault.PolicyRemap, "", 1))
	if err != nil {
		t.Fatal(err)
	}
	fRes, err := faulty.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !labelsEqual(pRes.Final, fRes.Final) {
		t.Error("fault-free fault path diverged from the plain RSU path")
	}
	if a := fRes.FaultAudit; a == nil {
		t.Fatal("no audit attached")
	} else if a.Summary.Injected != 0 || a.Summary.Events != 0 {
		t.Errorf("fault-free run reported injected=%d events=%d", a.Summary.Injected, a.Summary.Events)
	}
}

// TestFaultDeterminism: for every policy, a fixed seed and schedule
// must give byte-identical labelings and audits across repeat runs AND
// across worker counts (the acceptance criterion).
func TestFaultDeterminism(t *testing.T) {
	app, _ := faultTestApp(t)
	const schedule = "dead:unit=3,sweep=2;hot:rate=2e-3,storm=6;stuck:unit=10,sweep=5,bit=3,val=0;wearout:unit=7,sweep=1,accel=0.4;wrap:unit=20,sweep=6,dur=4"

	for _, policy := range []fault.Policy{
		fault.PolicyNone, fault.PolicyRemap, fault.PolicyResample,
		fault.PolicyQuarantine, fault.PolicyFallback,
	} {
		t.Run(policy.String(), func(t *testing.T) {
			var ref *Result
			var refAudit []byte
			for _, workers := range []int{1, 1, 3, 7} {
				solver, err := NewSolver(app, faultConfig(policy, schedule, workers))
				if err != nil {
					t.Fatal(err)
				}
				res, err := solver.Solve(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if res.FaultAudit == nil {
					t.Fatal("no audit attached")
				}
				var buf bytes.Buffer
				if err := res.FaultAudit.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref, refAudit = res, buf.Bytes()
					if res.FaultAudit.Summary.Injected == 0 {
						t.Fatal("schedule injected nothing")
					}
					continue
				}
				if !labelsEqual(ref.Final, res.Final) || !labelsEqual(ref.MAP, res.MAP) {
					t.Errorf("workers=%d: labeling differs from reference", workers)
				}
				if !bytes.Equal(refAudit, buf.Bytes()) {
					t.Errorf("workers=%d: audit JSON differs from reference", workers)
				}
			}
		})
	}
}

// TestFaultAuditAccountsEveryInjection: for a deterministic schedule
// every injected fault must land in a non-escape bucket — detected,
// masked by an already-degraded path, or armed too late for its
// monitor's latency budget. Unaccounted == 0 is the acceptance
// criterion's "injected == detected+quarantined" audit invariant.
func TestFaultAuditAccountsEveryInjection(t *testing.T) {
	app, _ := faultTestApp(t)
	const schedule = "dead:unit=3,sweep=2;dead:unit=4,sweep=3;stuck:unit=10,sweep=5,bit=3,val=0;wrap:unit=20,sweep=6,dur=6;hot:unit=12,sweep=4,dur=8,storm=8"

	for _, policy := range []fault.Policy{
		fault.PolicyNone, fault.PolicyRemap, fault.PolicyResample,
		fault.PolicyQuarantine, fault.PolicyFallback,
	} {
		t.Run(policy.String(), func(t *testing.T) {
			solver, err := NewSolver(app, faultConfig(policy, schedule, 2))
			if err != nil {
				t.Fatal(err)
			}
			res, err := solver.Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sum := res.FaultAudit.Summary
			if sum.Injected != 5 {
				t.Fatalf("injected = %d, want 5", sum.Injected)
			}
			if sum.Unaccounted != 0 {
				t.Errorf("unaccounted = %d, want 0 (summary %+v)", sum.Unaccounted, sum)
			}
			if sum.Detected+sum.Masked+sum.Late != sum.Injected {
				t.Errorf("detected %d + masked %d + late %d != injected %d",
					sum.Detected, sum.Masked, sum.Late, sum.Injected)
			}
			if sum.Detected == 0 {
				t.Error("nothing detected at all")
			}
		})
	}
}

// TestFaultPolicyEffects: the policies must actually engage — remap
// consumes spares, quarantine freezes units, fallback reroutes them.
func TestFaultPolicyEffects(t *testing.T) {
	app, _ := faultTestApp(t)
	const schedule = "dead:unit=3,sweep=2;dead:unit=9,sweep=4"

	run := func(p fault.Policy) fault.Summary {
		t.Helper()
		solver, err := NewSolver(app, faultConfig(p, schedule, 1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.FaultAudit.Summary
	}

	if s := run(fault.PolicyRemap); s.Remaps == 0 {
		t.Errorf("remap policy performed no remaps: %+v", s)
	}
	if s := run(fault.PolicyQuarantine); s.QuarantinedUnits == 0 {
		t.Errorf("quarantine policy froze no units: %+v", s)
	}
	if s := run(fault.PolicyFallback); s.FallbackUnits == 0 {
		t.Errorf("fallback policy rerouted no units: %+v", s)
	}
	if s := run(fault.PolicyResample); s.Resamples == 0 {
		t.Errorf("resample policy redrew nothing: %+v", s)
	}
	if s := run(fault.PolicyNone); s.Remaps != 0 || s.QuarantinedUnits != 0 || s.FallbackUnits != 0 {
		t.Errorf("none policy degraded something: %+v", s)
	}
}

// TestFaultsRejectNonRSUBackend: the fault model lives in the RSU
// hardware; software backends must refuse it loudly.
func TestFaultsRejectNonRSUBackend(t *testing.T) {
	app, _ := faultTestApp(t)
	cfg := faultConfig(fault.PolicyRemap, "dead:unit=0", 1)
	cfg.BackendName = "software-gibbs"
	if _, err := NewSolver(app, cfg); err == nil {
		t.Error("software backend accepted fault options")
	}

	bad := faultConfig(fault.PolicyRemap, "dead:unit=?", 1)
	if _, err := NewSolver(app, bad); err == nil {
		t.Error("malformed schedule accepted")
	}
}

func labelsEqual(a, b *img.LabelMap) bool {
	if a == nil || b == nil || a.W != b.W || a.H != b.H {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	return true
}
