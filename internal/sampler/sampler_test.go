package sampler_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/img"
	"repro/internal/rng"
	"repro/internal/sampler"
)

// TestRegistryOrder pins the registration order, which orders CLI help
// text and the rows of the committed cross-backend report: the paper's
// backends first, the approximate backends after.
func TestRegistryOrder(t *testing.T) {
	want := []string{
		"software-gibbs", "software-first-to-fire", "metropolis",
		"rsu", "prototype", "spiking", "meanfield",
	}
	got := sampler.Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d backends, want %d: %v", len(got), len(want), got)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("index %d: %q, want %q", i, got[i], name)
		}
	}
}

// TestIndexLookupAgree: every listed name resolves to the backend
// registered under it, and unknown names do not resolve.
func TestIndexLookupAgree(t *testing.T) {
	for _, name := range sampler.Names() {
		be, ok := sampler.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", name)
		}
		if be.Name() != name {
			t.Fatalf("Lookup(%q) returned %q", name, be.Name())
		}
	}
	if _, ok := sampler.Lookup("no-such-backend"); ok {
		t.Fatal("unknown name resolved")
	}
}

// TestLegacyAliases: each spelling that predates the registry names
// resolves to the same backend as its canonical name, and is not
// listed among the registered names.
func TestLegacyAliases(t *testing.T) {
	aliases := map[string]string{
		"software":      "software-gibbs",
		"first-to-fire": "software-first-to-fire",
	}
	for alias, canon := range aliases {
		byAlias, ok := sampler.Lookup(alias)
		if !ok {
			t.Fatalf("Lookup(%q) missing", alias)
		}
		byName, _ := sampler.Lookup(canon)
		if byAlias != byName {
			t.Fatalf("%q resolves to %q, want %q", alias, byAlias.Name(), canon)
		}
		for _, n := range sampler.Names() {
			if n == alias {
				t.Fatalf("alias %q listed as a registered name", alias)
			}
		}
	}
}

// TestCapabilities pins the declared capability surface the rest of the
// stack validates against.
func TestCapabilities(t *testing.T) {
	caps := func(name string) sampler.Capabilities {
		be, ok := sampler.Lookup(name)
		if !ok {
			t.Fatalf("backend %q missing", name)
		}
		return be.Caps()
	}
	for _, exact := range []string{"software-gibbs", "software-first-to-fire", "metropolis"} {
		c := caps(exact)
		if !c.Exact || !c.Checkpoint || c.Faults || c.Deterministic {
			t.Fatalf("%s caps %+v", exact, c)
		}
	}
	if c := caps("rsu"); c.Exact || !c.Faults || !c.Checkpoint {
		t.Fatalf("rsu caps %+v", c)
	}
	if c := caps("prototype"); c.MinLabels != 2 || c.MaxLabels != 2 || c.Faults {
		t.Fatalf("prototype caps %+v", c)
	}
	if c := caps("spiking"); c.Exact || c.Deterministic || !c.Checkpoint || c.Faults {
		t.Fatalf("spiking caps %+v", c)
	}
	if c := caps("meanfield"); !c.Deterministic || c.Checkpoint || c.MaxLabels != 2 {
		t.Fatalf("meanfield caps %+v", c)
	}
}

// TestBareModelBuilds: the software kernels and the approximate
// backends build from a bare model (the kernel bench has no App); the
// hardware emulations require the application and must say so.
func TestBareModelBuilds(t *testing.T) {
	scene := img.BlobScene(16, 16, 2, 6, rng.New(3))
	app, err := apps.NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	spec := sampler.BuildSpec{Model: app.Model(), Init: app.InitLabels()}
	for _, name := range []string{"software-gibbs", "software-first-to-fire", "metropolis", "prototype", "spiking", "meanfield"} {
		be, _ := sampler.Lookup(name)
		inst, err := be.New(spec)
		if err != nil {
			t.Fatalf("%s: bare-model build: %v", name, err)
		}
		if inst.Factory() == nil {
			t.Fatalf("%s: nil factory", name)
		}
	}
	rsuBE, _ := sampler.Lookup("rsu")
	if _, err := rsuBE.New(spec); err == nil {
		t.Fatal("rsu accepted a bare-model spec")
	}
	if _, err := rsuBE.New(sampler.BuildSpec{App: app}); err != nil {
		t.Fatalf("rsu app build: %v", err)
	}
}

// aliasBackend is a stub whose name is a legacy alias.
type aliasBackend struct{}

func (aliasBackend) Name() string                                    { return "software" }
func (aliasBackend) Caps() sampler.Capabilities                      { return sampler.Capabilities{} }
func (aliasBackend) New(sampler.BuildSpec) (sampler.Instance, error) { return nil, nil }

// TestRegisterPanics: duplicate registrations and names that shadow a
// legacy alias are programming errors.
func TestRegisterPanics(t *testing.T) {
	expectPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	be, _ := sampler.Lookup("software-gibbs")
	expectPanic("duplicate name", func() { sampler.Register(be) })
	expectPanic("legacy alias name", func() { sampler.Register(aliasBackend{}) })
}
