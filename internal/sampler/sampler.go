// Package sampler is the open backend registry behind core's dispatch:
// every sampling engine — the paper's exact kernels, the emulated RSU-G,
// and the approximate backends from the related literature — registers a
// named Backend descriptor here, and core resolves names through the
// registry instead of switching on an enum. The registry is the
// extension seam the distributed-sharding and UQ roadmap items program
// against: adding a backend means registering one descriptor, not
// editing core.
//
// A Backend carries a capability descriptor (label-count limits,
// determinism class, checkpoint and fault support) that core validates
// configurations against, and builds per-solver Instances that hand the
// sweep engine its gibbs.Factory.
package sampler

import (
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/gibbs"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/ret"
	"repro/internal/rsu"
	"repro/internal/sampler/meanfield"
	"repro/internal/sampler/spiking"
)

// Capabilities declares what a backend supports; core enforces them at
// configuration time, replacing the per-backend special cases the enum
// dispatch hard-coded.
type Capabilities struct {
	// MinLabels/MaxLabels bound the model label count the backend
	// accepts (0 means unbounded on that side). The RSU-G2 prototype's
	// two-label bench is MinLabels=MaxLabels=2.
	MinLabels, MaxLabels int
	// Exact reports whether the backend samples the true full
	// conditional (as opposed to an approximation with knobs).
	Exact bool
	// Deterministic reports that the backend never draws from the RNG:
	// the chain is a deterministic function of the seed schedule alone.
	Deterministic bool
	// Checkpoint reports that snapshots taken mid-run resume bit-exactly
	// (the backend keeps no per-run state outside the label map and RNG
	// streams, or can rebuild it from the iteration index).
	Checkpoint bool
	// Faults reports that the fault-injection subsystem can arm on this
	// backend (it models RSU hardware).
	Faults bool
}

// BuildSpec carries everything a backend may need to construct an
// Instance. Core fills App and the knob fields from its Config; the
// kernel bench, which has a bare model and no application, fills Model
// and Init instead (backends that emulate hardware need the real App
// and reject a bare-model spec).
type BuildSpec struct {
	// App is the application being solved (nil for bare-model builds).
	App apps.App
	// Model and Init override App.Model()/App.InitLabels() when App is
	// nil.
	Model *mrf.Model
	// Init is the initial labeling matching Model.
	Init *img.LabelMap
	// RSUWidth is the unit width K for the rsu backend (0: 1).
	RSUWidth int
	// RSUMode selects ideal or photon-level RET simulation (rsu).
	RSUMode rsu.SamplingMode
	// Circuit optionally overrides the RET circuit design (rsu).
	Circuit *ret.Circuit
	// Spiking tunes the spiking backend (nil: defaults).
	Spiking *spiking.Spec
	// MeanField tunes the meanfield backend (nil: defaults).
	MeanField *meanfield.Spec
}

// model resolves the MRF the spec targets.
func (sp BuildSpec) model() (*mrf.Model, error) {
	if sp.Model != nil {
		return sp.Model, nil
	}
	if sp.App != nil {
		return sp.App.Model(), nil
	}
	return nil, fmt.Errorf("sampler: build spec has neither an application nor a model")
}

// initLabels resolves the initial labeling the spec targets.
func (sp BuildSpec) initLabels() (*img.LabelMap, error) {
	if sp.Init != nil {
		return sp.Init, nil
	}
	if sp.App != nil {
		return sp.App.InitLabels(), nil
	}
	return nil, fmt.Errorf("sampler: build spec has neither an application nor an initial labeling")
}

// Instance is one solver's constructed backend: the factory handed to
// the sweep engine, plus the pieces core reports or fingerprints.
type Instance interface {
	// Factory creates the per-worker samplers.
	Factory() gibbs.Factory
	// Unit returns the emulated RSU unit, or nil for backends that have
	// none.
	Unit() *rsu.Unit
	// Tag is the backend-specific suffix of the checkpoint fingerprint:
	// every knob that changes the chain must appear in it.
	Tag() string
}

// FaultAware is implemented by instances whose Capabilities declare
// fault support: FaultFactory wraps the samplers in the fault-injection
// session.
type FaultAware interface {
	FaultFactory(sess *fault.Session) gibbs.Factory
}

// Backend describes one registered sampling engine.
type Backend interface {
	// Name is the registry key (lowercase, stable across releases).
	Name() string
	// Caps declares what configurations the backend accepts.
	Caps() Capabilities
	// New constructs the backend for one solver.
	New(spec BuildSpec) (Instance, error)
}

var (
	mu      sync.RWMutex
	ordered []Backend
	byName  = map[string]Backend{}
)

// aliases maps the spellings that predate the registry names onto the
// registered names. Lookup is the one place they resolve: every CLI
// flag, job spec and harness that takes a backend name goes through it.
var aliases = map[string]string{
	"software":      "software-gibbs",
	"first-to-fire": "software-first-to-fire",
}

// Register adds a backend to the registry. Names must be unique and
// must not shadow a legacy alias; a collision is a programming error
// and panics (registration happens in package init functions).
func Register(b Backend) {
	mu.Lock()
	defer mu.Unlock()
	name := b.Name()
	if name == "" {
		panic("sampler: Register with empty backend name")
	}
	if _, dup := byName[name]; dup {
		panic(fmt.Sprintf("sampler: backend %q registered twice", name))
	}
	if _, alias := aliases[name]; alias {
		panic(fmt.Sprintf("sampler: backend name %q is a legacy alias", name))
	}
	ordered = append(ordered, b)
	byName[name] = b
}

// Lookup returns the backend registered under name, or under the
// registered name a legacy alias ("software", "first-to-fire") stands
// for.
func Lookup(name string) (Backend, bool) {
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	mu.RLock()
	defer mu.RUnlock()
	b, ok := byName[name]
	return b, ok
}

// Names returns the registered backend names in registration order —
// the single source of CLI allowed-values help text. Legacy aliases are
// accepted by Lookup but not listed.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, len(ordered))
	for i, b := range ordered {
		out[i] = b.Name()
	}
	return out
}
