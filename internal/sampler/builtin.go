package sampler

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/fixed"
	"repro/internal/gibbs"
	"repro/internal/prototype"
	"repro/internal/rsu"
	"repro/internal/sampler/meanfield"
	"repro/internal/sampler/spiking"
)

// The built-in backends register here in one init function so the
// registry order — and with it Names(), CLI help text and report row
// order — is fixed. New backends append after.
func init() {
	Register(&funcBackend{
		name: "software-gibbs",
		caps: Capabilities{MaxLabels: fixed.MaxLabels, Exact: true, Checkpoint: true},
		build: func(BuildSpec) (Instance, error) {
			return simpleInstance{factory: gibbs.NewExactGibbs()}, nil
		},
	})
	Register(&funcBackend{
		name: "software-first-to-fire",
		caps: Capabilities{MaxLabels: fixed.MaxLabels, Exact: true, Checkpoint: true},
		build: func(BuildSpec) (Instance, error) {
			return simpleInstance{factory: gibbs.NewFirstToFire()}, nil
		},
	})
	Register(&funcBackend{
		name: "metropolis",
		caps: Capabilities{MaxLabels: fixed.MaxLabels, Exact: true, Checkpoint: true},
		build: func(BuildSpec) (Instance, error) {
			return simpleInstance{factory: gibbs.NewMetropolis()}, nil
		},
	})
	Register(&funcBackend{
		name: "rsu",
		caps: Capabilities{MaxLabels: fixed.MaxLabels, Checkpoint: true, Faults: true},
		build: func(sp BuildSpec) (Instance, error) {
			if sp.App == nil {
				return nil, fmt.Errorf("sampler: the rsu backend emulates a hardware unit and needs an application, not a bare model")
			}
			width := sp.RSUWidth
			if width == 0 {
				width = 1
			}
			unit, err := apps.BuildUnit(sp.App, sp.Circuit, width, sp.RSUMode)
			if err != nil {
				return nil, err
			}
			c := unit.Config()
			return &rsuInstance{
				app:  sp.App,
				unit: unit,
				tag:  fmt.Sprintf("rsu:w=%d,mode=%v,replicas=%d", c.Width, c.Mode, c.Replicas),
			}, nil
		},
	})
	Register(&funcBackend{
		name: "prototype",
		caps: Capabilities{MinLabels: 2, MaxLabels: 2, Checkpoint: true},
		build: func(sp BuildSpec) (Instance, error) {
			if sp.App == nil && sp.Model == nil {
				return nil, fmt.Errorf("sampler: the prototype backend needs an application or model")
			}
			return simpleInstance{factory: prototype.NewSampler(prototype.New())}, nil
		},
	})
	Register(&funcBackend{
		name: "spiking",
		caps: Capabilities{MaxLabels: fixed.MaxLabels, Checkpoint: true},
		build: func(sp BuildSpec) (Instance, error) {
			spec := spiking.Spec{}
			if sp.Spiking != nil {
				spec = *sp.Spiking
			}
			spec = spec.WithDefaults()
			if err := spec.Validate(); err != nil {
				return nil, err
			}
			return simpleInstance{factory: spiking.New(spec), tag: spec.Tag()}, nil
		},
	})
	Register(&funcBackend{
		name: "meanfield",
		// Binary MRFs only (the Zheng formulation), deterministic, and
		// not checkpointable: the belief field lives outside the
		// label-map/RNG state a snapshot captures.
		caps: Capabilities{MinLabels: 2, MaxLabels: 2, Deterministic: true},
		build: func(sp BuildSpec) (Instance, error) {
			spec := meanfield.Spec{}
			if sp.MeanField != nil {
				spec = *sp.MeanField
			}
			spec = spec.WithDefaults()
			if err := spec.Validate(); err != nil {
				return nil, err
			}
			m, err := sp.model()
			if err != nil {
				return nil, err
			}
			init, err := sp.initLabels()
			if err != nil {
				return nil, err
			}
			st, err := meanfield.NewState(m, init, spec)
			if err != nil {
				return nil, err
			}
			return simpleInstance{factory: st.Factory(), tag: spec.Tag()}, nil
		},
	})
}

// funcBackend is the closure-based Backend the built-ins use.
type funcBackend struct {
	name  string
	caps  Capabilities
	build func(BuildSpec) (Instance, error)
}

func (b *funcBackend) Name() string                       { return b.name }
func (b *funcBackend) Caps() Capabilities                 { return b.caps }
func (b *funcBackend) New(sp BuildSpec) (Instance, error) { return b.build(sp) }

// simpleInstance covers backends with no unit and a knob-only tag.
type simpleInstance struct {
	factory gibbs.Factory
	tag     string
}

func (s simpleInstance) Factory() gibbs.Factory { return s.factory }
func (s simpleInstance) Unit() *rsu.Unit        { return nil }
func (s simpleInstance) Tag() string            { return s.tag }

// rsuInstance carries the emulated unit and arms fault sessions.
type rsuInstance struct {
	app  apps.App
	unit *rsu.Unit
	tag  string
}

func (r *rsuInstance) Factory() gibbs.Factory { return apps.NewRSUSampler(r.app, r.unit) }
func (r *rsuInstance) Unit() *rsu.Unit        { return r.unit }
func (r *rsuInstance) Tag() string            { return r.tag }
func (r *rsuInstance) FaultFactory(sess *fault.Session) gibbs.Factory {
	return apps.NewFaultRSUSampler(r.app, r.unit, sess)
}
