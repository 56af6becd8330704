// Package apps implements the three computer-vision applications the
// paper evaluates (§8.1): image segmentation, dense motion estimation
// and stereo vision — each as a first-order MRF with smoothness priors,
// solvable either by the software Gibbs substrate (internal/gibbs) or by
// an emulated RSU-G unit (internal/rsu).
//
// To keep the exact-software and RSU paths comparable, every application
// defines its clique potentials in the RSU's fixed-point domain: image
// intensities are quantized to 6 bits and energies are the integer
// squared differences the hardware computes. The software model then
// evaluates the *same* integers in floating point, so any divergence
// between the two solvers is due to the hardware's sampling
// approximations (16-level intensity ladder, 8-bit TTF register), not
// the model.
package apps

import (
	"context"
	"fmt"

	"repro/internal/fixed"
	"repro/internal/gibbs"
	"repro/internal/img"
	"repro/internal/mrf"
	"repro/internal/ret"
	"repro/internal/rng"
	"repro/internal/rsu"
)

// App is the common surface of the three applications.
type App interface {
	// Name identifies the application.
	Name() string
	// Model returns the MRF in the shared fixed-point energy domain.
	Model() *mrf.Model
	// RSUInput fills the RSU operands for site (x, y) given the current
	// labeling. The returned Input's Neighbors carry datapath codes.
	RSUInput(lm *img.LabelMap, x, y int) rsu.Input
	// RSUConfig returns the unit configuration (width/mode filled by the
	// caller) matching this application's label space.
	RSUConfig() rsu.Config
	// InitLabels returns a data-driven initial labeling (per-site argmin
	// of the singleton term). A good initialization matters more for the
	// RSU chain than for exact Gibbs: the hardware LUT's dark rung
	// assigns probability zero to labels far outside the intensity
	// ladder's dynamic range, so a state where every label of a site is
	// dark cannot anneal out stochastically.
	InitLabels() *img.LabelMap
}

// ArgminSingletonInit builds the per-site argmin-singleton labeling for
// a model — the shared InitLabels implementation.
func ArgminSingletonInit(m *mrf.Model) *img.LabelMap {
	lm := img.NewLabelMap(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			best, bestE := 0, m.Singleton(x, y, 0)
			for l := 1; l < m.M; l++ {
				if e := m.Singleton(x, y, l); e < bestE {
					best, bestE = l, e
				}
			}
			lm.Set(x, y, best)
		}
	}
	return lm
}

// BuildUnit constructs an RSU-G for an application: label space and
// weights from the app, width/mode/circuit from the arguments, and an
// intensity LUT tuned to the app's temperature. A nil circuit selects
// the default high-dynamic-range ladder circuit (see
// ret.DefaultLadderCircuit for why Gibbs accuracy needs it).
func BuildUnit(a App, circuit *ret.Circuit, width int, mode rsu.SamplingMode) (*rsu.Unit, error) {
	if circuit == nil {
		circuit = ret.DefaultLadderCircuit(rng.New(0))
	}
	cfg := a.RSUConfig()
	cfg.Width = width
	cfg.Mode = mode
	cfg.Circuit = circuit
	cfg.ClockHz = 1e9
	u, err := rsu.New(cfg)
	if err != nil {
		return nil, err
	}
	lut, err := rsu.BuildIntensityMap(u.Levels(), a.Model().T)
	if err != nil {
		return nil, err
	}
	u.SetMap(lut)
	return u, nil
}

// rsuSampler adapts an RSU-G unit to the gibbs.Sampler interface: each
// site update stages the neighbor codes and data operands and reads one
// sample, exactly as the §6.1 instruction sequence would.
type rsuSampler struct {
	app  App
	unit *rsu.Unit
}

// NewRSUSampler returns a gibbs.Factory backed by the given unit. The
// unit is stateless during sampling, so all workers may share it.
func NewRSUSampler(a App, u *rsu.Unit) gibbs.Factory {
	return func() gibbs.Sampler { return &rsuSampler{app: a, unit: u} }
}

// Name implements gibbs.Sampler.
func (s *rsuSampler) Name() string {
	return fmt.Sprintf("rsu-g%d-%v", s.unit.Config().Width, s.unit.Config().Mode)
}

// SampleSite implements gibbs.Sampler.
func (s *rsuSampler) SampleSite(m *mrf.Model, lm *img.LabelMap, x, y int, src *rng.Source) int {
	in := s.app.RSUInput(lm, x, y)
	label, _ := s.unit.Sample(in, src)
	return int(label)
}

// neighborCodes gathers the four neighbor datapath codes for site (x,y),
// using replicate padding at the borders (consistent with mrf.Model's
// missing-clique treatment: a replicated neighbor has the site's own
// conditional weight pattern; the RSU hardware always reads four
// neighbor registers, so apps mirror the edge site's nearest neighbor).
func neighborCodes(u *rsu.Unit, lm *img.LabelMap, x, y int) [4]fixed.Label {
	var n [4]fixed.Label
	for i, off := range mrf.NeighborOffsets {
		n[i] = u.LabelCode(lm.At(x+off[0], y+off[1]))
	}
	return n
}

// registerWeight reports whether w is exactly representable in the
// RSU's 8-bit integer weight register. Doubleton weights travel through
// the hardware as integers; the software model only accepts weights
// both paths can carry, so any divergence between the two solvers is a
// sampling effect, never a rounding one.
func registerWeight(w float64) bool {
	if w < 0 || w > 255 {
		return false
	}
	//lint:ignore rsulint/floateq exact round-trip test on a configuration input: the register carries precisely uint8(w), so "is w an integer" must be an exact comparison
	return w == float64(uint8(w))
}

// RunSoftware runs the exact software Gibbs chain on an application.
func RunSoftware(ctx context.Context, a App, init *img.LabelMap, opt gibbs.Options, seed uint64) (*gibbs.Result, error) {
	return gibbs.Run(ctx, a.Model(), init, gibbs.NewExactGibbs(), opt, seed)
}

// RunRSU runs the same chain with the RSU-G emulated sampler.
func RunRSU(ctx context.Context, a App, u *rsu.Unit, init *img.LabelMap, opt gibbs.Options, seed uint64) (*gibbs.Result, error) {
	return gibbs.Run(ctx, a.Model(), init, NewRSUSampler(a, u), opt, seed)
}
