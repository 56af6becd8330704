package gibbs

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/mrf"
)

// TestGoldenChainDigests pins the final labels and MAP of seeded runs
// to fixed digests. The equivalence tests (compiled ≡ closure,
// W=1 ≡ W=N) compare two paths with each other, so a change that moves
// both paths the same way passes them; these digests catch it.
func TestGoldenChainDigests(t *testing.T) {
	cases := []struct {
		name    string
		factory Factory
		hood    mrf.Neighborhood
		sched   Schedule
		workers int
		compile bool
		want    string
	}{
		{"raster/exact-gibbs/closure", NewExactGibbs(), mrf.FirstOrder, Raster, 1, false, "602190ff6b6631dca7244beaf9899a4f54e1489c62e28604af255c12dd06c123"},
		{"raster/exact-gibbs/compiled", NewExactGibbs(), mrf.FirstOrder, Raster, 1, true, "602190ff6b6631dca7244beaf9899a4f54e1489c62e28604af255c12dd06c123"},
		{"raster/metropolis", NewMetropolis(), mrf.FirstOrder, Raster, 1, false, "0a01482cd827885f1cc86e6ddc1e992cd22ee52c11cba4e17cd930cfd154582a"},
		{"raster/first-to-fire/second-order", NewFirstToFire(), mrf.SecondOrder, Raster, 1, true, "a38a234cf67ce2d0cbc575b7b8eec9ebae68015b0f76f9e9b14945dd5f878f86"},
		{"checkerboard/exact-gibbs/compiled/W=3", NewExactGibbs(), mrf.FirstOrder, Checkerboard, 3, true, "63827e380529c1457e5835b1673dc4bb0f76b917c2dbdac18ea2dca0f9cfcb99"},
		{"checkerboard/metropolis/second-order/W=1", NewMetropolis(), mrf.SecondOrder, Checkerboard, 1, false, "c75d484e14e732b730b5c45425fbde1eab2a9d23cddd389e08fbdf798fb7bc93"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := engineModel(19, 17, 4, tc.hood)
			if tc.compile {
				if err := m.Compile(); err != nil {
					t.Fatal(err)
				}
			}
			opt := Options{Iterations: 12, BurnIn: 4, Schedule: tc.sched, Workers: tc.workers, TrackMode: true}
			res := mustRun(t, m, tc.factory, opt, 99)
			h := sha256.New()
			h.Write(res.Final.Labels)
			h.Write(res.MAP.Labels)
			h.Write(res.Confidence.Pix)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
