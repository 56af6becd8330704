package mrf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/img"
)

func secondOrderModel(w, h, m int) *Model {
	mm := testModel(w, h, m)
	mm.Hood = SecondOrder
	mm.LambdaDiag = 0.25
	return mm
}

func TestNeighborhoodMetadata(t *testing.T) {
	if FirstOrder.String() != "first-order" || SecondOrder.String() != "second-order" {
		t.Error("names")
	}
	if Neighborhood(9).String() != "Neighborhood(9)" {
		t.Error("unknown name")
	}
	if FirstOrder.Colors() != 2 || SecondOrder.Colors() != 4 {
		t.Error("color counts")
	}
	if len(FirstOrder.Offsets()) != 4 || len(SecondOrder.Offsets()) != 8 {
		t.Error("offset counts")
	}
}

// TestSecondOrderColoringIsProper: no two 8-neighbors share a color, and
// the four 2×2-block classes partition the grid.
func TestSecondOrderColoringIsProper(t *testing.T) {
	checkProperColoring(t, SecondOrder, 9, 7)
}

// checkProperColoring asserts that no two clique neighbors of hood share
// a color on a w×h grid and that the Colors() classes, all non-empty,
// partition it.
func checkProperColoring(t *testing.T, hood Neighborhood, w, h int) {
	t.Helper()
	counts := make([]int, hood.Colors())
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := hood.ColorOf(x, y)
			if c < 0 || c >= hood.Colors() {
				t.Fatalf("%v: color %d out of range", hood, c)
			}
			counts[c]++
			for _, off := range hood.Offsets() {
				nx, ny := x+off[0], y+off[1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				if hood.ColorOf(nx, ny) == c {
					t.Fatalf("%v: neighbors (%d,%d) and (%d,%d) share color %d", hood, x, y, nx, ny, c)
				}
			}
		}
	}
	total := 0
	for _, c := range counts {
		if c == 0 {
			t.Fatalf("%v: empty color class", hood)
		}
		total += c
	}
	if total != w*h {
		t.Fatalf("%v: partition covers %d of %d sites", hood, total, w*h)
	}
}

func TestValidateRejectsBadNeighborhood(t *testing.T) {
	m := testModel(4, 4, 3)
	m.Hood = Neighborhood(7)
	if err := m.Validate(); err == nil {
		t.Fatal("unknown neighborhood accepted")
	}
	m = secondOrderModel(4, 4, 3)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.LambdaDiag = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative diagonal weight accepted")
	}
}

// TestSecondOrderSiteEnergyManual: hand-check the 9-clique sum at an
// interior site.
func TestSecondOrderSiteEnergyManual(t *testing.T) {
	m := secondOrderModel(3, 3, 4)
	lm := img.NewLabelMap(3, 3)
	lm.Set(0, 0, 1)
	lm.Set(2, 0, 2)
	lm.Set(0, 2, 3)
	lm.Set(2, 2, 1)
	label := 2 // singleton at (1,1): want (1+1)%4=2 -> 0
	// axial neighbors all 0: 0.5 * 4 * (2-0)^2 = 8
	// diagonals 1,2,3,1: 0.25 * [(2-1)^2+(2-2)^2+(2-3)^2+(2-1)^2] = 0.25*3
	want := 8 + 0.75
	if got := m.SiteEnergy(lm, 1, 1, label); math.Abs(got-want) > 1e-12 {
		t.Fatalf("second-order SiteEnergy = %v, want %v", got, want)
	}
}

// TestSecondOrderConditionalMatchesSiteEnergy: vectorized and scalar
// paths agree under the extended neighborhood.
func TestSecondOrderConditionalMatchesSiteEnergy(t *testing.T) {
	m := secondOrderModel(5, 4, 3)
	lm := img.NewLabelMap(5, 4)
	for i := range lm.Labels {
		lm.Labels[i] = uint8((i * 5) % 3)
	}
	var buf []float64
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			buf = m.ConditionalEnergies(buf, lm, x, y)
			for l := 0; l < m.M; l++ {
				if want := m.SiteEnergy(lm, x, y, l); math.Abs(buf[l]-want) > 1e-12 {
					t.Fatalf("(%d,%d,%d): %v != %v", x, y, l, buf[l], want)
				}
			}
		}
	}
}

// TestSecondOrderTotalEnergyDelta: the delta identity pins the
// count-each-clique-once bookkeeping with diagonals.
func TestSecondOrderTotalEnergyDelta(t *testing.T) {
	m := secondOrderModel(5, 5, 4)
	lm := img.NewLabelMap(5, 5)
	for i := range lm.Labels {
		lm.Labels[i] = uint8((i * 3) % 4)
	}
	for _, site := range [][2]int{{0, 0}, {2, 2}, {4, 4}, {1, 3}, {4, 0}, {0, 4}} {
		x, y := site[0], site[1]
		old := lm.At(x, y)
		newLabel := (old + 1) % m.M
		before := m.TotalEnergy(lm)
		eOld := m.SiteEnergy(lm, x, y, old)
		eNew := m.SiteEnergy(lm, x, y, newLabel)
		lm.Set(x, y, newLabel)
		after := m.TotalEnergy(lm)
		lm.Set(x, y, old)
		if math.Abs((after-before)-(eNew-eOld)) > 1e-9 {
			t.Fatalf("site (%d,%d): ΔTotal=%v, ΔSite=%v", x, y, after-before, eNew-eOld)
		}
	}
}

// Property: a second-order model with LambdaDiag=0 has identical
// energies to the first-order model.
func TestSecondOrderDegeneratesToFirstOrder(t *testing.T) {
	f := func(seed uint8) bool {
		m1 := testModel(4, 4, 3)
		m2 := testModel(4, 4, 3)
		m2.Hood = SecondOrder
		m2.LambdaDiag = 0
		lm := img.NewLabelMap(4, 4)
		for i := range lm.Labels {
			lm.Labels[i] = uint8((int(seed) + i*7) % 3)
		}
		if m1.TotalEnergy(lm) != m2.TotalEnergy(lm) {
			return false
		}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				for l := 0; l < 3; l++ {
					if m1.SiteEnergy(lm, x, y, l) != m2.SiteEnergy(lm, x, y, l) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
