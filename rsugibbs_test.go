package rsugibbs

import (
	"context"
	"testing"
)

// TestQuickstart exercises the doc-comment quickstart end to end
// through the public façade only.
func TestQuickstart(t *testing.T) {
	src := NewRand(1)
	scene := BlobScene(48, 48, 5, 8, src)
	app, err := NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := NewSolver(app, Config{
		BackendName: "rsu", Iterations: 50, BurnIn: 20, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.MAP.MislabelRate(scene.Truth); rate > 0.10 {
		t.Fatalf("quickstart mislabel rate %v", rate)
	}
}

// TestFacadePerformancePath exercises the architecture-model façade.
func TestFacadePerformancePath(t *testing.T) {
	rep, err := Performance(SegmentationWorkload(320, 320))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUSeconds <= 0 || rep.AccelSeconds <= 0 {
		t.Fatalf("bad report %+v", rep)
	}
	if TitanX().Threads() != 3072 {
		t.Fatal("TitanX facade broken")
	}
	if DefaultAccelerator().Units() != 336 {
		t.Fatal("accelerator facade broken")
	}
}

// TestFacadePowerBudgets checks the Tables 3-4 façade.
func TestFacadePowerBudgets(t *testing.T) {
	if RSUG1Budget15().TotalPowerMW() != 3.91 {
		t.Fatal("15nm power budget")
	}
	if RSUG1Budget45().TotalAreaUM2() != 5673 {
		t.Fatal("45nm area budget")
	}
}

// TestFacadePrototype drives the §7 bench emulation via the façade.
func TestFacadePrototype(t *testing.T) {
	p := NewPrototype()
	src := NewRand(3)
	r := p.MeasureRatio(10, 50000, src)
	if r < 7 || r > 13 {
		t.Fatalf("measured ratio %v for commanded 10", r)
	}
}

// TestFacadePGMRoundTrip checks the image I/O façade.
func TestFacadePGMRoundTrip(t *testing.T) {
	g := NewGray(4, 3)
	g.Fill(77)
	path := t.TempDir() + "/x.pgm"
	if err := WritePGMFile(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGMFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(got) {
		t.Fatal("round trip failed")
	}
}
