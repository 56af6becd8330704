package apps

import (
	"context"
	"math"
	"testing"

	"repro/internal/gibbs"
	"repro/internal/img"
	"repro/internal/rng"
	"repro/internal/rsu"
)

func segApp(t testing.TB, w, h int, sigma float64, seed uint64) (*Segmentation, img.Scene) {
	t.Helper()
	src := rng.New(seed)
	scene := img.BlobScene(w, h, 5, sigma, src)
	app, err := NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	return app, scene
}

func TestNewSegmentationValidation(t *testing.T) {
	im := img.NewGray(8, 8)
	cases := []struct {
		name  string
		means []uint8
		lam   float64
		temp  float64
	}{
		{"one label", []uint8{5}, 1, 10},
		{"nine labels", make([]uint8, 9), 1, 10},
		{"negative lambda", []uint8{1, 2}, -1, 10},
		{"fractional lambda", []uint8{1, 2}, 0.5, 10},
		{"zero temperature", []uint8{1, 2}, 1, 0},
	}
	for _, c := range cases {
		if _, err := NewSegmentation(im, c.means, c.lam, c.temp); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := NewSegmentation(nil, []uint8{1, 2}, 1, 10); err == nil {
		t.Error("nil image accepted")
	}
}

func TestSegmentationMeansSortedAndQuantized(t *testing.T) {
	im := img.NewGray(4, 4)
	app, err := NewSegmentation(im, []uint8{200, 40, 120}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{10, 30, 50} // 40>>2, 120>>2, 200>>2
	for i, m := range want {
		if app.Means6[i] != m {
			t.Fatalf("means %v, want %v", app.Means6, want)
		}
	}
}

// TestSegmentationSoftwareRecoversScene: exact Gibbs on a clean synthetic
// scene should recover the ground truth almost everywhere.
func TestSegmentationSoftwareRecoversScene(t *testing.T) {
	app, scene := segApp(t, 32, 32, 6, 1)
	init := img.NewLabelMap(32, 32)
	res, err := RunSoftware(context.Background(), app, init, gibbs.Options{
		Iterations: 60, BurnIn: 20, Schedule: gibbs.Checkerboard, TrackMode: true,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.MAP.MislabelRate(scene.Truth); rate > 0.06 {
		t.Fatalf("software mislabel rate %v", rate)
	}
}

// TestSegmentationRSUMatchesSoftware: the RSU-emulated chain must reach
// nearly the same answer as the exact chain — the paper's functional
// claim for RSU-G Gibbs.
func TestSegmentationRSUMatchesSoftware(t *testing.T) {
	app, scene := segApp(t, 32, 32, 6, 3)
	unit, err := BuildUnit(app, nil, 1, rsu.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	init := app.InitLabels()
	opt := gibbs.Options{Iterations: 60, BurnIn: 20, Schedule: gibbs.Checkerboard, TrackMode: true}
	sw, err := RunSoftware(context.Background(), app, init, opt, 5)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := RunRSU(context.Background(), app, unit, init, opt, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rate := hw.MAP.MislabelRate(scene.Truth); rate > 0.10 {
		t.Fatalf("RSU mislabel rate %v", rate)
	}
	if agree := sw.MAP.Agreement(hw.MAP); agree < 0.90 {
		t.Fatalf("software/RSU agreement %v", agree)
	}
}

func TestKMeans1D(t *testing.T) {
	im := img.NewGray(10, 10)
	for i := range im.Pix {
		if i%2 == 0 {
			im.Pix[i] = 50
		} else {
			im.Pix[i] = 200
		}
	}
	means := KMeans1D(im, 2, 10)
	if len(means) != 2 {
		t.Fatalf("means %v", means)
	}
	if math.Abs(float64(means[0])-50) > 2 || math.Abs(float64(means[1])-200) > 2 {
		t.Fatalf("means %v, want ~[50 200]", means)
	}
}

func TestKMeans1DUniformImage(t *testing.T) {
	im := img.NewGray(4, 4)
	im.Fill(77)
	means := KMeans1D(im, 3, 5)
	for _, m := range means {
		if m < 70 || m > 85 {
			t.Fatalf("uniform-image means %v", means)
		}
	}
}

func TestNewMotionEstimationValidation(t *testing.T) {
	a, b := img.NewGray(8, 8), img.NewGray(8, 8)
	if _, err := NewMotionEstimation(a, img.NewGray(9, 8), 3, 1, 10); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := NewMotionEstimation(a, b, 4, 1, 10); err == nil {
		t.Error("radius 4 accepted")
	}
	if _, err := NewMotionEstimation(a, b, 0, 1, 10); err == nil {
		t.Error("radius 0 accepted")
	}
	if _, err := NewMotionEstimation(nil, b, 3, 1, 10); err == nil {
		t.Error("nil frame accepted")
	}
	if _, err := NewMotionEstimation(a, b, 3, 1.5, 10); err == nil {
		t.Error("fractional lambda accepted")
	}
}

// TestMotionSoftwareRecoversField: the exact chain should find the
// translating object's motion.
func TestMotionSoftwareRecoversField(t *testing.T) {
	scene := img.MotionPair(32, 32, 2, -1, 3, 2, rng.New(8))
	app, err := NewMotionEstimation(scene.Frame1, scene.Frame2, 3, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	init := img.NewLabelMap(32, 32)
	for i := range init.Labels {
		init.Labels[i] = uint8(app.ZeroLabel())
	}
	res, err := RunSoftware(context.Background(), app, init, gibbs.Options{
		Iterations: 50, BurnIn: 20, Schedule: gibbs.Checkerboard, TrackMode: true,
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	field := app.Field(res.MAP)
	if aee := field.AvgEndpointError(scene.Truth); aee > 0.5 {
		t.Fatalf("average endpoint error %v", aee)
	}
}

// TestMotionRSUMatchesSoftware: the 49-label vector-label RSU path.
func TestMotionRSUMatchesSoftware(t *testing.T) {
	scene := img.MotionPair(24, 24, 1, 2, 3, 2, rng.New(10))
	app, err := NewMotionEstimation(scene.Frame1, scene.Frame2, 3, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := BuildUnit(app, nil, 4, rsu.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	init := app.InitLabels()
	// Workers > 1 exercises the shared-unit concurrent sampling path.
	opt := gibbs.Options{Iterations: 40, BurnIn: 15, Schedule: gibbs.Checkerboard, Workers: 4, TrackMode: true}
	hw, err := RunRSU(context.Background(), app, unit, init, opt, 12)
	if err != nil {
		t.Fatal(err)
	}
	field := app.Field(hw.MAP)
	if aee := field.AvgEndpointError(scene.Truth); aee > 0.8 {
		t.Fatalf("RSU average endpoint error %v", aee)
	}
}

func TestNewStereoVisionValidation(t *testing.T) {
	a, b := img.NewGray(8, 8), img.NewGray(8, 8)
	if _, err := NewStereoVision(a, img.NewGray(9, 8), 5, 1, 10); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := NewStereoVision(a, b, 1, 1, 10); err == nil {
		t.Error("single disparity accepted")
	}
	if _, err := NewStereoVision(a, b, 9, 1, 10); err == nil {
		t.Error("nine disparities accepted")
	}
	if _, err := NewStereoVision(nil, b, 5, 1, 10); err == nil {
		t.Error("nil image accepted")
	}
}

// TestStereoSoftwareRecoversDisparity: exact Gibbs on a synthetic pair.
func TestStereoSoftwareRecoversDisparity(t *testing.T) {
	scene := img.StereoPair(32, 24, 5, 3, 2, rng.New(13))
	app, err := NewStereoVision(scene.Left, scene.Right, 5, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	init := img.NewLabelMap(32, 24)
	res, err := RunSoftware(context.Background(), app, init, gibbs.Options{
		Iterations: 50, BurnIn: 20, Schedule: gibbs.Checkerboard, TrackMode: true,
	}, 14)
	if err != nil {
		t.Fatal(err)
	}
	// Occlusion bands at the disparity edges are genuinely ambiguous;
	// demand accuracy away from perfect.
	if rate := res.MAP.MislabelRate(scene.Truth); rate > 0.12 {
		t.Fatalf("stereo mislabel rate %v", rate)
	}
}

// TestStereoRSUMatchesSoftware: scalar 5-label RSU path on stereo.
func TestStereoRSUMatchesSoftware(t *testing.T) {
	scene := img.StereoPair(24, 20, 5, 2, 2, rng.New(15))
	app, err := NewStereoVision(scene.Left, scene.Right, 5, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := BuildUnit(app, nil, 1, rsu.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	init := app.InitLabels()
	opt := gibbs.Options{Iterations: 50, BurnIn: 20, Schedule: gibbs.Checkerboard, TrackMode: true}
	sw, err := RunSoftware(context.Background(), app, init, opt, 17)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := RunRSU(context.Background(), app, unit, init, opt, 18)
	if err != nil {
		t.Fatal(err)
	}
	if agree := sw.MAP.Agreement(hw.MAP); agree < 0.85 {
		t.Fatalf("software/RSU stereo agreement %v", agree)
	}
}

// TestRSUSamplerName: the adapter reports its configuration.
func TestRSUSamplerName(t *testing.T) {
	app, _ := segApp(t, 8, 8, 4, 19)
	unit, err := BuildUnit(app, nil, 4, rsu.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	s := NewRSUSampler(app, unit)()
	if s.Name() != "rsu-g4-ideal" {
		t.Fatalf("sampler name %q", s.Name())
	}
}

func BenchmarkSegmentationSoftwareIteration32(b *testing.B) {
	app, _ := segApp(b, 32, 32, 6, 21)
	init := img.NewLabelMap(32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSoftware(context.Background(), app, init, gibbs.Options{Iterations: 1}, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentationRSUIteration32(b *testing.B) {
	app, _ := segApp(b, 32, 32, 6, 22)
	unit, err := BuildUnit(app, nil, 1, rsu.Ideal)
	if err != nil {
		b.Fatal(err)
	}
	init := img.NewLabelMap(32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunRSU(context.Background(), app, unit, init, gibbs.Options{Iterations: 1}, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
