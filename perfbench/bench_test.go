package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{50, 15, 40, 20, 35}
	for _, tc := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !slices.Equal(vals, []float64{50, 15, 40, 20, 35}) {
		t.Errorf("percentile reordered its input: %v", vals)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	// p90 of 1..100 is the 90th value: ten samples lie beyond it.
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestClosedLoopWaitsForReplies(t *testing.T) {
	// Each client has at most one request in flight, and no request
	// starts after the deadline.
	const clients = 3
	var inflight, peak, sent atomic.Int64
	deadline := now().Add(100 * time.Millisecond)
	lags := closedLoop(clients, deadline, func(int) {
		if now().After(deadline) {
			t.Error("request sent after the deadline")
		}
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		sent.Add(1)
		time.Sleep(10 * time.Millisecond)
		inflight.Add(-1)
	})
	if peak.Load() > clients {
		t.Errorf("%d requests in flight, want at most %d", peak.Load(), clients)
	}
	if int64(len(lags)) != sent.Load() || sent.Load() < clients {
		t.Errorf("%d lags for %d requests from %d clients", len(lags), sent.Load(), clients)
	}
}

func TestSelfTimesNested(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	spans := []Span{
		{ID: 1, Name: "job", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(60)},   // overlaps a
		{ID: 4, Parent: 2, Name: "a.x", Start: at(15), End: at(20)}, // grandchild
		{ID: 5, Parent: 1, Name: "c", Start: at(90), End: at(120)},  // runs past the parent
	}
	want := map[int64]time.Duration{
		1: 100*time.Millisecond - 50*time.Millisecond - 10*time.Millisecond, // a∪b = [10,60], c clipped to [90,100]
		2: 25 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 5 * time.Millisecond,
		5: 30 * time.Millisecond,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

// metricName is the alphabet the benchmark contract allows for names.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "-lead", "has space", "a/b", "ünï"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric-name pattern accepts %q", bad)
		}
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer()...) {
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric %q: bad name or duplicate", d.name)
		}
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %q: bad unit %q", d.name, d.unit)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the workloads and metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, ours)
	}
	for _, tc := range []struct {
		kind     string
		declared []def
		printed  []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer()}} {
		if len(tc.declared) != len(tc.printed) {
			t.Errorf("%s: %d declared, %d printed", tc.kind, len(tc.declared), len(tc.printed))
			continue
		}
		for i, d := range tc.printed {
			if tc.declared[i] != (def{d.name, d.unit}) {
				t.Errorf("%s[%d]: declared %+v, printed %s %s", tc.kind, i, tc.declared[i], d.name, d.unit)
			}
		}
	}
}
