// Command perfbench is the repository's layered benchmark: serving
// latency under durable checkpoints and the paper applications' solve
// throughput, with a traced mode that times each layer from outside.
//
//	perfbench --workload serve-motion --seed 1 --seconds 30 --trace 0
//
// It prints a human-readable summary on standard error and, as the last
// line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. It exits 1 when any output check
// fails. See README.md for the workloads, metrics and predictions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const (
	// defaultSeed is the seed the golden digests are committed for.
	defaultSeed = 1
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 9
	// directProbes is how many served specs the traced run re-solves
	// with snapshots for the durability decomposition.
	directProbes = 16
	// runBudget caps one run, well inside the 180 s a run may take.
	runBudget = 170 * time.Second
)

// paperApps are the paper's three applications, and paperBackends the
// backends the solve workload runs each on: the software baseline and
// the emulated RSU-G1 unit.
var (
	paperApps     = []string{"segmentation", "stereo", "motion"}
	paperBackends = []string{"software-gibbs", "rsu"}
)

// paperCases are the solve workload's jobs in rotation order: each
// paper application at its benchmark size on each backend, with half the
// sweeps as burn-in and the ground-truth accuracy floor its MAP labels
// must meet. Sweep counts give every case about the same solve time on
// the reference host (150 ms), so the job latency percentiles describe
// one population rather than the edges between six.
func paperCases() []solveCase {
	sweeps := map[string][2]int{ // app → sweeps on software-gibbs, rsu
		"segmentation": {50, 10},
		"stereo":       {150, 25},
		"motion":       {100, 10},
	}
	var cases []solveCase
	for i, be := range paperBackends {
		for _, c := range []solveCase{
			{app: "segmentation", size: 256, labels: 5, maxError: 0.01},
			{app: "stereo", size: 128, labels: 5, maxError: 0.1},
			{app: "motion", size: 64, labels: 49, maxError: 0.75},
		} {
			c.backend = be
			c.sweeps = sweeps[c.app][i]
			c.burnIn = c.sweeps / 2
			cases = append(cases, c)
		}
	}
	return cases
}

type workload struct {
	name string
	run  func(context.Context, env) (*outcome, error)
}

var workloads = []workload{
	{"serve-motion", func(ctx context.Context, e env) (*outcome, error) {
		return runServe(ctx, serveLoad{app: "motion", size: 64, labels: 3, sweeps: 50,
			scenes: 2, clients: 2, warmPerScene: 2}, e)
	}},
	{"solve-paper", func(ctx context.Context, e env) (*outcome, error) {
		return runSolve(ctx, paperCases(), e)
	}},
}

// dropped states what the benchmark measures differently from the
// issue that specified it, and why; the traced run prints it.
const dropped = `changed from the specification (see perfbench/README.md):
  serve-small dropped: with snapshots every sweep or every 10, its p50 and p90 latency spread by 0.3-0.7 of the median between runs on the reference disk, past the 0.25 bound; serve-motion measures the serve layer instead
  failed_ratio -> completed_ratio: 0 on a healthy run, so it cannot carry a relative bound; "failed" in the JSON still counts failures
  solve_msites_per_s.<backend> -> solve_msites_per_s (goodput): every run must print every metric, and serve-motion runs software-gibbs only; the per-backend cost is core.solve_ns_per_site.<app>.<backend>
  solve-paper: equal-time sweep counts per case, so the latency percentiles fall inside one population`

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p90_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
	{"completed_ratio", "ratio"},
	{"write_bytes_per_job", "bytes"},
	{"solve_msites_per_s", "Msites/s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the traced run's metrics. A metric whose layer the
// workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"serve.submit_ms.p50", "ms"},
		{"serve.queue_wait_ms.p50", "ms"},
		{"serve.queue_wait_ms.p90", "ms"},
		{"serve.run_ms.p50", "ms"},
		{"serve.fetch_ms.p50", "ms"},
		{"serve.overhead_ms", "ms"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.shed_ratio", "ratio"},
		{"serve.retries_per_job", "count"},
		{"checkpoint.saves_per_job", "count"},
		{"checkpoint.save_us", "us"},
		{"checkpoint.encode_us", "us"},
		{"checkpoint.bytes_per_save.first", "bytes"},
		{"checkpoint.bytes_per_save.last", "bytes"},
		{"core.solve_ms.ckpt", "ms"},
		{"core.solve_ms.nockpt", "ms"},
		{"core.durability_share", "ratio"},
		{"core.durability_gap_ms", "ms"},
		{"core.durability_unexplained_ms", "ms"},
		{"gibbs.capture_us", "us"},
	}
	for _, app := range paperApps {
		defs = append(defs,
			metricDef{"mrf.sweeprow_ns_per_site." + app, "ns/site"},
			metricDef{"gibbs.track_ns_per_site." + app, "ns/site"},
			metricDef{"gibbs.energy_ns_per_site." + app, "ns/site"},
		)
		for _, be := range paperBackends {
			defs = append(defs,
				metricDef{layerName("gibbs.sweep_ns_per_site", app, be), "ns/site"},
				metricDef{layerName("core.solve_ns_per_site", app, be), "ns/site"},
			)
		}
		defs = append(defs,
			metricDef{"mrf.compile_ms." + app, "ms"},
			metricDef{"apps.build_ms." + app, "ms"},
		)
	}
	return append(defs,
		metricDef{"loadgen.lag_p90_ms", "ms"},
		metricDef{"loadgen.jobs", "count"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"host.fsync_us.p50", "us"},
		metricDef{"host.cpu_ns", "ns"},
	)
}

// env is what a workload run receives: its seed-derived inputs come
// from seed, it measures for window, and it keeps its files in dir.
type env struct {
	seed   uint64
	window time.Duration
	tr     *Tracer // nil in the untraced run
	dir    string
}

// layerName names a per-layer metric of one application on one
// backend.
func layerName(prefix, app, backend string) string { return prefix + "." + app + "." + backend }

// outcome is a workload run's result before formatting.
type outcome struct {
	attempted, failed int
	problems          []string
	samples           int     // jobs behind the latency percentiles
	rss               float64 // peak RSS at the end of the measured window, MiB
	e2e, layers       map[string]float64
}

// fail counts a failed job or check and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Uint64("seed", defaultSeed, "input seed (scenes, chain seeds, arrivals)")
	seconds := flag.Int("seconds", 30, "measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	dir := filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := env{seed: *seed, window: time.Duration(*seconds) * time.Second, dir: dir}
	if *trace == 1 {
		e.tr = &Tracer{}
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	out, err := w.run(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out.e2e["peak_rss_mib"] = out.rss

	defs, values := endToEnd, out.e2e
	if e.tr != nil {
		defs, values = perLayer(), out.layers
	}
	rep := report{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	var idle []string
	fmt.Fprintf(os.Stderr, "%s seed %d, %d s window: %d jobs attempted, %d failed, %d behind the percentiles\n",
		w.name, e.seed, *seconds, out.attempted, out.failed, out.samples)
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v\n", d.name, v)
			return 1
		}
		if v == 0 {
			idle = append(idle, d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", d.name, v, d.unit)
	}
	if e.tr != nil {
		self := e.tr.SelfTimeMedians()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(os.Stderr, "median self time by span (ms):")
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-36s %14.4f\n", n, self[n])
		}
		if len(idle) > 0 {
			fmt.Fprintf(os.Stderr, "not exercised by %s (reported as 0): %s\n", w.name, strings.Join(idle, ", "))
		}
		fmt.Fprintln(os.Stderr, dropped)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// chainLayers fills the chain-layer metrics of one application: the
// gibbs sweep cost on each backend and, on software-gibbs, the
// bookkeeping costs and the fused mrf kernel (the only backend that
// runs SweepRow).
func chainLayers(ctx context.Context, L map[string]float64, p *problem, backends []string) error {
	for _, be := range backends {
		exact := be == "software-gibbs"
		cc, err := chainProbe(ctx, p, be, exact)
		if err != nil {
			return err
		}
		L[layerName("gibbs.sweep_ns_per_site", p.name, be)] = cc.sweepNs
		if !exact {
			continue
		}
		L["gibbs.track_ns_per_site."+p.name] = cc.trackNs
		L["gibbs.energy_ns_per_site."+p.name] = cc.energyNs
		if L["mrf.sweeprow_ns_per_site."+p.name], err = sweepRowNsPerSite(p); err != nil {
			return err
		}
	}
	return nil
}

// hostProbes fills the host calibration metrics, reported and never
// gated.
func hostProbes(L map[string]float64, dir string) error {
	f, err := fsyncProbe(dir, 30)
	L["host.fsync_us.p50"] = f
	L["host.cpu_ns"] = cpuProbe()
	return err
}
