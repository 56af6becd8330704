package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// serveBackend is the backend every served job asks for (the serving
// default).
const serveBackend = "software-gibbs"

// serveLoad describes a serving workload: one job shape, a scene-seed
// pool shared by all jobs (so the compile cache hits), and a closed
// loop of clients.
type serveLoad struct {
	app          string
	size, labels int
	sweeps       int
	scenes       int // scene-seed pool size
	clients      int // closed-loop clients
	warmPerScene int // warm-up jobs per scene seed during set-up
}

func (l serveLoad) spec(sceneSeed, seed uint64) serve.JobSpec {
	return serve.JobSpec{
		App: l.app, Size: l.size, Labels: l.labels, SceneSeed: sceneSeed,
		Backend: serveBackend, Iterations: l.sweeps, Seed: seed,
	}
}

// burnIn is the serve layer's default burn-in for the job's sweeps.
func (l serveLoad) burnIn() int { return min(30, l.sweeps-1) }

// server is an in-process serve.Server behind its HTTP Handler on a
// loopback listener, with the daemon's defaults: 2 shards, the default
// queue and compile cache, and a snapshot after every sweep.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	cancel context.CancelFunc
	served chan struct{}
	base   string
}

func startServer(dir string) (*server, error) {
	s, err := serve.New(serve.Config{StateDir: dir})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	sv := &server{
		srv: s, cancel: cancel, served: make(chan struct{}),
		hs:   &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(sv.served)
		_ = sv.hs.Serve(ln)
	}()
	return sv, nil
}

// close drains the server, stops its shards and HTTP listener, and
// waits for the listener goroutine to exit.
func (sv *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = sv.srv.Drain(ctx)
	sv.cancel()
	_ = sv.hs.Close()
	<-sv.served
}

// jobRun is one job's trip through the HTTP API, timed at each boundary
// the client can see.
type jobRun struct {
	spec   serve.JobSpec
	err    error
	digest string
	labels []byte
	saves  int // checkpoint.save events on the job's stream
	// When the client sent the job and saw each later step.
	sent, accepted, running, terminal, done time.Time
}

func (r *jobRun) latency() time.Duration { return r.done.Sub(r.sent) }

type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}}
}

// do submits one job, follows its event stream until the job is
// terminal, then fetches its status and labels.
func (c *client) do(ctx context.Context, tenant string, spec serve.JobSpec, tr *Tracer) jobRun {
	r := jobRun{spec: spec, sent: now()}
	r.err = c.exchange(ctx, tenant, &r)
	r.done = now()
	if r.err == nil && tr != nil {
		root := tr.NewID()
		tr.Add(Span{ID: root, Trace: root, Name: "job", Start: r.sent, End: r.done})
		for _, sp := range []struct {
			name       string
			start, end time.Time
		}{
			{"serve.submit", r.sent, r.accepted},
			{"serve.queue_wait", r.accepted, r.running},
			{"serve.run", r.running, r.terminal},
			{"serve.fetch", r.terminal, r.done},
		} {
			tr.Add(Span{Trace: root, Parent: root, Name: sp.name, Start: sp.start, End: sp.end})
		}
	}
	return r
}

func (c *client) exchange(ctx context.Context, tenant string, r *jobRun) error {
	body, err := json.Marshal(r.spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("Content-Type", "application/json")
	var st struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Digest string `json:"digest"`
	}
	if err := c.call(req, http.StatusAccepted, &st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	r.accepted = now()
	path := c.base + "/v1/jobs/" + st.ID
	if err := c.follow(ctx, path+"/events", r); err != nil {
		return err
	}
	r.terminal = now()
	if err := c.get(ctx, path, &st); err != nil {
		return err
	}
	r.digest = st.Digest
	if st.State != string(serve.StateDone) {
		return fmt.Errorf("job %s ended %s", st.ID, st.State)
	}
	var labels bytes.Buffer
	if err := c.get(ctx, path+"/labels", &labels); err != nil {
		return err
	}
	r.labels = labels.Bytes()
	return nil
}

// follow reads the job's NDJSON event stream until the server closes
// it at the terminal state, stamping the first running transition and
// counting snapshot saves.
func (c *client) follow(ctx context.Context, url string, r *jobRun) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.Contains(line, []byte(`"kind":"checkpoint.save"`)):
			r.saves++
		case r.running.IsZero() && bytes.Contains(line, []byte(`"state":"running"`)):
			r.running = now()
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if r.running.IsZero() {
		return errors.New("events: stream ended without a running transition")
	}
	return nil
}

func (c *client) get(ctx context.Context, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return c.call(req, http.StatusOK, into)
}

// call sends req and decodes a JSON body into into, or copies the raw
// body when into is a *bytes.Buffer.
func (c *client) call(req *http.Request, want int, into any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if buf, ok := into.(*bytes.Buffer); ok {
		_, err = buf.ReadFrom(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// setUp starts a server in dir and warms its compile cache with
// warmPerScene concurrent jobs per scene seed.
func (l serveLoad) setUp(ctx context.Context, dir string, scenes []uint64) (*server, error) {
	sv, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	c := newClient(sv.base)
	defer c.hc.CloseIdleConnections()
	var wg sync.WaitGroup
	errs := make([]error, len(scenes)*l.warmPerScene)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := c.do(ctx, "warmup", l.spec(scenes[i%len(scenes)], uint64(i+1)), nil)
			errs[i] = r.err
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		sv.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return sv, nil
}

// runServe measures one serving workload.
func runServe(ctx context.Context, l serveLoad, e env) (*outcome, error) {
	r := rng.New(e.seed)
	scenes := make([]uint64, l.scenes)
	for i := range scenes {
		scenes[i] = r.Uint64() >> 1
	}
	nextSpec := func(r *rng.Source) serve.JobSpec { return l.spec(scenes[r.Intn(len(scenes))], r.Uint64()>>1) }
	tenants := [2]string{"a", "b"}

	// Set-up: New + Start + cache warm-up, setupReps times on fresh state
	// directories; the last server is the one measured.
	var setups []float64
	var sv *server
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("state-%d", i))
		t0 := now()
		s, err := l.setUp(ctx, dir, scenes)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			s.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		} else {
			sv = s
		}
	}
	defer func() {
		if sv != nil {
			sv.close()
		}
	}()
	c := newClient(sv.base)
	defer c.hc.CloseIdleConnections()

	snap0 := sv.srv.Metrics().Snapshot()
	wb0, err := procIOWriteBytes()
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	var (
		mu   sync.Mutex
		runs []jobRun
	)
	gens := make([]*rng.Source, l.clients)
	for i := range gens {
		gens[i] = r.Split()
	}
	start := now()
	lags := closedLoop(l.clients, start.Add(e.window), func(cl int) {
		run := c.do(ctx, tenants[cl%2], nextSpec(gens[cl]), e.tr)
		mu.Lock()
		runs = append(runs, run)
		mu.Unlock()
	})
	elapsed := time.Since(start)
	cpuUsed := cpuTime() - cpu0
	out := &outcome{attempted: len(runs), e2e: map[string]float64{"setup_s": median(setups)}, layers: map[string]float64{}}
	if out.rss, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	wb1, err := procIOWriteBytes()
	if err != nil {
		return nil, err
	}
	snap1 := sv.srv.Metrics().Snapshot()
	// Verification and the traced probes run after the server has
	// stopped and its state has been collected, so they time the solver
	// alone, one call at a time on one P: a W=1 solve hands each color
	// pass to the engine's worker goroutine, and waking an idle vCPU for
	// every handoff would dominate the timing of a small job on a
	// virtual machine.
	sv.close()
	sv = nil
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	solved, err := l.verify(ctx, runs, out)
	if err != nil {
		return nil, err
	}
	var lat, nock []float64
	var probes []jobRun
	saves := 0
	for i := range runs {
		if solved[i] == 0 {
			continue
		}
		lat = append(lat, ms(runs[i].latency()))
		nock = append(nock, ms(solved[i]))
		saves += runs[i].saves
		if len(probes) < directProbes {
			probes = append(probes, runs[i])
		}
	}
	done := len(lat)
	if done == 0 {
		return nil, fmt.Errorf("no job completed with verified output in %v: %s", e.window, strings.Join(out.problems, "; "))
	}
	sites := float64(l.size * l.size * l.sweeps)
	out.e2e["job_latency_p50_ms"] = percentile(lat, 50)
	out.e2e["job_latency_p90_ms"] = percentile(lat, 90)
	out.e2e["jobs_per_s"] = float64(done) / elapsed.Seconds()
	out.e2e["completed_ratio"] = float64(done) / float64(out.attempted)
	out.e2e["write_bytes_per_job"] = float64(wb1-wb0) / float64(done)
	out.e2e["solve_msites_per_s"] = float64(done) * sites / elapsed.Seconds() / 1e6
	out.samples = done
	if e.tr == nil {
		return out, nil
	}

	// Traced run: per-layer metrics.
	L := out.layers
	L["loadgen.lag_p90_ms"] = percentile(durationsMS(lags), 90)
	L["loadgen.jobs"] = float64(done)
	L["serve.submit_ms.p50"] = median(e.tr.Durations("serve.submit"))
	L["serve.queue_wait_ms.p50"] = median(e.tr.Durations("serve.queue_wait"))
	L["serve.queue_wait_ms.p90"] = percentile(e.tr.Durations("serve.queue_wait"), 90)
	L["serve.run_ms.p50"] = median(e.tr.Durations("serve.run"))
	L["serve.fetch_ms.p50"] = median(e.tr.Durations("serve.fetch"))
	delta := func(name string) float64 { return float64(snap1.Counter(name) - snap0.Counter(name)) }
	hits, misses := delta("serve.cache.hits"), delta("serve.cache.misses")
	if hits+misses > 0 {
		L["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	L["serve.shed_ratio"] = (counterSum(snap1, "serve.shed.") - counterSum(snap0, "serve.shed.")) / float64(out.attempted)
	if acc := delta("serve.jobs.accepted"); acc > 0 {
		L["serve.retries_per_job"] = delta("serve.retries") / acc
	}
	L["checkpoint.saves_per_job"] = float64(saves) / float64(done)
	L["trace.overhead_pct"] = 100 * float64(e.tr.Work()) / float64(cpuUsed)
	probeDir := filepath.Join(e.dir, "probe")
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return nil, err
	}
	ck, err := l.snapshotSolves(ctx, probes, filepath.Join(probeDir, "direct.ckpt"), out)
	if err != nil {
		return nil, err
	}
	L["core.solve_ms.ckpt"] = median(ck)
	L["core.solve_ms.nockpt"] = median(nock)
	gap := median(ck) - median(nock)
	L["core.durability_gap_ms"] = gap
	L["core.durability_share"] = gap / median(ck)
	L["serve.overhead_ms"] = L["serve.run_ms.p50"] - median(ck)

	p, err := buildProblem(l.app, l.size, l.labels, scenes[0])
	if err != nil {
		return nil, err
	}
	cc, err := checkpointProbe(ctx, p, serveBackend, l.sweeps, l.burnIn(), probeDir)
	if err != nil {
		return nil, err
	}
	L["gibbs.capture_us"] = cc.captureUs
	L["checkpoint.encode_us"] = cc.encodeUs
	L["checkpoint.save_us"] = cc.saveUs
	L["checkpoint.bytes_per_save.first"] = float64(cc.bytesFirst)
	L["checkpoint.bytes_per_save.last"] = float64(cc.bytesLast)
	explained := L["checkpoint.saves_per_job"] * (cc.captureUs + cc.saveUs) / 1e3
	L["core.durability_unexplained_ms"] = gap - explained
	fmt.Fprintf(os.Stderr, "durability: solve %.2f ms with snapshots vs %.2f ms without (share %.3f); gap %.2f ms = %.1f saves x (capture %.1f us + save %.1f us) = %.2f ms explained + %.2f ms unexplained\n",
		median(ck), median(nock), L["core.durability_share"], gap, L["checkpoint.saves_per_job"], cc.captureUs, cc.saveUs, explained, gap-explained)

	if err := chainLayers(ctx, L, p, []string{serveBackend}); err != nil {
		return nil, err
	}
	if L["apps.build_ms."+l.app], L["mrf.compile_ms."+l.app], err = buildProbe(l.app, l.size, l.labels, scenes[0]); err != nil {
		return nil, err
	}
	L[layerName("core.solve_ns_per_site", l.app, serveBackend)] = median(nock) * 1e6 / sites
	return out, hostProbes(L, probeDir)
}

// counterSum adds every counter whose name starts with prefix.
func counterSum(s *obs.Snapshot, prefix string) float64 {
	total := 0.0
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			total += float64(c.Value)
		}
	}
	return total
}

// verify checks every served job against a direct library solve of the
// same spec, outside the measured window: the status digest must equal
// serve.Digest of the direct result and the served labels its PGM
// bytes. It returns each passing job's Solve time (0 for the others,
// which it counts in out).
func (l serveLoad) verify(ctx context.Context, runs []jobRun, out *outcome) ([]time.Duration, error) {
	solved := make([]time.Duration, len(runs))
	problems := map[uint64]*problem{}
	for i := range runs {
		run := &runs[i]
		if run.err != nil {
			out.fail("job %d: %v", i, run.err)
			continue
		}
		p := problems[run.spec.SceneSeed]
		if p == nil {
			var err error
			if p, err = buildProblem(l.app, l.size, l.labels, run.spec.SceneSeed); err != nil {
				return nil, err
			}
			problems[run.spec.SceneSeed] = p
		}
		res, took, err := solveDirect(ctx, p, serveBackend, l.sweeps, l.burnIn(), run.spec.Seed, "")
		if err != nil {
			return nil, err
		}
		pgm, err := labelsPGM(res)
		if err != nil {
			return nil, err
		}
		switch {
		case serve.Digest(res) != run.digest:
			out.fail("job %d: served digest %s, direct solve %s", i, run.digest, serve.Digest(res))
		case !bytes.Equal(pgm, run.labels):
			out.fail("job %d: served labels differ from the direct solve's", i)
		default:
			solved[i] = took
		}
	}
	return solved, nil
}

// snapshotSolves re-solves the given served jobs with a snapshot to
// ckptPath after every sweep, as the server takes them, and returns the
// Solve times. Each result must reproduce the served digest, which also
// validates the traced durability decomposition.
func (l serveLoad) snapshotSolves(ctx context.Context, runs []jobRun, ckptPath string, out *outcome) ([]float64, error) {
	var ck []float64
	for _, run := range runs {
		p, err := buildProblem(l.app, l.size, l.labels, run.spec.SceneSeed)
		if err != nil {
			return nil, err
		}
		_ = os.Remove(ckptPath)
		res, d, err := solveDirect(ctx, p, serveBackend, l.sweeps, l.burnIn(), run.spec.Seed, ckptPath)
		if err != nil {
			return nil, err
		}
		if got := serve.Digest(res); got != run.digest {
			out.fail("direct solve with snapshots of a served %s job: digest %s, served %s", l.app, got, run.digest)
		}
		ck = append(ck, ms(d))
	}
	return ck, nil
}
