package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc64"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/serve/migrate"
)

// TestEventsStreamHeartbeat pins the liveness contract of a followed
// events stream: while a job sits queued (or runs between events), the
// server emits heartbeat lines at EventsHeartbeat cadence so clients
// can tell a quiet job from a dead connection.
func TestEventsStreamHeartbeat(t *testing.T) {
	cfg := testConfig(t)
	cfg.EventsHeartbeat = 20 * time.Millisecond
	s := newServer(t, cfg) // never started: the job stays queued
	id, err := s.Submit("alice", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events -> %d", resp.StatusCode)
	}
	beats := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Kind == "heartbeat" {
			beats++
			if beats >= 3 {
				break
			}
		}
	}
	if beats < 3 {
		t.Fatalf("saw %d heartbeat lines, want >= 3 (scan err %v, ctx %v)", beats, sc.Err(), ctx.Err())
	}
}

// TestCorruptCheckpointRestartsFromScratch pins the ErrCorrupt retry
// path end to end: a drained job's snapshot is bit-flipped on disk, the
// restarted server detects the damage on resume, drops the snapshot,
// reruns the chain from sweep zero, and still produces the exact digest
// of an uninterrupted run.
func TestCorruptCheckpointRestartsFromScratch(t *testing.T) {
	restartsFromScratch(t, "serve.ckpt.corrupt_dropped", checkpoint.ErrCorrupt, func(data []byte) {
		data[len(data)/2] ^= 0x40 // one flipped bit mid-payload
	})
}

// TestOldVersionCheckpointRestartsFromScratch pins the upgrade path: a
// job drained by a build that wrote the previous snapshot format holds
// a checksum-valid envelope of Version-1. The restarted server must
// drop it and rerun the chain from sweep zero to the uninterrupted
// run's digest, not fail the job for good.
func TestOldVersionCheckpointRestartsFromScratch(t *testing.T) {
	restartsFromScratch(t, "serve.ckpt.version_dropped", checkpoint.ErrVersion, func(data []byte) {
		// Envelope layout: [8] magic, [4] version, ..., [8] CRC-64/ECMA
		// trailer over everything before it. Re-stamp the version and
		// re-sign, so only the version is wrong.
		binary.LittleEndian.PutUint32(data[8:], checkpoint.Version-1)
		body := data[:len(data)-8]
		binary.LittleEndian.PutUint64(data[len(body):], crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
	})
}

// restartsFromScratch drains a job after its first durable snapshot,
// damages the parked snapshot in place (damage must make Decode fail
// with want), restarts the server on the same state, and requires the
// job to finish with the golden digest after dropping the snapshot
// (counted under counter) and retrying.
func restartsFromScratch(t *testing.T, counter string, want error, damage func([]byte)) {
	t.Helper()
	spec := testSpec()
	spec.Iterations = 400

	golden := startServer(t, testConfig(t))
	gid, err := golden.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	gst := waitTerminal(t, golden, gid, 120*time.Second)
	if gst.State != StateDone {
		t.Fatalf("golden: %s (%s)", gst.State, gst.Error)
	}

	// Run 1: start the job, wait for a durable snapshot, drain.
	cfg := testConfig(t)
	s1 := newServer(t, cfg)
	ctx1, cancel1 := context.WithCancel(context.Background())
	if err := s1.Start(ctx1); err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := s1.store.CheckpointPath(id)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckptPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never wrote a snapshot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := s1.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	dcancel()
	cancel1()

	// Damage the parked snapshot.
	data, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	damage(data)
	if _, err := checkpoint.Decode(data); !errors.Is(err, want) {
		t.Fatalf("damaged snapshot decodes with %v, want %v", err, want)
	}
	if err := os.WriteFile(ckptPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Run 2: recovery resumes the job, trips on the snapshot, and must
	// converge to the golden digest anyway.
	cfg2 := cfg
	cfg2.Recorder = obs.New()
	s2 := startServer(t, cfg2)
	st := waitTerminal(t, s2, id, 120*time.Second)
	if st.State != StateDone {
		t.Fatalf("after restart: %s (%s)", st.State, st.Error)
	}
	if st.Sweeps != spec.Iterations {
		t.Errorf("sweeps %d, want the full budget %d", st.Sweeps, spec.Iterations)
	}
	if st.Digest != gst.Digest {
		t.Errorf("digest %s != golden %s — restart-from-scratch is not clean", st.Digest, gst.Digest)
	}
	if got := counterValue(cfg2.Recorder, counter); got < 1 {
		t.Errorf("%s = %d, want >= 1", counter, got)
	}
	if got := counterValue(cfg2.Recorder, "serve.retries"); got < 1 {
		t.Errorf("serve.retries = %d, want >= 1", got)
	}
}

// twoNodeCluster builds an in-process primary+standby pair wired over
// a real HTTP boundary, with the standby's failure detector tuned slow
// enough that only an explicit action (not scheduling noise) can move
// ownership.
func twoNodeCluster(t *testing.T) (primary, standby *Server, peerURL string) {
	t.Helper()
	sbCfg := testConfig(t)
	sbCfg.Migrate = &migrate.Config{
		NodeID:         "node-b",
		Standby:        true,
		LeaseTTL:       time.Hour,
		HeartbeatEvery: time.Hour,
		MissLimit:      1000,
	}
	sb := startServer(t, sbCfg)
	ts := httptest.NewServer(sb.Handler())
	t.Cleanup(ts.Close)

	prCfg := testConfig(t)
	prCfg.Migrate = &migrate.Config{
		NodeID:         "node-a",
		Peer:           ts.URL,
		LeaseTTL:       time.Hour,
		HeartbeatEvery: time.Hour,
		MissLimit:      1000,
	}
	pr := startServer(t, prCfg)
	deadline := time.Now().Add(30 * time.Second)
	for !pr.Active() {
		if time.Now().After(deadline) {
			t.Fatal("primary never acquired its lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return pr, sb, ts.URL
}

// TestPlannedHandoffMigratesRunningJob drives the whole planned-
// migration path in-process: a running chain is drained to the peer at
// a sweep boundary, the primary parks it as migrated (with the peer
// recorded), and the standby finishes the chain bit-exactly.
func TestPlannedHandoffMigratesRunningJob(t *testing.T) {
	spec := testSpec()
	spec.Iterations = 400

	golden := startServer(t, testConfig(t))
	gid, err := golden.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	gst := waitTerminal(t, golden, gid, 120*time.Second)
	if gst.State != StateDone {
		t.Fatalf("golden: %s (%s)", gst.State, gst.Error)
	}

	pr, sb, peerURL := twoNodeCluster(t)
	id, err := pr.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the chain is demonstrably running, then arm the drain.
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, st, jerr := pr.Job(id)
		if jerr != nil {
			t.Fatal(jerr)
		}
		if st.State == StateRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job finished (%s) before the handoff could arm", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if err := pr.MigrateJob(id); err != nil {
		t.Fatal(err)
	}

	// The primary parks the job as migrated, naming the peer.
	pst := waitTerminal(t, pr, id, 120*time.Second)
	if pst.State != StateMigrated {
		t.Fatalf("primary state %s (%s), want migrated", pst.State, pst.Error)
	}
	if pst.Peer != peerURL {
		t.Errorf("migrated peer %q, want %q", pst.Peer, peerURL)
	}

	// The standby adopted it and finishes the chain bit-exactly.
	sst := waitTerminal(t, sb, id, 120*time.Second)
	if sst.State != StateDone {
		t.Fatalf("standby state %s (%s), want done", sst.State, sst.Error)
	}
	if sst.Sweeps != spec.Iterations {
		t.Errorf("standby sweeps %d, want the full budget %d", sst.Sweeps, spec.Iterations)
	}
	if sst.Digest != gst.Digest {
		t.Errorf("standby digest %s != golden %s — handoff resume is not byte-exact", sst.Digest, gst.Digest)
	}

	// Ledger of record on both sides.
	if got := counterValue(pr.reg, "serve.migrate.jobs_migrated"); got != 1 {
		t.Errorf("primary serve.migrate.jobs_migrated = %d, want 1", got)
	}
	if got := counterValue(sb.reg, "serve.migrate.jobs_adopted"); got != 1 {
		t.Errorf("standby serve.migrate.jobs_adopted = %d, want 1", got)
	}
}

// TestMigrateJobErrors pins the admin surface's refusals: no peer
// configured, unknown job, and already-terminal jobs.
func TestMigrateJobErrors(t *testing.T) {
	s := startServer(t, testConfig(t))
	if err := s.MigrateJob("nope-000000"); !errors.Is(err, ErrNoPeer) {
		t.Fatalf("migrate without peer: %v, want ErrNoPeer", err)
	}

	pr, _, _ := twoNodeCluster(t)
	if err := pr.MigrateJob("nope-000000"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("migrate unknown job: %v, want ErrUnknownJob", err)
	}
	id, err := pr.Submit("alice", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, pr, id, 120*time.Second)
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if err := pr.MigrateJob(id); err == nil {
		t.Fatal("migrating a terminal job succeeded")
	}
}
