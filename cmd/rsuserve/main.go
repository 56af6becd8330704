// Command rsuserve runs MRF inference as a service: a multi-tenant
// HTTP/JSON job API over the checkpoint-backed solver runtime in
// internal/serve.
//
// Usage:
//
//	rsuserve -state /var/lib/rsuserve -addr :8080
//	rsuserve -state DIR -queue 64 -shards 4 -tenants 'alice=5:10,bob=1:2'
//
// Submit a job and watch it:
//
//	curl -s -X POST -H 'X-Tenant: alice' -d '{"app":"segmentation"}' \
//	    http://localhost:8080/v1/jobs
//	curl -s http://localhost:8080/v1/jobs/alice-000000/events
//	curl -s http://localhost:8080/v1/jobs/alice-000000/labels > out.pgm
//
// SIGTERM/SIGINT drain gracefully: admission turns off (503), in-flight
// chains checkpoint at their next sweep boundary and park as preempted,
// and a restart with the same -state resumes them bit-exactly.
//
// Two-node failover (DESIGN.md §15): run a standby, point the primary
// at it, and a dead primary's jobs resume on the standby from their
// replicated snapshots:
//
//	rsuserve -state /var/lib/rsu-b -addr :8081 -node b -standby
//	rsuserve -state /var/lib/rsu-a -addr :8080 -node a -peer http://host-b:8081
//
// A planned handoff drains one job to the peer at its next sweep
// boundary:
//
//	curl -s -X POST -d '{"id":"alice-000000"}' http://localhost:8080/v1/admin/migrate
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/backoff"
	"repro/internal/serve/migrate"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address for the job API and /metrics")
	stateDir := flag.String("state", "", "durable state directory (journal, checkpoints, outputs); required")
	queueDepth := flag.Int("queue", 64, "admission queue depth; submits past it are shed with 429")
	shards := flag.Int("shards", 2, "solver shard count (jobs running concurrently)")
	workerOverride := flag.Int("workers", 0, "override every job's solver worker count (0: honor the spec)")
	cacheSize := flag.Int("model-cache", 8, "built-app cache capacity: saves scene synthesis and app construction, not table compilation (-1 disables)")
	ckptEvery := flag.Int("ckpt-every", 1, "checkpoint cadence in sweeps")
	retries := flag.Int("retries", 3, "max retry attempts for transient failures")
	backoffBase := flag.Duration("backoff-base", 100*time.Millisecond, "first retry delay")
	backoffCap := flag.Duration("backoff-cap", 2*time.Second, "retry delay ceiling")
	backoffSeed := flag.Uint64("backoff-seed", 1, "seed for retry jitter (separate from all chain seeds)")
	tenantsFlag := flag.String("tenants", "", "per-tenant limits: name=rate:inflight[,name=rate:inflight...] (rate req/s, 0 unlimited)")
	defaultRate := flag.Float64("default-rate", 0, "default tenant rate limit (req/s, 0 unlimited)")
	defaultInflight := flag.Int("default-inflight", 0, "default tenant in-flight quota (0 unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight chains to checkpoint on shutdown")
	peer := flag.String("peer", "", "standby base URL (http://host:port); makes this node a replicating primary")
	standby := flag.Bool("standby", false, "run as the replication receiver and failover target")
	nodeID := flag.String("node", "", "stable node identity for the lease ledger (default: absolute -state path)")
	leaseTTL := flag.Duration("lease-ttl", 3*time.Second, "ownership lease duration (heartbeat cadence derives from it)")
	heartbeatEvery := flag.Duration("heartbeat-every", 0, "heartbeat/liveness-check cadence (default lease-ttl/3)")
	missLimit := flag.Int("miss-limit", 3, "consecutive missed heartbeats before the standby takes over")
	flag.Parse()

	if *stateDir == "" {
		fmt.Fprintln(os.Stderr, "rsuserve: -state is required")
		os.Exit(2)
	}
	tenants, err := parseTenants(*tenantsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsuserve: %v\n", err)
		os.Exit(2)
	}
	var migrateCfg *migrate.Config
	if *peer != "" || *standby {
		node := *nodeID
		if node == "" {
			if abs, aerr := filepath.Abs(*stateDir); aerr == nil {
				node = abs
			} else {
				node = *stateDir
			}
		}
		migrateCfg = &migrate.Config{
			NodeID:         node,
			Peer:           *peer,
			Standby:        *standby,
			LeaseTTL:       *leaseTTL,
			HeartbeatEvery: *heartbeatEvery,
			MissLimit:      *missLimit,
		}
	}

	cfg := serve.Config{
		StateDir:              *stateDir,
		QueueDepth:            *queueDepth,
		Shards:                *shards,
		WorkerOverride:        *workerOverride,
		ModelCacheSize:        *cacheSize,
		CheckpointEverySweeps: *ckptEvery,
		Retry: backoff.Policy{
			Base:       *backoffBase,
			Cap:        *backoffCap,
			Factor:     2,
			Jitter:     0.5,
			MaxRetries: *retries,
		},
		BackoffSeed: *backoffSeed,
		Tenants:     tenants,
		DefaultLimits: serve.TenantLimits{
			RatePerSec:  *defaultRate,
			MaxInFlight: *defaultInflight,
		},
		Recorder: obs.New(),
		Now:      time.Now,
		Migrate:  migrateCfg,
	}

	if err := run(cfg, *addr, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "rsuserve: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg serve.Config, addr string, drainTimeout time.Duration) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}

	// The run context dies on the second signal (hard stop); the first
	// signal triggers the graceful drain below.
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	if err := s.Start(runCtx); err != nil {
		return err
	}

	bound, shutdownHTTP, err := obs.ServeHandler(addr, s.Handler())
	if err != nil {
		return err
	}
	fmt.Printf("rsuserve: serving on http://%s (state %s)\n", bound, cfg.StateDir)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	fmt.Printf("rsuserve: %v: draining (in-flight chains checkpoint at their next sweep boundary)\n", sig)

	// Escalation: a second signal aborts the drain wait.
	drainCtx, cancelDrain := context.WithTimeout(runCtx, drainTimeout)
	defer cancelDrain()
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "rsuserve: second signal: hard stop")
		cancelRun()
	}()

	drainErr := s.Drain(drainCtx)
	httpErr := shutdownHTTP(drainCtx)
	if drainErr != nil {
		return drainErr
	}
	if httpErr != nil {
		return httpErr
	}
	fmt.Println("rsuserve: drained; restart with the same -state to resume parked jobs")
	return nil
}

// parseTenants parses "name=rate:inflight,..." into tenant limits.
func parseTenants(s string) (map[string]serve.TenantLimits, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]serve.TenantLimits{}
	for _, part := range strings.Split(s, ",") {
		name, spec, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("tenant %q: want name=rate:inflight", part)
		}
		rateStr, inflightStr, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("tenant %q: want name=rate:inflight", part)
		}
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: rate: %w", name, err)
		}
		inflight, err := strconv.Atoi(inflightStr)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: inflight: %w", name, err)
		}
		out[name] = serve.TenantLimits{RatePerSec: rate, MaxInFlight: inflight}
	}
	return out, nil
}
