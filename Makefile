# Tier-1 flow for the RSU-G reproduction.
#
#   make build   compile everything
#   make vet     go vet over the module
#   make lint    rsulint static-analysis suite (determinism, bit-width,
#                RNG-ownership, ctx-flow, hot-allocation, checkpoint-field
#                and error-wrapping invariants) — must exit clean
#   make lint-escape  lint plus the compiler-assisted escape cross-check
#                of //rsulint:hot functions (slower: rebuilds with -m)
#   make fuzz-smoke   30s coverage-guided fuzz of the snapshot decoder
#   make test    full test suite
#   make race    race-detector pass over the whole module
#   make bench   sweep-engine micro-benchmarks + throughput report
#   make chaos   kill-and-recover harness (subprocess SIGKILL + resume)
#   make obs-smoke  recorder determinism + metrics-snapshot schema gate
#   make backends-smoke  approximate-sampler invariance tests + the
#                cross-backend Pareto sweep gated against BENCH_backends.json
#   make serve-smoke  end-to-end rsuserve drain/restart exercise
#   make serve-chaos  serving chaos harness (SIGKILL + resume) under -race
#   make migrate-chaos  two-node failover chaos matrix (primary SIGKILL,
#                standby takeover, fencing) ×8 plus one -race pass

GO ?= go

.PHONY: build vet lint lint-escape test race bench chaos faults-report obs-smoke kernel-report bench-smoke backends-report backends-smoke fuzz-smoke serve-smoke serve-chaos migrate-chaos all

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers (cmd/rsulint): bitwidth, ckptfield, ctxflow,
# deadassign, detrand, errwrap, floateq, hotalloc, rngshare — plus stale
# //lint:ignore detection. Exit 1 on any finding — the tree stays
# lint-clean.
lint:
	$(GO) run ./cmd/rsulint ./...

# Lint plus the escape-analysis cross-check: rebuilds every package that
# contains a //rsulint:hot function with -gcflags=-m (fresh build cache)
# and fails if the compiler reports a heap escape inside a hot function
# or any same-package callee on its hot path.
lint-escape:
	$(GO) run ./cmd/rsulint -hot-escape ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench BenchmarkSweep -benchtime 1s ./internal/gibbs/

# Kill-and-recover chaos harness: SIGKILLs checkpointing subprocesses at
# randomized sweep boundaries, resumes each from the last durable
# snapshot, and requires byte-equality with the uninterrupted run.
chaos:
	$(GO) test -count=3 -run 'TestKillAndRecover' ./internal/checkpoint/chaostest/

# Regenerates the committed BENCH_faults.json (fully deterministic —
# the CI faults-smoke job diffs a fresh run against it byte-for-byte).
faults-report:
	$(GO) run ./cmd/paperbench -experiment faults -faultsjson BENCH_faults.json

# Regenerates the committed BENCH_kernel.json (pass BASELINE_NS to
# record a pre-kernel same-machine reference ns/site).
kernel-report:
	$(GO) run ./cmd/rsubench -json BENCH_kernel.json $(if $(BASELINE_NS),-baseline $(BASELINE_NS))

# Kernel perf-regression gate: re-run the acceptance configuration and
# check the machine-portable invariants of the committed report
# (compiled-vs-closure speedup ratio within 5%, steady-state sweeps
# allocation-free).
bench-smoke:
	$(GO) run ./cmd/rsubench -quick -compare BENCH_kernel.json -threshold 5

# Regenerates the committed BENCH_backends.json (deterministic columns
# only change when a chain, knob or the energy model changes).
backends-report:
	$(GO) run ./cmd/paperbench -experiment backends -backendsjson BENCH_backends.json

# Backend-registry gate: the new approximate samplers' invariants
# (spiking W=1 == W=N byte-equality, mean-field fixed-point
# reproducibility), backend-name resolution (legacy spellings, the
# empty-name default, capability checks), then the cross-backend
# Pareto sweep with its deterministic columns (label digests, accuracy,
# agreement, modeled energy) held to the committed BENCH_backends.json.
# ns/site is machine-dependent and never gated.
backends-smoke:
	$(GO) test ./internal/sampler/... -run 'TestWorkerInvariance|TestFixedPoint|TestRunReset|TestDistribution|TestLegacyAliases'
	$(GO) test ./internal/core/ -run 'TestBackendNameEquivalence|TestCapabilityChecks'
	$(GO) run ./cmd/paperbench -experiment backends -backendscompare BENCH_backends.json

# Coverage-guided fuzz of the snapshot decoder: 30 seconds of arbitrary
# bytes through Decode, asserting the typed-error contract (ErrCorrupt /
# ErrVersion only) and that every accepted input re-encodes to a
# canonical fixed point.
fuzz-smoke:
	$(GO) test -fuzz=FuzzCheckpointLoad -fuzztime=30s ./internal/checkpoint

# End-to-end serving exercise against the real binary: build
# cmd/rsuserve, start it with two tenants, submit jobs over HTTP,
# SIGTERM mid-flight (graceful drain checkpoints in-flight chains),
# restart on the same state directory, and require every accepted job
# to reach a terminal state with the admission gauges exported.
serve-smoke:
	bash scripts/serve-smoke.sh

# Serving chaos harness under the race detector: the test binary
# re-executes itself as a daemon, floods it from two tenants, SIGKILLs
# it at a seeded-random point, restarts at a different worker count,
# and requires every job to end completed / resumed-and-completed
# (digest-identical to an uninterrupted golden run) /
# deadline-exceeded-with-partial.
serve-chaos:
	$(GO) test -race -run 'TestServeChaosSIGKILLResume' ./internal/serve/

# Two-node failover chaos matrix: a standby and a replicating primary
# from the same self-exec harness, the primary SIGKILLed at a seeded-
# random replication boundary mid two-tenant stream. The standby must
# take over, finish every job digest-identical to an unkilled golden
# run at a different worker count, and fence the resurrected primary.
# Eight seeded repetitions, then one pass under the race detector.
migrate-chaos:
	$(GO) test -count=8 -run 'TestMigrateChaosFailover' ./internal/serve/
	$(GO) test -race -count=1 -run 'TestMigrateChaosFailover' ./internal/serve/

# Observability gate: run the recorder-overhead + determinism
# experiment (fails if an observed run diverges from an unobserved
# one), write a metrics snapshot, and schema-validate it.
obs-smoke:
	$(GO) run ./cmd/paperbench -experiment observed -metrics /tmp/obs-smoke.json
	$(GO) run ./cmd/obsvalidate /tmp/obs-smoke.json
