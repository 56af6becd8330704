// Package chaostest is the kill-and-recover harness of the checkpoint
// subsystem: deterministic inference scenarios that a subprocess can be
// SIGKILLed out of at arbitrary instants, resumed from the last durable
// snapshot, and byte-compared against an uninterrupted golden run.
//
// The package holds only the deterministic scenario plumbing (solver
// construction, result digests); the process-killing choreography lives
// in the test files, which are free to use wall clocks and sleeps that
// library code must not.
package chaostest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/rng"
)

// Scenario constants: small enough that one full run takes well under a
// second per backend, large enough that every subsystem (checkerboard
// engine, RSU emulation, fault monitors) does real work.
const (
	// GridW and GridH are the scene geometry.
	GridW = 16
	GridH = 16
	// Iterations and BurnIn are the chain budget.
	Iterations = 12
	BurnIn     = 3
	// Seed is the chain seed; SceneSeed draws the synthetic scene.
	Seed      = 7
	SceneSeed = 41
	// FaultSchedule is the schedule armed when the scenario includes
	// fault injection.
	FaultSchedule = "hot:rate=1e-2;dead:unit=2,sweep=3"
	FaultSeed     = 9
)

// NewSolver builds the deterministic chaos scenario: a blob-scene
// segmentation on the named backend. spec == nil runs without
// checkpointing (the golden run); otherwise the snapshot policy is the
// caller's — the kill harness injects a clock that SIGKILLs the process
// at a chosen sweep boundary.
func NewSolver(backend string, workers int, faults bool, spec *core.CheckpointSpec) (*core.Solver, error) {
	scene := img.BlobScene(GridW, GridH, 3, 6, rng.New(SceneSeed))
	app, err := apps.NewSegmentation(scene.Image, scene.Means, 2, 12)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		BackendName: backend,
		Iterations:  Iterations,
		BurnIn:      BurnIn,
		Workers:     workers,
		Seed:        Seed,
	}
	if faults {
		cfg.Faults = &fault.Options{Schedule: FaultSchedule, Seed: FaultSeed, Policy: fault.PolicyRemap}
	}
	cfg.Checkpoint = spec
	return core.NewSolver(app, cfg)
}

// Digest hashes every chain-derived field of a result — final labels,
// marginal MAP, confidence, energy trace bits, sweep count — into a
// stable hex string. Two runs are byte-identical iff their digests
// match, so the kill-and-recover equivalence check travels across
// process boundaries as one line of text.
func Digest(res *core.Result) string {
	h := sha256.New()
	var word [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	writeInt(res.Iterations)
	for _, l := range res.Final.Labels {
		writeInt(int(l))
	}
	for _, l := range res.MAP.Labels {
		writeInt(int(l))
	}
	h.Write(res.Confidence.Pix)
	writeInt(len(res.EnergyTrace))
	for _, e := range res.EnergyTrace {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(e))
		h.Write(word[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
