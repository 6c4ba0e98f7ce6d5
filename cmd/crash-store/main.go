// Command crash-store is the durability layer's crash-consistency
// acceptance harness. It drives the exact persistence stack a durable
// daemon session uses — a serve manifest plus a segment-store
// checkpoint journal — on the seeded fault-injecting filesystem
// (store.FaultFS), kills the filesystem at randomized operation
// boundaries across thousands of trials, restarts onto the surviving
// durable image, and recovers through the same boot journal scan the
// daemon runs (serve.ScanJournalsFS). Four phases:
//
//  1. crash-point sweep under -fsync always: every trial dry-runs the
//     workload to count filesystem operations, then reruns it with a
//     crash injected at a random operation and asserts the acked
//     invariant — no checkpoint whose Save returned nil is ever lost,
//     and recovery never invents a round that was never saved;
//  2. the same sweep under -fsync never: acked durability is
//     explicitly not promised there, so only recovery validity and
//     bounded disk footprint are asserted;
//  3. a fault matrix (short writes, ENOSPC, fsync failures) with a
//     crash at the end: failed Saves are unacked, surviving acks must
//     still recover;
//  4. bit-flip trials: silent corruption of written data must be
//     detected (CRC) or survived, never propagated into an invalid
//     warm-start — recovery must stay decodable and geometry-valid.
//
// Every recovered checkpoint is decoded through the same untrusted-
// input gate the daemon uses, and after every recovery the store
// directory must hold at most two snapshots, one segment and no temp
// files (the compaction bound). A final integration pass runs real
// serve.Server sessions over the fault filesystem with the segment
// backend, drains them mid-run, restarts, and warm-resumes.
//
// With -check it exits non-zero if any gate fails. Output is
// machine-readable CHAOS_store.json.
//
// Usage:
//
//	crash-store [-trials 1200] [-seed 1] [-o CHAOS_store.json] [-check]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"olevgrid/internal/sched"
	"olevgrid/internal/serve"
	"olevgrid/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crash-store:", err)
		os.Exit(1)
	}
}

// journalDir is the simulated daemon's journal directory inside the
// fault filesystem; sessionID its one durable session.
const (
	journalDir = "/var/olevgrid/journal"
	sessionID  = "s-crash"
)

// storeFile is the harness's JSON output.
type storeFile struct {
	Seed   int64 `json:"seed"`
	Trials int   `json:"trials"`

	CrashAlways sweepReport `json:"crash_sweep_always"`
	CrashNever  sweepReport `json:"crash_sweep_never"`
	FaultMatrix sweepReport `json:"fault_matrix"`
	BitFlip     sweepReport `json:"bit_flip"`

	SessionsResumed  int `json:"sessions_resumed"`
	SessionsReplayed int `json:"sessions_replayed"`

	ElapsedMS int64    `json:"elapsed_ms"`
	Failures  []string `json:"failures,omitempty"`
	Pass      bool     `json:"pass"`
}

// sweepReport aggregates one trial phase.
type sweepReport struct {
	Trials        int    `json:"trials"`
	AckedLost     int    `json:"acked_lost"`
	InvalidStates int    `json:"invalid_states"`
	UnboundedDirs int    `json:"unbounded_dirs"`
	WarmResumes   int    `json:"warm_resumes"`
	ColdResumes   int    `json:"cold_resumes"`
	CorruptSkips  int    `json:"corrupt_skips"`
	TornTruncated uint64 `json:"torn_truncated"`
	Compactions   uint64 `json:"compactions"`
	MeanOps       int64  `json:"mean_ops_per_trial"`
}

func run() error {
	trials := flag.Int("trials", 1200, "crash-point sweep trials (the other phases scale off this)")
	seed := flag.Int64("seed", 1, "seed for crash points, workloads and fault plans")
	out := flag.String("o", "CHAOS_store.json", "output path (- for stdout)")
	check := flag.Bool("check", false, "exit non-zero unless every durability gate holds")
	flag.Parse()

	start := time.Now()
	file := storeFile{Seed: *seed, Trials: *trials}
	rng := rand.New(rand.NewSource(*seed))

	// Phase 1: crash-point sweep, acked durability enforced.
	file.CrashAlways = sweep(rng, *trials, store.FsyncAlways, store.FaultConfig{}, true)
	// Phase 2: the pre-store policy; validity and bounds only.
	file.CrashNever = sweep(rng, *trials/4, store.FsyncNever, store.FaultConfig{}, false)
	// Phase 3: fault matrix; failed Saves are unacked by definition.
	file.FaultMatrix = sweep(rng, *trials/4, store.FsyncAlways, store.FaultConfig{
		ShortWriteRate: 0.05, ENOSPCRate: 0.05, SyncFailRate: 0.05,
	}, true)
	// Phase 4: silent corruption; the CRC must catch or contain it.
	file.BitFlip = sweep(rng, *trials/8, store.FsyncAlways, store.FaultConfig{
		BitFlipRate: 0.02,
	}, false)

	resumed, replayed, sessErr := integration(rng.Int63())
	file.SessionsResumed = resumed
	file.SessionsReplayed = replayed

	for name, rep := range map[string]sweepReport{
		"crash_sweep_always": file.CrashAlways,
		"crash_sweep_never":  file.CrashNever,
		"fault_matrix":       file.FaultMatrix,
		"bit_flip":           file.BitFlip,
	} {
		if rep.AckedLost > 0 {
			file.Failures = append(file.Failures, fmt.Sprintf("%s: %d acked checkpoints lost", name, rep.AckedLost))
		}
		if rep.InvalidStates > 0 {
			file.Failures = append(file.Failures, fmt.Sprintf("%s: %d recoveries not warm-startable", name, rep.InvalidStates))
		}
		if rep.UnboundedDirs > 0 {
			file.Failures = append(file.Failures, fmt.Sprintf("%s: %d store dirs over the compaction bound", name, rep.UnboundedDirs))
		}
	}
	if file.CrashAlways.TornTruncated == 0 && file.CrashNever.TornTruncated == 0 {
		file.Failures = append(file.Failures, "crash sweeps never produced a torn tail; coverage too weak")
	}
	if file.CrashAlways.Compactions == 0 {
		file.Failures = append(file.Failures, "crash sweep never compacted; coverage too weak")
	}
	if sessErr != nil {
		file.Failures = append(file.Failures, fmt.Sprintf("session integration: %v", sessErr))
	} else if resumed == 0 {
		file.Failures = append(file.Failures, "session integration: no warm resume exercised")
	}
	file.Pass = len(file.Failures) == 0
	file.ElapsedMS = time.Since(start).Milliseconds()

	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(raw)
	} else {
		err = os.WriteFile(*out, raw, 0o644)
	}
	if err != nil {
		return err
	}
	if *check && !file.Pass {
		return fmt.Errorf("durability gates failed: %s", strings.Join(file.Failures, "; "))
	}
	return nil
}

// trialShape is one trial's deterministic workload geometry.
type trialShape struct {
	seed         int64
	rounds       int
	compactBytes int64
}

// ackState is what the workload acknowledged to its caller: the
// ground truth the recovery gates compare against.
type ackState struct {
	ackedRound    int // highest round whose Save returned nil
	lastRound     int // highest round attempted
	manifestAcked bool
	compactions   uint64 // the workload store's own count (ground truth)
}

// workload is the daemon session's persistence life, reduced to its
// durable writes: one manifest, then a stream of growing checkpoints
// through the segment-store journal, compacting aggressively so crash
// points land inside the compaction state machine too.
func workload(fsys store.FS, shape trialShape, fsync store.FsyncPolicy) ackState {
	var acks ackState
	_ = fsys.MkdirAll(journalDir, 0o755)
	m := serve.Manifest{Spec: spec(), State: serve.StateRunning}
	raw, _ := json.Marshal(m)
	if store.WriteFileAtomic(fsys, filepath.Join(journalDir, sessionID+".manifest.json"), raw) == nil {
		// Under FsyncNever nothing is promised; never treat the
		// manifest as acked there.
		acks.manifestAcked = fsync == store.FsyncAlways
	}
	st, err := store.Open(filepath.Join(journalDir, sessionID+".store"), store.Options{
		FS: fsys, Fsync: fsync, CompactBytes: shape.compactBytes,
	})
	if err != nil {
		return acks
	}
	defer st.Close()
	journal := sched.NewStoreJournal(st)
	for round := 1; round <= shape.rounds; round++ {
		acks.lastRound = round
		err := journal.Save(checkpoint(round))
		if err == nil && fsync == store.FsyncAlways {
			acks.ackedRound = round
		}
		if errors.Is(err, store.ErrCrashed) {
			break // the filesystem is dead; further rounds are noise
		}
	}
	acks.compactions = st.Stats().Compactions
	return acks
}

// spec is the durable session's geometry; checkpoints must match its
// section count to pass the scan's warm-start gate.
func spec() serve.SessionSpec {
	return serve.SessionSpec{
		ID: sessionID, Vehicles: 3, Sections: 4,
		Tolerance: 1e-4, MaxRounds: 500, MaxWallMS: 60_000,
	}
}

// checkpoint builds round r's checkpoint, payload varying by round so
// torn tails and bit flips land in meaningful bytes.
func checkpoint(r int) sched.Checkpoint {
	sp := spec()
	cp := sched.Checkpoint{
		Epoch: 1, Round: r, NumSections: sp.Sections, Seq: uint64(r),
		Schedule: make(map[string][]float64, sp.Vehicles),
	}
	for v := 0; v < sp.Vehicles; v++ {
		row := make([]float64, sp.Sections)
		for c := range row {
			row[c] = float64(r) + float64(v)/8 + float64(c)/64
		}
		cp.Schedule[fmt.Sprintf("ev-%03d", v)] = row
	}
	return cp
}

// sweep runs one trial phase: for each trial, dry-run the workload on
// a fault-free filesystem to count operations, rerun it with faults
// (and, when the dry run is clean, a crash at a random operation),
// restart onto the durable image, recover via the daemon's journal
// scan, and apply the gates.
func sweep(rng *rand.Rand, trials int, fsync store.FsyncPolicy, faults store.FaultConfig, gateAcked bool) sweepReport {
	rep := sweepReport{Trials: trials}
	var totalOps int64
	for i := 0; i < trials; i++ {
		shape := trialShape{
			seed:         rng.Int63(),
			rounds:       20 + rng.Intn(41),
			compactBytes: 256 + int64(rng.Intn(768)),
		}
		cfg := faults
		cfg.Seed = shape.seed
		if cfg.ShortWriteRate == 0 && cfg.ENOSPCRate == 0 && cfg.SyncFailRate == 0 && cfg.BitFlipRate == 0 {
			// Clean dry run bounds the op count; the real run crashes
			// at a uniformly random operation inside it.
			dry := store.NewFaultFS(store.FaultConfig{Seed: shape.seed})
			workload(dry, shape, fsync)
			ops := dry.Ops()
			totalOps += ops
			cfg.CrashAtOp = 1 + rng.Int63n(ops)
		}
		fsys := store.NewFaultFS(cfg)
		acks := workload(fsys, shape, fsync)
		if cfg.CrashAtOp == 0 {
			totalOps += fsys.Ops()
		}
		verdict := recoverTrial(fsys, acks, gateAcked)
		rep.AckedLost += verdict.ackedLost
		rep.InvalidStates += verdict.invalid
		rep.UnboundedDirs += verdict.unbounded
		rep.WarmResumes += verdict.warm
		rep.ColdResumes += verdict.cold
		rep.CorruptSkips += verdict.corruptSkips
		rep.TornTruncated += verdict.torn
		rep.Compactions += acks.compactions
	}
	if trials > 0 {
		rep.MeanOps = totalOps / int64(trials)
	}
	return rep
}

// trialVerdict is one trial's gate outcome.
type trialVerdict struct {
	ackedLost, invalid, unbounded int
	warm, cold, corruptSkips      int
	torn                          uint64
}

// recoverTrial restarts the crashed filesystem and recovers through
// serve.ScanJournalsFS — the daemon's real boot path — then applies
// the acked-durability, validity and bounded-footprint gates.
func recoverTrial(fsys *store.FaultFS, acks ackState, gateAcked bool) trialVerdict {
	var v trialVerdict
	booted := fsys.Restart(store.FaultConfig{})
	// The daemon recreates its journal directory at boot before
	// scanning; mirror that so a crash before the workload's own
	// MkdirAll reads as an empty scan, not a scan failure.
	_ = booted.MkdirAll(journalDir, 0o755)
	decisions, err := serve.ScanJournalsFS(booted, journalDir)
	if err != nil {
		v.invalid++
		return v
	}
	var d *serve.Decision
	for i := range decisions {
		if decisions[i].ID == sessionID {
			d = &decisions[i]
		}
	}
	if d == nil {
		// The manifest never became durable. Legal only if its write
		// was never acknowledged.
		if gateAcked && acks.manifestAcked {
			v.ackedLost++
		}
		return v
	}
	v.torn = d.Store.TornTruncated
	v.corruptSkips = int(d.Store.CorruptSkipped)

	recovered := 0
	switch d.Action {
	case serve.ActionResume:
		if d.HasCheckpoint {
			v.warm++
			recovered = d.Checkpoint.Round
			// ScanJournalsFS already ran the untrusted-input decode and
			// the geometry gate; re-assert the ground truth it cannot
			// know: the recovered round must be one that was written.
			if recovered < 1 || recovered > acks.lastRound {
				v.invalid++
			}
		} else {
			v.cold++
		}
	default:
		// A skip is the scan *detecting* damage. With bit flips armed
		// that is the CRC doing its job; in a pure crash sweep nothing
		// may be undetectably damaged, so any skip fails validity.
		if gateAcked {
			v.invalid++
		}
	}
	if gateAcked && recovered < acks.ackedRound {
		v.ackedLost++
	}

	// Bounded footprint after repair: at most two snapshots, one
	// segment, zero temp files.
	names, err := booted.ReadDir(filepath.Join(journalDir, sessionID+".store"))
	if err == nil {
		snaps, tmps, other := 0, 0, 0
		for _, n := range names {
			switch {
			case strings.HasSuffix(n, ".tmp"):
				tmps++
			case strings.HasPrefix(n, "snap-"):
				snaps++
			case n == "segment.log":
			default:
				other++
			}
		}
		if snaps > 2 || tmps > 0 || other > 0 {
			v.unbounded++
		}
	}
	return v
}

// integration runs real serve.Server sessions on the fault filesystem
// with the segment backend: drain catches them mid-run, a restarted
// server over the surviving image must warm-resume them, and a second
// clean pass must replay a completed session's directory as complete.
func integration(seed int64) (resumed, replayed int, err error) {
	fsys := store.NewFaultFS(store.FaultConfig{Seed: seed})
	srv := serve.NewServer(serve.Config{
		MaxSessions: 8, DrainGrace: 300 * time.Millisecond,
		JournalDir: journalDir, FS: fsys,
	})
	slow := serve.SessionSpec{
		ID: "s-slow", Vehicles: 4, Sections: 4,
		Tolerance: 1e-10, MaxRounds: 5000, MaxWallMS: 60_000,
		Chaos: serve.ChaosSpec{MaxDelayMS: 30},
	}
	if _, err := srv.Create(slow); err != nil {
		return 0, 0, fmt.Errorf("create slow session: %w", err)
	}
	quick := serve.SessionSpec{
		ID: "s-quick", Vehicles: 3, Sections: 4,
		Tolerance: 1e-4, MaxRounds: 500, MaxWallMS: 60_000,
	}
	if _, err := srv.Create(quick); err != nil {
		return 0, 0, fmt.Errorf("create quick session: %w", err)
	}
	time.Sleep(200 * time.Millisecond) // let rounds checkpoint
	srv.Drain()

	booted := fsys.Restart(store.FaultConfig{})
	srv2 := serve.NewServer(serve.Config{
		MaxSessions: 8, DrainGrace: 300 * time.Millisecond,
		JournalDir: journalDir, FS: booted,
	})
	defer srv2.Close()
	decisions, err := srv2.ResumeScanned()
	if err != nil {
		return 0, 0, fmt.Errorf("restart resume: %w", err)
	}
	for _, d := range decisions {
		switch {
		case d.Action == serve.ActionResume && d.HasCheckpoint:
			resumed++
		case d.Action == serve.ActionComplete:
			replayed++
		case d.Action == serve.ActionSkip:
			return resumed, replayed, fmt.Errorf("session %s skipped on restart: %s", d.ID, d.Reason)
		}
	}
	return resumed, replayed, nil
}
