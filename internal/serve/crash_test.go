package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"olevgrid/internal/sched"
	"olevgrid/internal/store"
)

// TestCrashConsistency is the durability layer's crash-consistency
// acceptance test. It drives the persistence stack a durable daemon
// session uses — a manifest plus a segment-store checkpoint journal —
// on the seeded fault-injecting filesystem (store.FaultFS), kills the
// filesystem at random operation boundaries, restarts onto the
// surviving durable image, and recovers through the daemon's boot scan
// (ScanJournalsFS). Four seeded phases, 1950 trials in all:
//
//  1. crash-point sweep under fsync always: no checkpoint whose Save
//     returned nil is ever lost, and recovery never invents a round
//     that was never saved;
//  2. the same sweep under fsync never: acked durability is not
//     promised there, so only recovery validity and the footprint
//     bound are gated;
//  3. a fault matrix (short writes, ENOSPC, fsync failures) ending in
//     a crash: failed Saves are unacked, surviving acks must recover;
//  4. bit flips: silent corruption must be detected by the CRC or
//     survived, never turned into an invalid warm start.
//
// After every recovery the store directory must hold at most two
// snapshots, one segment and no temp files. The sweeps must also
// cover a torn tail and a compaction, or the test proves too little.
// The drain → crash → warm-resume pass through a real daemon pair is
// the faultfs row of TestServerSegmentStoreDrainResume.
func TestCrashConsistency(t *testing.T) {
	const trials = 1200
	rng := rand.New(rand.NewSource(1))
	phases := []crashPhase{
		{"crash_sweep_always", trials, store.FsyncAlways, store.FaultConfig{}, true},
		{"crash_sweep_never", trials / 4, store.FsyncNever, store.FaultConfig{}, false},
		{"fault_matrix", trials / 4, store.FsyncAlways, store.FaultConfig{
			ShortWriteRate: 0.05, ENOSPCRate: 0.05, SyncFailRate: 0.05,
		}, true},
		{"bit_flip", trials / 8, store.FsyncAlways, store.FaultConfig{BitFlipRate: 0.02}, false},
	}
	reps := make(map[string]sweepReport, len(phases))
	for _, ph := range phases {
		rep := crashSweep(rng, ph)
		reps[ph.name] = rep
		t.Logf("%s: %s", ph.name, rep)
		if rep.ackedLost > 0 {
			t.Errorf("%s: %d acked checkpoints lost", ph.name, rep.ackedLost)
		}
		if rep.invalid > 0 {
			t.Errorf("%s: %d recoveries not warm-startable", ph.name, rep.invalid)
		}
		if rep.unbounded > 0 {
			t.Errorf("%s: %d store dirs over the compaction bound", ph.name, rep.unbounded)
		}
	}
	if reps["crash_sweep_always"].torn == 0 && reps["crash_sweep_never"].torn == 0 {
		t.Error("crash sweeps never produced a torn tail; coverage too weak")
	}
	if reps["crash_sweep_always"].compactions == 0 {
		t.Error("crash sweep never compacted; coverage too weak")
	}
}

// crashJournal is the simulated daemon's journal directory inside the
// fault filesystem; crashSession its one durable session.
const (
	crashJournal = "/var/olevgrid/journal"
	crashSession = "s-crash"
)

// crashPhase is one seeded sweep of the crash test.
type crashPhase struct {
	name   string
	trials int
	fsync  store.FsyncPolicy
	// faults is the injected fault plan; when it is zero, each trial
	// instead crashes at one random operation.
	faults store.FaultConfig
	// gateAcked promises acked durability and a clean scan.
	gateAcked bool
}

// sweepReport aggregates one trial phase; trialVerdict is one trial's
// share of it.
type sweepReport struct {
	trials int
	trialVerdict
	compactions uint64
	meanOps     int64
}

type trialVerdict struct {
	ackedLost, invalid, unbounded int
	warm, cold, corruptSkips      int
	torn                          uint64
}

func (r sweepReport) String() string {
	return fmt.Sprintf("trials=%d acked_lost=%d invalid=%d unbounded=%d warm=%d cold=%d corrupt_skips=%d torn=%d compactions=%d mean_ops=%d",
		r.trials, r.ackedLost, r.invalid, r.unbounded, r.warm, r.cold, r.corruptSkips, r.torn, r.compactions, r.meanOps)
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
	compactions   uint64 // the workload store's own count
}

// crashSpec is the durable session's geometry; checkpoints must match
// its section count to pass the scan's warm-start gate.
func crashSpec() SessionSpec {
	return SessionSpec{
		ID: crashSession, Vehicles: 3, Sections: 4,
		Tolerance: 1e-4, MaxRounds: 500, MaxWallMS: 60_000,
	}
}

// crashWorkload is a daemon session's persistence life reduced to its
// durable writes: one manifest, then a stream of growing checkpoints
// through the segment-store journal, compacting aggressively so crash
// points land inside the compaction state machine too.
func crashWorkload(fsys store.FS, shape trialShape, fsync store.FsyncPolicy) ackState {
	var acks ackState
	_ = fsys.MkdirAll(crashJournal, 0o755)
	if writeManifest(fsys, crashJournal, crashSession, Manifest{Spec: crashSpec(), State: StateRunning}) == nil {
		// Under FsyncNever nothing is promised; never treat the
		// manifest as acked there.
		acks.manifestAcked = fsync == store.FsyncAlways
	}
	st, err := store.Open(storeDirPath(crashJournal, crashSession), store.Options{
		FS: fsys, Fsync: fsync, CompactBytes: shape.compactBytes,
	})
	if err != nil {
		return acks
	}
	defer st.Close()
	journal := sched.NewStoreJournal(st)
	for round := 1; round <= shape.rounds; round++ {
		acks.lastRound = round
		err := journal.Save(crashCheckpoint(round))
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

// crashCheckpoint builds round r's checkpoint, its payload varying by
// round so torn tails and bit flips land in meaningful bytes.
func crashCheckpoint(r int) sched.Checkpoint {
	sp := crashSpec()
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

// crashSweep runs one trial phase: for each trial, run the workload
// under the phase's faults — or, when it injects none, dry-run it on a
// fault-free filesystem to count operations and rerun it with a crash
// at a random one — then restart onto the durable image, recover
// through the boot scan, and tally the gates.
func crashSweep(rng *rand.Rand, ph crashPhase) sweepReport {
	rep := sweepReport{trials: ph.trials}
	crashPoint := ph.faults == (store.FaultConfig{})
	var totalOps int64
	for i := 0; i < ph.trials; i++ {
		shape := trialShape{
			seed:         rng.Int63(),
			rounds:       20 + rng.Intn(41),
			compactBytes: 256 + int64(rng.Intn(768)),
		}
		cfg := ph.faults
		cfg.Seed = shape.seed
		if crashPoint {
			dry := store.NewFaultFS(cfg)
			crashWorkload(dry, shape, ph.fsync)
			totalOps += dry.Ops()
			cfg.CrashAtOp = 1 + rng.Int63n(dry.Ops())
		}
		fsys := store.NewFaultFS(cfg)
		acks := crashWorkload(fsys, shape, ph.fsync)
		if !crashPoint {
			totalOps += fsys.Ops()
		}
		v := recoverTrial(fsys, acks, ph.gateAcked)
		rep.ackedLost += v.ackedLost
		rep.invalid += v.invalid
		rep.unbounded += v.unbounded
		rep.warm += v.warm
		rep.cold += v.cold
		rep.corruptSkips += v.corruptSkips
		rep.torn += v.torn
		rep.compactions += acks.compactions
	}
	if ph.trials > 0 {
		rep.meanOps = totalOps / int64(ph.trials)
	}
	return rep
}

// recoverTrial restarts the crashed filesystem, recovers through the
// daemon's boot scan, and applies the acked-durability, validity and
// bounded-footprint gates.
func recoverTrial(fsys *store.FaultFS, acks ackState, gateAcked bool) trialVerdict {
	var v trialVerdict
	booted := fsys.Restart(store.FaultConfig{})
	// The daemon recreates its journal directory at boot before
	// scanning; mirror that so a crash before the workload's own
	// MkdirAll reads as an empty scan, not a scan failure.
	_ = booted.MkdirAll(crashJournal, 0o755)
	decisions, err := ScanJournalsFS(booted, crashJournal)
	if err != nil {
		v.invalid++
		return v
	}
	var d *Decision
	for i := range decisions {
		if decisions[i].ID == crashSession {
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
	case ActionResume:
		if d.HasCheckpoint {
			v.warm++
			recovered = d.Checkpoint.Round
			// The scan already ran the untrusted-input decode and the
			// geometry gate; re-assert the ground truth it cannot
			// know: the recovered round must be one that was written.
			if recovered < 1 || recovered > acks.lastRound {
				v.invalid++
			}
		} else {
			v.cold++
		}
	default:
		// A skip is the scan detecting damage. With bit flips armed
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
	names, err := booted.ReadDir(storeDirPath(crashJournal, crashSession))
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
