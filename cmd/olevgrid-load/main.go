// Command olevgrid-load is the service layer's load + chaos
// acceptance harness. It drives the olevgridd daemon core
// (internal/serve) through three phases and emits machine-readable
// BENCH_serve.json:
//
//  1. load — thousands of concurrent sessions (seeded v2i chaos on a
//     third of them, mid-run join/leave churn on a fifth), gating that
//     the peak concurrency clears -min-concurrent, that every admitted
//     session converges, and that p99 per-round latency stays under
//     -p99-ms;
//  2. overload — a burst of creates against a deliberately small
//     daemon, gating that every rejection is the explicit
//     ErrOverloaded (never a queue, never a hang: admission stays
//     O(1) even saturated);
//  3. drain + restart — a drain against still-running sessions must
//     finish within the grace budget plus a bounded tail, checkpoint
//     the stragglers, and a fresh daemon over the same journal
//     directory must resume and converge every one of them.
//
// With -check it exits non-zero unless every gate holds — the serve
// SLOs CI enforces under -race.
//
// With -scenario a registered city archetype (or a scenario .json
// file) sizes every load-phase session — fleet, sections, capacity,
// price, scripted outages — in place of the built-in 3-vehicle
// micro-game; each session still gets its own seed offset plus the
// harness's chaos and churn decoration. Archetype fleets are far
// bigger than the micro-game's, so pair it with a smaller -sessions.
//
// Usage:
//
//	olevgrid-load [-sessions 1200] [-min-concurrent 1000] [-hold 1500ms]
//	              [-p99-ms 250] [-seed 7] [-o BENCH_serve.json] [-check]
//	olevgrid-load -scenario rush-hour-surge -sessions 40 -min-concurrent 32
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"olevgrid/internal/obs"
	"olevgrid/internal/scenario"
	"olevgrid/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "olevgrid-load:", err)
		os.Exit(1)
	}
}

type loadPhase struct {
	Attempted      int     `json:"attempted"`
	Completed      int     `json:"completed"`
	Failed         int     `json:"failed"`
	PeakConcurrent int     `json:"peak_concurrent"`
	WallMS         float64 `json:"wall_ms"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	P50RoundMS     float64 `json:"p50_round_ms"`
	P99RoundMS     float64 `json:"p99_round_ms"`
	ChaosSessions  int     `json:"chaos_sessions"`
	ChurnSessions  int     `json:"churn_sessions"`
	Joined         int     `json:"joined"`
	Departed       int     `json:"departed"`
	Evicted        int     `json:"evicted"`
	Retries        int     `json:"retries"`
	StaleDropped   int     `json:"stale_dropped"`
}

type overloadPhase struct {
	Attempts         int     `json:"attempts"`
	Admitted         int     `json:"admitted"`
	RejectedExplicit int     `json:"rejected_explicit"`
	UnexpectedErrors int     `json:"unexpected_errors"`
	MaxCreateMS      float64 `json:"max_create_ms"`
}

type drainPhase struct {
	Sessions    int     `json:"sessions"`
	Interrupted int     `json:"interrupted"`
	GraceMS     float64 `json:"grace_ms"`
	DrainMS     float64 `json:"drain_ms"`
}

type restartPhase struct {
	Resumed   int `json:"resumed"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Skipped   int `json:"skipped"`
}

type benchFile struct {
	Sessions      int    `json:"sessions"`
	MinConcurrent int    `json:"min_concurrent"`
	Seed          int64  `json:"seed"`
	Scenario      string `json:"scenario,omitempty"`

	Load     loadPhase     `json:"load"`
	Overload overloadPhase `json:"overload"`
	Drain    drainPhase    `json:"drain"`
	Restart  restartPhase  `json:"restart"`

	// The acceptance gates, individually reported so a CI failure says
	// which SLO broke.
	GateConcurrency    bool `json:"gate_concurrency"`     // peak >= min-concurrent
	GateZeroFailures   bool `json:"gate_zero_failures"`   // every admitted session converged
	GateP99Round       bool `json:"gate_p99_round"`       // p99 round latency under budget
	GateExplicitReject bool `json:"gate_explicit_reject"` // overload rejects are all explicit
	GateDrainBounded   bool `json:"gate_drain_bounded"`   // drain wall <= grace + bounded tail
	GateResumeAll      bool `json:"gate_resume_all"`      // every interrupted session resumed + converged
	Pass               bool `json:"pass"`
}

func run() error {
	sessions := flag.Int("sessions", 1200, "sessions to drive in the load phase")
	minConcurrent := flag.Int("min-concurrent", 1000, "peak-concurrency gate")
	hold := flag.Duration("hold", 1500*time.Millisecond, "fleet-assembly hold per session (guarantees overlap)")
	p99Budget := flag.Float64("p99-ms", 400, "p99 per-round latency gate in milliseconds")
	smear := flag.Duration("smear", 20*time.Millisecond, "per-session solve-start stagger (bounds concurrent solver load)")
	seed := flag.Int64("seed", 7, "base seed for session chaos plans")
	out := flag.String("o", "BENCH_serve.json", "output path (- for stdout)")
	check := flag.Bool("check", false, "exit non-zero unless every gate holds")
	scenarioRef := flag.String("scenario", "", "size every load-phase session from this named city archetype or scenario .json file")
	flag.Parse()

	var base *serve.SessionSpec
	if *scenarioRef != "" {
		sc, err := scenario.Load(*scenarioRef)
		if err != nil {
			return err
		}
		b, err := scenarioBase(sc)
		if err != nil {
			return err
		}
		base = &b
	}
	file := benchFile{Sessions: *sessions, MinConcurrent: *minConcurrent, Seed: *seed, Scenario: *scenarioRef}

	if err := runLoad(&file, *sessions, *hold, *smear, *seed, base); err != nil {
		return fmt.Errorf("load phase: %w", err)
	}
	if err := runOverload(&file, *seed); err != nil {
		return fmt.Errorf("overload phase: %w", err)
	}
	if err := runDrainRestart(&file, *seed); err != nil {
		return fmt.Errorf("drain/restart phase: %w", err)
	}

	file.GateConcurrency = file.Load.PeakConcurrent >= *minConcurrent
	file.GateZeroFailures = file.Load.Failed == 0 && file.Load.Completed == file.Load.Attempted
	file.GateP99Round = file.Load.P99RoundMS > 0 && file.Load.P99RoundMS <= *p99Budget
	file.GateExplicitReject = file.Overload.UnexpectedErrors == 0 &&
		file.Overload.Admitted+file.Overload.RejectedExplicit == file.Overload.Attempts &&
		file.Overload.RejectedExplicit > 0
	file.GateDrainBounded = file.Drain.Interrupted > 0 &&
		file.Drain.DrainMS <= file.Drain.GraceMS+3000
	file.GateResumeAll = file.Restart.Skipped == 0 && file.Restart.Failed == 0 &&
		file.Restart.Resumed == file.Drain.Interrupted &&
		file.Restart.Completed == file.Restart.Resumed
	file.Pass = file.GateConcurrency && file.GateZeroFailures && file.GateP99Round &&
		file.GateExplicitReject && file.GateDrainBounded && file.GateResumeAll

	if err := emit(*out, file); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"olevgrid-load: %d sessions peak=%d done=%d failed=%d p99=%.2fms rate=%.1f/s | overload %d/%d rejected | drain %.0fms int=%d | resumed=%d done=%d\n",
		file.Load.Attempted, file.Load.PeakConcurrent, file.Load.Completed, file.Load.Failed,
		file.Load.P99RoundMS, file.Load.SessionsPerSec,
		file.Overload.RejectedExplicit, file.Overload.Attempts,
		file.Drain.DrainMS, file.Drain.Interrupted,
		file.Restart.Resumed, file.Restart.Completed)
	if *check && !file.Pass {
		return fmt.Errorf("acceptance gates failed: concurrency=%v zero_failures=%v p99=%v explicit_reject=%v drain=%v resume=%v",
			file.GateConcurrency, file.GateZeroFailures, file.GateP99Round,
			file.GateExplicitReject, file.GateDrainBounded, file.GateResumeAll)
	}
	return nil
}

// loadSpec builds session i's spec: small per-arterial games, seeded
// chaos on every third, mid-run churn on every fifth, and a smeared
// assembly hold so the whole population is concurrently admitted
// (each session occupies its table slot and solver token from create
// to completion) while the solve starts spread out instead of
// stampeding — the latency gate measures round time under bounded
// solver load, not scheduler collapse.
func loadSpec(i int, hold, smear time.Duration, seed int64, base *serve.SessionSpec) serve.SessionSpec {
	spec := serve.SessionSpec{
		Vehicles:  3,
		Sections:  4,
		Tolerance: 1e-4,
		MaxRounds: 400,
	}
	if base != nil {
		// An archetype sizes the game; the harness keeps decorating it
		// with per-session seeds, chaos, and churn below.
		spec = *base
	}
	spec.Seed = seed + int64(i)*101
	spec.HelloDelayMS = int(hold/time.Millisecond) + i*int(smear/time.Millisecond)
	spec.MaxWallMS = 300_000
	if i%3 == 0 {
		spec.Chaos = serve.ChaosSpec{DropRate: 0.1, DuplicateRate: 0.03, ReorderRate: 0.03, MaxDelayMS: 1}
	}
	if i%5 == 0 {
		spec.JoinAtRound = 2
		spec.LeaveAtRound = 4
	}
	return spec
}

// scenarioBase compiles an archetype into the load phase's base
// session spec (the admin boundary takes names only; the harness,
// like the daemon's -scenario flag, compiles specs itself so .json
// files work too).
func scenarioBase(sc scenario.Spec) (serve.SessionSpec, error) {
	p, err := sc.SessionParams()
	if err != nil {
		return serve.SessionSpec{}, err
	}
	spec := serve.SessionSpec{
		Vehicles:       p.Vehicles,
		Sections:       p.Sections,
		LineCapacityKW: p.LineCapacityKW,
		BetaPerKWh:     p.BetaPerKWh,
		Tolerance:      1e-4,
		MaxRounds:      400,
		FromScenario:   sc.Name,
	}
	for _, o := range p.Outages {
		spec.Outages = append(spec.Outages, serve.OutageSpec{
			Section: o.Section, DownRound: o.DownRound, UpRound: o.UpRound,
		})
	}
	return spec, nil
}

func runLoad(file *benchFile, n int, hold, smear time.Duration, seed int64, base *serve.SessionSpec) error {
	s := serve.NewServer(serve.Config{
		MaxSessions:    n + 16,
		DefaultMaxWall: 2 * time.Minute,
		Registry:       obs.NewRegistry(),
	})
	defer s.Close()

	start := time.Now()
	held := make([]*serve.Session, 0, n)
	for i := 0; i < n; i++ {
		spec := loadSpec(i, hold, smear, seed, base)
		if spec.Chaos.DropRate > 0 {
			file.Load.ChaosSessions++
		}
		if spec.JoinAtRound > 0 {
			file.Load.ChurnSessions++
		}
		sess, err := s.Create(spec)
		if err != nil {
			return fmt.Errorf("create %d: %w", i, err)
		}
		held = append(held, sess)
	}
	file.Load.Attempted = n
	file.Load.PeakConcurrent = s.PeakActive()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		return fmt.Errorf("sessions never went idle: %w", err)
	}
	wall := time.Since(start)
	file.Load.WallMS = float64(wall) / float64(time.Millisecond)
	file.Load.PeakConcurrent = s.PeakActive()

	roundMS := make([]float64, 0, n)
	for i, sess := range held {
		v := sess.View()
		switch v.State {
		case serve.StateDone:
			file.Load.Completed++
		default:
			file.Load.Failed++
			if file.Load.Failed <= 5 {
				fmt.Fprintf(os.Stderr, "olevgrid-load: session %d (%s) ended %s: %s\n", i, v.ID, v.State, v.Error)
			}
		}
		if v.RoundMS > 0 {
			roundMS = append(roundMS, v.RoundMS)
		}
		file.Load.Joined += v.Joined
		file.Load.Departed += v.Departed
		file.Load.Evicted += v.Evicted
		file.Load.Retries += v.Retries
		file.Load.StaleDropped += v.StaleDropped
	}
	file.Load.SessionsPerSec = float64(file.Load.Completed) / wall.Seconds()
	file.Load.P50RoundMS = percentile(roundMS, 0.50)
	file.Load.P99RoundMS = percentile(roundMS, 0.99)
	return nil
}

// runOverload saturates a deliberately small daemon and checks that
// the overflow is rejected explicitly and immediately — the
// bounded-queue discipline, observed from the client side.
func runOverload(file *benchFile, seed int64) error {
	const small, burst = 64, 256
	s := serve.NewServer(serve.Config{MaxSessions: small})
	defer s.Close()

	hold := serve.SessionSpec{
		Vehicles: 3, Sections: 4, Tolerance: 1e-4, MaxRounds: 400,
		HelloDelayMS: 30_000, MaxWallMS: 60_000,
	}
	file.Overload.Attempts = burst
	for i := 0; i < burst; i++ {
		spec := hold
		spec.Seed = seed + int64(i)
		t0 := time.Now()
		_, err := s.Create(spec)
		if ms := float64(time.Since(t0)) / float64(time.Millisecond); ms > file.Overload.MaxCreateMS {
			file.Overload.MaxCreateMS = ms
		}
		switch {
		case err == nil:
			file.Overload.Admitted++
		case errors.Is(err, serve.ErrOverloaded):
			file.Overload.RejectedExplicit++
		default:
			file.Overload.UnexpectedErrors++
			fmt.Fprintf(os.Stderr, "olevgrid-load: overload create %d: unexpected %v\n", i, err)
		}
	}
	return nil
}

// runDrainRestart drains a daemon with still-running sessions, then
// boots a fresh one over the same journal directory and requires every
// interrupted session to resume and converge.
func runDrainRestart(file *benchFile, seed int64) error {
	dir, err := os.MkdirTemp("", "olevgrid-load-journal-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	const n = 24
	grace := 500 * time.Millisecond
	first := serve.NewServer(serve.Config{
		MaxSessions: n,
		DrainGrace:  grace,
		JournalDir:  dir,
	})
	// Slow sessions: per-frame delivery delay keeps them mid-run (and
	// checkpointing) when the drain lands.
	for i := 0; i < n; i++ {
		spec := serve.SessionSpec{
			Vehicles:  4,
			Sections:  4,
			Tolerance: 1e-10,
			MaxRounds: 5000,
			Seed:      seed + int64(i),
			MaxWallMS: 300_000,
			Chaos:     serve.ChaosSpec{MaxDelayMS: 30},
		}
		if _, err := first.Create(spec); err != nil {
			return fmt.Errorf("drain create %d: %w", i, err)
		}
	}
	file.Drain.Sessions = n
	file.Drain.GraceMS = float64(grace) / float64(time.Millisecond)
	time.Sleep(400 * time.Millisecond) // let rounds run and checkpoints land

	t0 := time.Now()
	file.Drain.Interrupted = first.Drain()
	file.Drain.DrainMS = float64(time.Since(t0)) / float64(time.Millisecond)

	second := serve.NewServer(serve.Config{
		MaxSessions: n,
		JournalDir:  dir,
	})
	defer second.Close()
	decisions, err := second.ResumeScanned()
	if err != nil {
		return fmt.Errorf("resume scan: %w", err)
	}
	for _, d := range decisions {
		switch d.Action {
		case serve.ActionResume:
			file.Restart.Resumed++
		case serve.ActionSkip:
			file.Restart.Skipped++
			fmt.Fprintf(os.Stderr, "olevgrid-load: restart skipped %s: %s\n", d.ID, d.Reason)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := second.WaitIdle(ctx); err != nil {
		return fmt.Errorf("resumed sessions never went idle: %w", err)
	}
	for _, v := range second.List() {
		switch v.State {
		case serve.StateDone:
			file.Restart.Completed++
		default:
			file.Restart.Failed++
			fmt.Fprintf(os.Stderr, "olevgrid-load: resumed %s ended %s: %s\n", v.ID, v.State, v.Error)
		}
	}
	return nil
}

// percentile returns the p-th percentile of xs (nearest-rank).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func emit(path string, file benchFile) error {
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
