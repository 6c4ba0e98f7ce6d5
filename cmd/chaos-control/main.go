// Command chaos-control is the control-plane fault-tolerance
// acceptance harness. It runs the distributed pricing game three ways
// and emits machine-readable CHAOS_controlplane.json:
//
//  1. a clean baseline (N=20, C=20, in-memory links, no faults);
//  2. the same fleet under compound control-plane chaos — 20% frame
//     loss with duplication and reordering on every link, a primary
//     coordinator crash mid-iteration with a standby takeover off the
//     journaled checkpoint, a dropout-prone LBMP feed, and two
//     charging-section outages with scripted restorations — with
//     degraded-mode autonomy armed on every agent;
//  3. a failover determinism sweep: primary-crash-at-round-k plus
//     takeover, for k swept, against an uninterrupted reference at
//     tight tolerance.
//
// With -check it exits non-zero unless the chaos run's welfare lands
// within 1% of clean and the failover sweep's worst schedule
// divergence stays within 1e-9 — the two acceptance gates CI enforces.
//
// Usage:
//
// With -metrics-out the chaos run (only) arms the obs bundle — shared
// by both coordinator incarnations, every agent, and the grid-side
// frame accounting — and dumps the registry and event ring as JSON.
//
//	chaos-control [-n 20] [-c 20] [-seed 7] [-crash-at 4] [-feed-drop 0.2] [-sweep 6] [-o CHAOS_controlplane.json] [-check] [-metrics-out METRICS_chaos.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/grid"
	"olevgrid/internal/obs"
	"olevgrid/internal/sched"
	"olevgrid/internal/v2i"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-control:", err)
		os.Exit(1)
	}
}

type chaosFile struct {
	N           int   `json:"n"`
	C           int   `json:"c"`
	Seed        int64 `json:"seed"`
	CrashAt     int   `json:"crash_at_round"`
	FeedDropPct int   `json:"feed_drop_pct"`

	CleanWelfare  float64 `json:"clean_welfare"`
	ChaosWelfare  float64 `json:"chaos_welfare"`
	WelfareRelErr float64 `json:"welfare_rel_err"`

	Converged        bool `json:"converged"`
	Rounds           int  `json:"rounds"`
	FeedDropouts     int  `json:"feed_dropouts"`
	FeedChanges      int  `json:"feed_changes"`
	FeedHeld         int  `json:"feed_held"`
	OutagesApplied   int  `json:"outages_applied"`
	RestoresApplied  int  `json:"restores_applied"`
	DegradedEpisodes int  `json:"degraded_episodes"`
	Reconnects       int  `json:"reconnects"`
	Heartbeats       int  `json:"heartbeats"`
	Retries          int  `json:"retries"`
	StaleDropped     int  `json:"stale_dropped"`

	FailoverInstances int     `json:"failover_instances"`
	FailoverCrashes   int     `json:"failover_crashes"`
	MaxDivergence     float64 `json:"max_divergence"`

	WelfareWithin1Pct   bool `json:"welfare_within_1pct"`
	DivergenceWithin1e9 bool `json:"divergence_within_1e9"`
}

func run() error {
	n := flag.Int("n", 20, "number of OLEVs")
	c := flag.Int("c", 20, "number of charging sections")
	seed := flag.Int64("seed", 7, "seed")
	crashAt := flag.Int("crash-at", 4, "round at which the primary coordinator crashes")
	feedDrop := flag.Float64("feed-drop", 0.2, "LBMP feed per-round dropout probability")
	sweep := flag.Int("sweep", 6, "crash rounds to sweep in the failover determinism pass")
	out := flag.String("o", "CHAOS_controlplane.json", "output path (- for stdout)")
	check := flag.Bool("check", false, "exit non-zero unless the acceptance gates hold")
	metricsOut := flag.String("metrics-out", "", "dump the chaos run's obs registry as JSON to this path (- for stdout)")
	flag.Parse()

	file := chaosFile{
		N: *n, C: *c, Seed: *seed, CrashAt: *crashAt,
		FeedDropPct: int(math.Round(*feedDrop * 100)),
	}

	clean, cleanWeights, err := runClean(*n, *c, *seed)
	if err != nil {
		return fmt.Errorf("clean baseline: %w", err)
	}
	file.CleanWelfare = welfare(clean, cleanWeights)

	// Telemetry is armed on the chaos scenario only: the clean baseline
	// and the determinism sweep run bare so they stay the reference.
	var tel *chaosTelemetry
	if *metricsOut != "" {
		tel = newChaosTelemetry()
	}
	if err := runChaos(&file, *n, *c, *seed, *crashAt, *feedDrop, tel); err != nil {
		return fmt.Errorf("chaos run: %w", err)
	}
	if err := tel.dump(*metricsOut); err != nil {
		return err
	}
	file.WelfareRelErr = math.Abs(file.ChaosWelfare-file.CleanWelfare) / math.Abs(file.CleanWelfare)

	if err := failoverSweep(&file, *sweep, *seed); err != nil {
		return fmt.Errorf("failover sweep: %w", err)
	}

	file.WelfareWithin1Pct = file.Converged && file.WelfareRelErr <= 0.01
	file.DivergenceWithin1e9 = file.FailoverCrashes > 0 && file.MaxDivergence <= 1e-9

	blob, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out == "-" {
		_, _ = os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	} else {
		fmt.Printf("wrote %s: welfare rel err %.5f (gate 0.01), failover divergence %.2e over %d crashes (gate 1e-9)\n",
			*out, file.WelfareRelErr, file.MaxDivergence, file.FailoverCrashes)
	}
	if *check {
		if !file.WelfareWithin1Pct {
			return fmt.Errorf("welfare gate failed: rel err %.5f > 0.01 (converged=%v)",
				file.WelfareRelErr, file.Converged)
		}
		if !file.DivergenceWithin1e9 {
			return fmt.Errorf("failover gate failed: max divergence %.2e > 1e-9 (crashes=%d)",
				file.MaxDivergence, file.FailoverCrashes)
		}
	}
	return nil
}

func weight(i int) float64 { return 1 + 0.06*float64(i%5) }

func costSpec() v2i.CostSpec {
	return v2i.CostSpec{
		Kind: "nonlinear", BetaPerKWh: 0.02, Alpha: 0.875,
		LineCapacityKW: 53.55, OverloadKappaPerKWh: 10,
		OverloadCapacityKW: 0.9 * 53.55,
	}
}

func welfare(report sched.Report, weights map[string]float64) float64 {
	w := -report.WelfareCost
	for id, p := range report.Requests {
		w += core.LogSatisfaction{Weight: weights[id]}.Value(p)
	}
	return w
}

// fleet spins up n in-memory agents; wrap lets the caller interpose a
// fault plan on the grid side and arm autonomy.
type fleet struct {
	links   map[string]v2i.Transport
	raw     []v2i.Transport
	weights map[string]float64
	wg      sync.WaitGroup

	mu                               sync.Mutex
	degraded, reconnects, heartbeats int
}

func newFleet(ctx context.Context, n int, autonomy *sched.AutonomyConfig, chaosSeed int64, tel *chaosTelemetry) (*fleet, error) {
	f := &fleet{
		links:   make(map[string]v2i.Transport, n),
		weights: make(map[string]float64, n),
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		gridSide, vehicleSide := v2i.NewPair(64)
		f.raw = append(f.raw, gridSide)
		var gl, vl v2i.Transport = gridSide, vehicleSide
		if tel != nil {
			// Frame accounting sits under the fault plan, so the
			// counters see what actually crossed the grid-side links.
			gl = v2i.NewInstrumented(gl, tel.transport)
		}
		if chaosSeed != 0 {
			plan := func(seed int64) v2i.FaultConfig {
				return v2i.FaultConfig{
					DropRate: 0.20, DuplicateRate: 0.10, ReorderRate: 0.10,
					MaxDelay: 2 * time.Millisecond, Seed: seed,
				}
			}
			gl = v2i.NewFaulty(gl, plan(chaosSeed+int64(i)))
			vl = v2i.NewFaulty(vehicleSide, plan(chaosSeed+1000+int64(i)))
		}
		agent, err := sched.NewAgent(sched.AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60,
			Satisfaction: core.LogSatisfaction{Weight: weight(i)},
			Autonomy:     autonomy,
			Metrics:      tel.controlPlane(),
		}, vl)
		if err != nil {
			return nil, err
		}
		f.links[id] = gl
		f.weights[id] = weight(i)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			res, _ := agent.Run(ctx)
			f.mu.Lock()
			f.degraded += res.DegradedEpisodes
			f.reconnects += res.Reconnects
			f.heartbeats += res.Heartbeats
			f.mu.Unlock()
		}()
	}
	return f, nil
}

func (f *fleet) stop() {
	for _, l := range f.raw {
		_ = l.Close()
	}
	f.wg.Wait()
}

func runClean(n, c int, seed int64) (sched.Report, map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	f, err := newFleet(ctx, n, nil, 0, nil)
	if err != nil {
		return sched.Report{}, nil, err
	}
	defer f.stop()
	coord, err := sched.NewCoordinator(sched.CoordinatorConfig{
		NumSections: c, LineCapacityKW: 53.55, Cost: costSpec(),
		Tolerance: 1e-4, MaxRounds: 300, Seed: seed,
	}, f.links)
	if err != nil {
		return sched.Report{}, nil, err
	}
	report, err := coord.Run(ctx)
	if err == nil && !report.Converged {
		err = fmt.Errorf("did not converge in %d rounds", report.Rounds)
	}
	return report, f.weights, err
}

// runChaos executes the compound-fault scenario and folds its outcome
// into the output file.
func runChaos(file *chaosFile, n, c int, seed int64, crashAt int, feedDrop float64, tel *chaosTelemetry) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	f, err := newFleet(ctx, n, &sched.AutonomyConfig{QuoteDeadline: 40 * time.Millisecond}, seed*100, tel)
	if err != nil {
		return err
	}
	defer f.stop()

	spec := costSpec()
	feed, err := grid.NewLBMPFeed(func(int) float64 { return spec.BetaPerKWh }, grid.FeedConfig{
		DropRate: feedDrop, Decay: 0.9, FloorBeta: spec.BetaPerKWh / 2, Seed: seed + 4,
	})
	if err != nil {
		return err
	}
	journal := sched.NewMemJournal()
	lease := sched.NewMemLease()
	primCtx, crash := context.WithCancel(ctx)
	defer crash()
	cfg := sched.CoordinatorConfig{
		NumSections: c, LineCapacityKW: 53.55, Cost: spec,
		Tolerance: 1e-3, MaxRounds: 200,
		RoundTimeout: 25 * time.Millisecond, MaxRetries: 8,
		RetryBackoff:     3 * time.Millisecond,
		SkipUnresponsive: true, DropDeparted: true, EvictAfter: 10,
		Seed:    seed,
		Journal: journal, CheckpointEvery: 1,
		Lease: lease, LeaseTTL: 60 * time.Millisecond, InstanceID: "primary",
		HeartbeatEvery: 2,
		Feed:           feed,
		Outages: []sched.SectionOutage{
			{Section: 4 % c, DownRound: 3, UpRound: 9},
			{Section: 12 % c, DownRound: 5, UpRound: 11},
		},
		OnRound: func(round int) {
			if round == crashAt {
				crash()
			}
		},
		Metrics: tel.controlPlane(),
	}
	prim, err := sched.NewCoordinator(cfg, f.links)
	if err != nil {
		return err
	}
	if _, err := prim.Run(primCtx); err == nil {
		return fmt.Errorf("primary survived its scripted crash at round %d", crashAt)
	}
	time.Sleep(150 * time.Millisecond) // lease lapses, agents trip autonomy

	sb, err := sched.NewStandby(sched.StandbyConfig{
		InstanceID: "standby", Journal: journal, Lease: lease, LeaseTTL: time.Minute,
	})
	if err != nil {
		return err
	}
	take, ok, err := sb.TryTakeover(time.Now())
	if err != nil {
		return err
	}
	if !ok {
		if take, ok, err = sb.TryTakeover(time.Now().Add(time.Second)); err != nil || !ok {
			return fmt.Errorf("standby takeover refused: ok=%v err=%v", ok, err)
		}
	}
	cfg2 := cfg
	cfg2.OnRound = nil
	cfg2.InstanceID = "standby"
	standby, err := sched.ResumeCoordinator(cfg2, f.links, take)
	if err != nil {
		return err
	}
	report, err := standby.Run(ctx)
	f.stop()
	if err != nil {
		return err
	}

	file.ChaosWelfare = welfare(report, f.weights)
	file.Converged = report.Converged
	file.Rounds = report.Rounds
	file.FeedDropouts = feed.Dropouts()
	file.FeedChanges = report.FeedChanges
	file.FeedHeld = report.FeedHeld
	file.OutagesApplied = report.OutagesApplied
	file.RestoresApplied = report.RestoresApplied
	file.Retries = report.Retries
	file.StaleDropped = report.StaleDropped
	f.mu.Lock()
	file.DegradedEpisodes = f.degraded
	file.Reconnects = f.reconnects
	file.Heartbeats = f.heartbeats
	f.mu.Unlock()
	return nil
}

// failoverSweep measures the worst equilibrium divergence across
// crash-at-round-k takeovers against an uninterrupted reference.
func failoverSweep(file *chaosFile, sweep int, seed int64) error {
	const n = 5
	ref, err := sweepInstance(n, seed, 0)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	file.FailoverInstances = sweep
	for k := 1; k <= sweep; k++ {
		rep, err := sweepInstance(n, seed, k)
		if err != nil {
			if err == errNoCrash {
				continue // converged before round k; nothing to measure
			}
			return fmt.Errorf("crash@%d: %w", k, err)
		}
		file.FailoverCrashes++
		for id, ra := range ref.Schedule {
			rb := rep.Schedule[id]
			if len(rb) != len(ra) {
				return fmt.Errorf("crash@%d: schedule shape mismatch for %s", k, id)
			}
			for i := range ra {
				if d := math.Abs(ra[i] - rb[i]); d > file.MaxDivergence {
					file.MaxDivergence = d
				}
			}
		}
	}
	if file.FailoverCrashes == 0 {
		return fmt.Errorf("no crash round interrupted the session; raise -sweep")
	}
	return nil
}

var errNoCrash = fmt.Errorf("converged before the crash round")

// sweepInstance runs one tight-tolerance episode; crashRound 0 means
// an uninterrupted reference, otherwise the primary dies at that round
// and a standby finishes the session.
func sweepInstance(n int, seed int64, crashRound int) (sched.Report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f, err := newFleet(ctx, n, nil, 0, nil)
	if err != nil {
		return sched.Report{}, err
	}
	defer f.stop()

	journal := sched.NewMemJournal()
	lease := sched.NewMemLease()
	primCtx, crash := context.WithCancel(ctx)
	defer crash()
	cfg := sched.CoordinatorConfig{
		NumSections: n, LineCapacityKW: 53.55, Cost: costSpec(),
		Tolerance: 1e-10, MaxRounds: 2000, Seed: seed,
	}
	if crashRound > 0 {
		cfg.Journal = journal
		cfg.CheckpointEvery = 1
		cfg.Lease = lease
		cfg.LeaseTTL = 50 * time.Millisecond
		cfg.InstanceID = "primary"
		cfg.OnRound = func(round int) {
			if round == crashRound {
				crash()
			}
		}
	}
	coord, err := sched.NewCoordinator(cfg, f.links)
	if err != nil {
		return sched.Report{}, err
	}
	report, err := coord.Run(primCtx)
	if crashRound == 0 {
		if err == nil && !report.Converged {
			err = fmt.Errorf("reference did not converge")
		}
		return report, err
	}
	if err == nil {
		return report, errNoCrash
	}

	sb, err := sched.NewStandby(sched.StandbyConfig{
		InstanceID: "standby", Journal: journal, Lease: lease, LeaseTTL: time.Minute,
	})
	if err != nil {
		return sched.Report{}, err
	}
	take, ok, err := sb.TryTakeover(time.Now())
	if err != nil {
		return sched.Report{}, err
	}
	if !ok {
		if take, ok, err = sb.TryTakeover(time.Now().Add(time.Second)); err != nil || !ok {
			return sched.Report{}, fmt.Errorf("takeover refused: ok=%v err=%v", ok, err)
		}
	}
	cfg2 := cfg
	cfg2.OnRound = nil
	cfg2.InstanceID = "standby"
	standby, err := sched.ResumeCoordinator(cfg2, f.links, take)
	if err != nil {
		return sched.Report{}, err
	}
	report, err = standby.Run(ctx)
	if err == nil && !report.Converged {
		err = fmt.Errorf("post-takeover run did not converge")
	}
	return report, err
}

// chaosTelemetry is the obs bundle armed on the chaos scenario when
// -metrics-out is set: one registry shared by the coordinator pair
// (primary and standby), every agent, and the grid-side frame
// accounting.
type chaosTelemetry struct {
	reg       *obs.Registry
	sink      *obs.EventSink
	sched     *sched.Metrics
	transport *v2i.TransportMetrics
}

func newChaosTelemetry() *chaosTelemetry {
	reg := obs.NewRegistry()
	sink := obs.NewEventSink(1 << 14)
	return &chaosTelemetry{
		reg:       reg,
		sink:      sink,
		sched:     sched.NewMetrics(reg, sink),
		transport: v2i.NewTransportMetrics(reg),
	}
}

// controlPlane returns the shared sched bundle; on a nil receiver it
// returns nil, which every observe hook treats as "off".
func (t *chaosTelemetry) controlPlane() *sched.Metrics {
	if t == nil {
		return nil
	}
	return t.sched
}

func (t *chaosTelemetry) dump(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if path == "-" {
		return obs.WriteJSON(os.Stdout, t.reg, t.sink)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSON(f, t.reg, t.sink); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
