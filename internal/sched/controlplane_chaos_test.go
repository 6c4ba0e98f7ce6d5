package sched

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/grid"
	"olevgrid/internal/obs"
	"olevgrid/internal/v2i"
)

// TestControlPlaneChaos is the compound control-plane acceptance
// experiment: one seeded run (N=20, C=20) suffering, all at once,
//
//   - 20% frame loss plus duplication and reordering on every link,
//   - a primary coordinator crash mid-iteration with a standby
//     takeover off the journaled checkpoint,
//   - a 20% LBMP feed dropout rate with decay toward the floor, and
//   - two charging-section outages with scripted restorations,
//
// while every agent has degraded-mode autonomy armed. The fleet must
// still converge, and the final social welfare must land within 1% of
// a fault-free run — the potential-game guarantee that faults change
// the path, never the destination.
//
// Each row runs with one Metrics bundle and event sink shared by both
// coordinator incarnations and the whole fleet, so the run is also
// the proof that the telemetry is faithful under the worst conditions
// the control plane supports: no count doubles across the failover,
// epochs never regress on the event stream, agent gauges match the
// summed AgentResults, and transport frame counters reconcile with
// the coordinator's own. The batched row collects quotes (and
// observes them) on concurrent goroutines; under -race every armed
// hook is also a data-race probe.
func TestControlPlaneChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("control-plane chaos takes seconds")
	}
	const n = 20
	wClean := cleanChaosWelfare(t, n)
	for _, row := range []struct {
		name        string
		parallelism int
	}{
		{"sequential", 0},
		{"batched", 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			runControlPlaneChaos(t, n, row.parallelism, wClean)
		})
	}
}

// cleanChaosWelfare runs the chaos fleet on clean links with no
// faults and returns its equilibrium welfare, the reference both rows
// gate against.
func cleanChaosWelfare(t *testing.T, n int) float64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	links := make(map[string]v2i.Transport, n)
	weights := make(map[string]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		gridSide, vehicleSide := v2i.NewPair(64)
		links[id] = gridSide
		weights[id] = chaosWeight(i)
		agent, err := NewAgent(AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60,
			Satisfaction: core.LogSatisfaction{Weight: chaosWeight(i)},
		}, vehicleSide)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = agent.Run(ctx)
		}()
	}
	base, err := NewCoordinator(CoordinatorConfig{
		NumSections:    n,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      1e-4,
		MaxRounds:      300,
		Seed:           7,
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	report, err := base.Run(ctx)
	for _, l := range links {
		_ = l.Close()
	}
	wg.Wait()
	if err != nil || !report.Converged {
		t.Fatalf("clean baseline failed: %v %+v", err, report)
	}
	return welfareOf(report, weights)
}

func runControlPlaneChaos(t *testing.T, n, parallelism int, wClean float64) {
	chaosPlan := func(seed int64) v2i.FaultConfig {
		return v2i.FaultConfig{
			DropRate:      0.20,
			DuplicateRate: 0.10,
			ReorderRate:   0.10,
			MaxDelay:      2 * time.Millisecond,
			Seed:          seed,
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	reg := obs.NewRegistry()
	sink := obs.NewEventSink(1 << 15)
	m := NewMetrics(reg, sink)
	tm := v2i.NewTransportMetrics(reg)

	// Fleet: chaos-wrapped, instrumented links; autonomy armed on
	// every agent.
	links := make(map[string]v2i.Transport, n)
	raws := make([]v2i.Transport, 0, n)
	weights := make(map[string]float64, n)
	var (
		wg                   sync.WaitGroup
		mu                   sync.Mutex
		degraded, reconnects int
		heartbeats           int
		maxFallback          float64
	)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		rawGrid, rawVehicle := v2i.NewPair(64)
		fg := v2i.NewFaulty(rawGrid, chaosPlan(300+int64(i)))
		fv := v2i.NewFaulty(rawVehicle, chaosPlan(400+int64(i)))
		agent, err := NewAgent(AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60,
			Satisfaction: core.LogSatisfaction{Weight: chaosWeight(i)},
			Autonomy:     &AutonomyConfig{QuoteDeadline: 40 * time.Millisecond},
			Metrics:      m,
		}, fv)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, rawGrid)
		links[id] = v2i.NewInstrumented(fg, tm)
		weights[id] = chaosWeight(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _ := agent.Run(ctx)
			mu.Lock()
			degraded += res.DegradedEpisodes
			reconnects += res.Reconnects
			heartbeats += res.Heartbeats
			if res.LastFallbackKW > maxFallback {
				maxFallback = res.LastFallbackKW
			}
			mu.Unlock()
		}()
	}

	// Exogenous faults: a constant-source LBMP feed going dark 20% of
	// the rounds (decaying toward a floor, recovering to the true β so
	// the destination is unchanged), plus two section outages that are
	// both restored before the end of the script.
	spec := nonlinearSpec()
	feed, err := grid.NewLBMPFeed(func(int) float64 { return spec.BetaPerKWh }, grid.FeedConfig{
		DropRate:  0.20,
		Decay:     0.9,
		FloorBeta: spec.BetaPerKWh / 2,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}

	primCtx, crash := context.WithCancel(ctx)
	defer crash()
	cfg := CoordinatorConfig{
		NumSections:      n,
		LineCapacityKW:   53.55,
		Cost:             spec,
		Tolerance:        1e-3,
		MaxRounds:        200,
		RoundTimeout:     25 * time.Millisecond,
		MaxRetries:       8,
		RetryBackoff:     3 * time.Millisecond,
		SkipUnresponsive: true,
		DropDeparted:     true,
		EvictAfter:       10,
		Seed:             7,
		Journal:          NewMemJournal(),
		CheckpointEvery:  1,
		Lease:            NewMemLease(),
		LeaseTTL:         60 * time.Millisecond,
		InstanceID:       "primary",
		HeartbeatEvery:   2,
		Parallelism:      parallelism,
		Feed:             feed,
		Outages: []SectionOutage{
			{Section: 4, DownRound: 3, UpRound: 9},
			{Section: 12, DownRound: 5, UpRound: 11},
		},
		Metrics: m,
		OnRound: func(round int) {
			if round == 4 {
				crash() // the primary dies mid-iteration
			}
		},
	}
	prim, err := NewCoordinator(cfg, links)
	if err != nil {
		t.Fatal(err)
	}
	primReport, err := prim.Run(primCtx)
	if err == nil {
		t.Fatal("primary survived its scripted crash")
	}
	if got := m.Rounds.Value(); got != uint64(primReport.Rounds) {
		t.Fatalf("rounds counter %d after the crash, primary report says %d", got, primReport.Rounds)
	}

	// Silence long enough for agents to trip their autonomy deadline.
	time.Sleep(150 * time.Millisecond)

	standby, take, err := Failover(cfg, links, "standby", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !standby.Restored() {
		t.Fatal("standby did not warm-start from the checkpoint")
	}
	report, err := standby.Run(ctx)
	for _, r := range raws {
		_ = r.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatalf("standby run: %v", err)
	}
	if !report.Converged {
		t.Fatalf("fleet did not converge under control-plane chaos: %+v", report)
	}

	// Every fault class must actually have fired.
	if feed.Dropouts() == 0 {
		t.Error("the feed never dropped a sample")
	}
	if report.FeedChanges == 0 {
		t.Error("β never moved despite feed dropouts with decay")
	}
	if report.OutagesApplied != 2 || report.RestoresApplied != 2 {
		t.Errorf("outage script: applied=%d restored=%d, want 2/2",
			report.OutagesApplied, report.RestoresApplied)
	}
	if report.LiveSections != n {
		t.Errorf("final live sections = %d, want %d (both outages restored)", report.LiveSections, n)
	}
	if degraded == 0 {
		t.Error("no agent ever entered degraded-mode autonomy across the failover gap")
	}
	if reconnects == 0 {
		t.Error("no agent ever re-converged out of degraded mode")
	}
	if maxFallback <= 0 {
		t.Error("degraded agents held a zero fallback despite known capacities")
	}
	if heartbeats == 0 {
		t.Error("no heartbeat ever landed")
	}
	if report.FinalEpoch < take.Epoch {
		t.Errorf("final epoch %d below the takeover fence %d", report.FinalEpoch, take.Epoch)
	}

	wChaos := welfareOf(report, weights)
	rel := math.Abs(wChaos-wClean) / math.Abs(wClean)
	if rel > 0.01 {
		t.Errorf("welfare under control-plane chaos %.6f vs clean %.6f: rel err %.4f > 1%%",
			wChaos, wClean, rel)
	}

	// No double count: every round increments the counter exactly once
	// at the site that also sets Report.Rounds, so the cumulative
	// counter is the exact sum of both incarnations' reports — the
	// checkpointed prefix the standby warm-started from is not
	// replayed into the metrics.
	if got, want := m.Rounds.Value(), uint64(primReport.Rounds+report.Rounds); got != want {
		t.Errorf("rounds counter %d, want primary %d + standby %d = %d",
			got, primReport.Rounds, report.Rounds, want)
	}
	if got := m.Failovers.Value(); got != 1 {
		t.Errorf("failovers counter %d, want exactly 1", got)
	}
	if got := sink.CountKind(obs.EventFailover); got != 1 {
		t.Errorf("failover events in sink %d, want exactly 1", got)
	}

	// The standby's report accounts only its own incarnation; the
	// shared counters accumulate the primary's contribution on top.
	if got := m.Restores.Value(); got != uint64(report.RestoresApplied) {
		// Both restorations are scripted after the crash round, so the
		// primary cannot have contributed any.
		t.Errorf("restores counter %d, want %d (standby only)", got, report.RestoresApplied)
	}
	if got := m.Outages.Value(); got < uint64(report.OutagesApplied) {
		t.Errorf("outages counter %d below the standby's own %d", got, report.OutagesApplied)
	}
	if got := m.FeedChanges.Value(); got < uint64(report.FeedChanges) {
		t.Errorf("feed-change counter %d below the standby's own %d", got, report.FeedChanges)
	}
	if got := m.Retries.Value(); got < uint64(report.Retries) {
		t.Errorf("retries counter %d below the standby's own %d", got, report.Retries)
	}
	if m.Checkpoints.Value() == 0 {
		t.Error("no checkpoint ever counted despite CheckpointEvery=1")
	}

	// Agent gauges, bumped concurrently by twenty agents sharing the
	// bundle, must equal the mutex-summed AgentResult counts exactly.
	if got := int(m.DegradedEpisodes.Value()); got != degraded {
		t.Errorf("degraded-episodes gauge %d, AgentResult sum %d", got, degraded)
	}
	if got := int(m.Reconnects.Value()); got != reconnects {
		t.Errorf("reconnects gauge %d, AgentResult sum %d", got, reconnects)
	}
	if got := int(m.Heartbeats.Value()); got != heartbeats {
		t.Errorf("heartbeats gauge %d, AgentResult sum %d", got, heartbeats)
	}

	// Cross-layer reconciliation: the coordinator counts a quote or
	// proposal only after its Send succeeds, and the instrumented
	// transport counts exactly the successful sends — so the two
	// layers must agree frame for frame, across both incarnations.
	if got, want := tm.Sent(v2i.TypeQuote), m.Quotes.Value(); got != want {
		t.Errorf("transport counted %d quote frames, coordinator counted %d", got, want)
	}
	if got, want := tm.Sent(v2i.TypeSchedule), m.Proposals.Value(); got != want {
		t.Errorf("transport counted %d schedule frames, coordinator counted %d", got, want)
	}

	// Epoch monotonicity per fencing epoch: in emission order, epochs
	// stamped on coordinator events never decrease — within an
	// incarnation they only grow, and the takeover fence jumps them
	// strictly upward exactly once. The failover event itself must sit
	// at or above the fence.
	last := int32(-1)
	fenced := false
	for _, ev := range sink.Snapshot() {
		switch ev.Kind {
		case obs.EventQuote, obs.EventPropose, obs.EventFailover, obs.EventOutage, obs.EventRestore:
		default:
			continue
		}
		if ev.Epoch < 0 {
			continue
		}
		if ev.Epoch < last {
			t.Fatalf("epoch regressed in emission order: seq %d kind %s epoch %d after %d",
				ev.Seq, ev.Kind, ev.Epoch, last)
		}
		last = ev.Epoch
		if ev.Kind == obs.EventFailover {
			fenced = true
			if uint64(ev.Epoch) < take.Epoch {
				t.Errorf("failover event epoch %d below the takeover fence %d", ev.Epoch, take.Epoch)
			}
		}
		if fenced && uint64(ev.Epoch) < take.Epoch {
			t.Errorf("post-failover event seq %d kind %s epoch %d below the fence %d",
				ev.Seq, ev.Kind, ev.Epoch, take.Epoch)
		}
	}
	if !fenced && sink.Emitted() <= uint64(sink.Cap()) {
		t.Error("failover event missing from a sink that never wrapped")
	}

	// The exposition must carry the cumulative story.
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"olev_sched_failovers_total 1",
		fmt.Sprintf("olev_sched_rounds_total %d", primReport.Rounds+report.Rounds),
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	t.Logf("welfare rel err %.3g, rounds %d+%d, retries %d, stale frames %d, degraded episodes %d, heartbeats %d",
		rel, primReport.Rounds, report.Rounds, report.Retries, report.StaleDropped, degraded, heartbeats)
}
