package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/obs"
	"olevgrid/internal/v2i"
)

func TestMemLeaseSemantics(t *testing.T) {
	l := NewMemLease()
	t0 := time.Unix(1000, 0)

	if _, held, _ := l.Observe(t0); held {
		t.Fatal("fresh lease claims a holder")
	}
	if ok, err := l.Renew("a", 1, time.Second, t0); err != nil || !ok {
		t.Fatalf("free lease refused: ok=%v err=%v", ok, err)
	}
	// A rival before expiry is refused; the holder itself renews.
	if ok, _ := l.Renew("b", 9, time.Second, t0.Add(500*time.Millisecond)); ok {
		t.Fatal("rival acquired an unexpired lease")
	}
	if ok, _ := l.Renew("a", 2, time.Second, t0.Add(900*time.Millisecond)); !ok {
		t.Fatal("holder refused its own renewal")
	}
	// After expiry the rival wins, and the observation reflects it.
	if ok, _ := l.Renew("b", 9, time.Second, t0.Add(3*time.Second)); !ok {
		t.Fatal("rival refused an expired lease")
	}
	st, held, _ := l.Observe(t0.Add(3 * time.Second))
	if !held || st.Holder != "b" || st.Epoch != 9 {
		t.Fatalf("observation after handover: %+v held=%v", st, held)
	}
	// Degenerate inputs error.
	if _, err := l.Renew("", 0, time.Second, t0); err == nil {
		t.Error("anonymous holder accepted")
	}
	if _, err := l.Renew("a", 0, 0, t0); err == nil {
		t.Error("zero ttl accepted")
	}
}

// A standby that boots into an empty lease table must not invent a
// session to steal.
func TestStandbyNoBootSteal(t *testing.T) {
	sb, err := NewStandby(StandbyConfig{InstanceID: "standby", Lease: NewMemLease(), Journal: NewMemJournal()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sb.TryTakeover(time.Unix(2000, 0)); err != nil || ok {
		t.Fatalf("standby took over with no primary ever observed: ok=%v err=%v", ok, err)
	}
}

// Takeover fences epoch and sequence above the checkpointed state so
// the PR-1 session validation rejects the partitioned primary.
func TestTakeoverFencing(t *testing.T) {
	lease := NewMemLease()
	journal := NewMemJournal()
	t0 := time.Unix(3000, 0)
	if ok, _ := lease.Renew("primary", 40, time.Second, t0); !ok {
		t.Fatal("primary could not acquire")
	}
	if err := journal.Save(Checkpoint{
		Epoch: 37, Round: 5, NumSections: 2, Seq: 123,
		Schedule: map[string][]float64{"ev-0": {1, 2}},
	}); err != nil {
		t.Fatal(err)
	}
	sb, err := NewStandby(StandbyConfig{InstanceID: "standby", Lease: lease, Journal: journal, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Primary alive: no takeover.
	if _, ok, _ := sb.TryTakeover(t0.Add(100 * time.Millisecond)); ok {
		t.Fatal("standby stole a live lease")
	}
	// Primary silent past TTL: takeover with fenced counters.
	take, ok, err := sb.TryTakeover(t0.Add(5 * time.Second))
	if err != nil || !ok {
		t.Fatalf("takeover failed: ok=%v err=%v", ok, err)
	}
	if take.Epoch != 40+epochFenceGap {
		t.Errorf("takeover epoch %d, want lease epoch 40 + gap %d", take.Epoch, epochFenceGap)
	}
	if take.InitialSeq != 123+seqFenceGap {
		t.Errorf("takeover seq %d, want checkpoint seq 123 + gap %d", take.InitialSeq, seqFenceGap)
	}
	if !take.HasCheckpoint || take.Checkpoint.Schedule["ev-0"][1] != 2 {
		t.Errorf("checkpoint not carried: %+v", take.Checkpoint)
	}
	// The new holder is on record; the dead primary's renewal bounces.
	if ok, _ := lease.Renew("primary", 41, time.Second, t0.Add(6*time.Second)); ok {
		t.Error("partitioned primary re-acquired over the standby")
	}
}

// Failover claims a lease the caller knows is dead at its observed
// expiry rather than waiting it out, and still refuses to steal a
// session no primary ever held.
func TestFailoverClaimsAtObservedExpiry(t *testing.T) {
	gridSide, vehicleSide := v2i.NewPair(4)
	defer gridSide.Close()
	defer vehicleSide.Close()
	links := map[string]v2i.Transport{"ev-0": gridSide}
	cfg := CoordinatorConfig{
		NumSections: 2, LineCapacityKW: 10, Cost: nonlinearSpec(),
		Journal: NewMemJournal(), Lease: NewMemLease(), LeaseTTL: time.Second,
	}
	t0 := time.Unix(4000, 0)
	if _, _, err := Failover(cfg, links, "standby", t0); err == nil {
		t.Fatal("failover stole an empty lease table")
	}
	if ok, _ := cfg.Lease.Renew("primary", 9, time.Minute, t0); !ok {
		t.Fatal("primary could not acquire")
	}
	c, take, err := Failover(cfg, links, "standby", t0)
	if err != nil {
		t.Fatal(err)
	}
	if take.Epoch != 9+epochFenceGap || c.cfg.InstanceID != "standby" {
		t.Errorf("takeover epoch %d instance %q", take.Epoch, c.cfg.InstanceID)
	}
	st, _, _ := cfg.Lease.Observe(t0)
	if st.Holder != "standby" || !st.ExpiresAt.Equal(t0.Add(time.Minute+time.Second)) {
		t.Errorf("lease after failover: %+v", st)
	}
}

// refusingLease grants renewals until the refuseAt-th, then refuses
// every one: a rival incarnation won the election at that round.
type refusingLease struct {
	MemLease
	renewals, refuseAt int
}

func (l *refusingLease) Renew(string, uint64, time.Duration, time.Time) (bool, error) {
	l.renewals++
	return l.renewals < l.refuseAt, nil
}

// risingFeed moves β every round.
type risingFeed struct{ base float64 }

func (f risingFeed) Sample(step int) (float64, bool) {
	return f.base * (1 + 0.01*float64(step)), true
}

// A primary deposed at round k must still report what it counted
// before the lease was lost: the early return carries the k−1 β moves
// (the same delta the shared counter saw) and the epoch reached.
func TestLeaseLossReportKeepsCounts(t *testing.T) {
	const n, k = 4, 5
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	links, _ := failoverFleet(t, ctx, n, &wg)
	m := NewMetrics(obs.NewRegistry(), nil)
	spec := nonlinearSpec()
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    n,
		LineCapacityKW: 53.55,
		Cost:           spec,
		Lease:          &refusingLease{refuseAt: k},
		Feed:           risingFeed{base: spec.BetaPerKWh},
		Metrics:        m,
		Seed:           3,
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	report, err := coord.Run(ctx)
	for _, l := range links {
		_ = l.Close()
	}
	wg.Wait()
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("run error %v, want ErrLeaseLost", err)
	}
	if report.FeedChanges != k-1 {
		t.Errorf("report FeedChanges = %d, want %d", report.FeedChanges, k-1)
	}
	if got := int(m.FeedChanges.Value()); got != report.FeedChanges {
		t.Errorf("olev_sched_feed_changes_total moved %d, report says %d", got, report.FeedChanges)
	}
	if report.FinalEpoch == 0 {
		t.Error("report FinalEpoch is zero after an early return")
	}
}

// failoverFleet wires n plain in-memory agents and returns their links
// and the private weights.
func failoverFleet(t *testing.T, ctx context.Context, n int, wg *sync.WaitGroup) (map[string]v2i.Transport, map[string]float64) {
	t.Helper()
	links := make(map[string]v2i.Transport, n)
	weights := make(map[string]float64, n)
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
	return links, weights
}

// scheduleDivergence is the max per-entry gap between two final
// schedules.
func scheduleDivergence(a, b map[string][]float64) float64 {
	var worst float64
	for id, ra := range a {
		rb := b[id]
		if len(rb) != len(ra) {
			return math.Inf(1)
		}
		for c := range ra {
			if d := math.Abs(ra[c] - rb[c]); d > worst {
				worst = d
			}
		}
	}
	if len(a) != len(b) {
		return math.Inf(1)
	}
	return worst
}

// failoverCase runs one crash-at-round-k + standby-takeover episode
// and returns the post-takeover report. crashed reports whether the
// primary actually died mid-session (a large k can let it converge
// first).
func failoverCase(t *testing.T, n int, seed int64, crashRound int) (report Report, crashed bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	links, _ := failoverFleet(t, ctx, n, &wg)
	journal := NewMemJournal()
	lease := NewMemLease()

	primCtx, crash := context.WithCancel(ctx)
	defer crash()
	cfg := CoordinatorConfig{
		NumSections:     n,
		LineCapacityKW:  53.55,
		Cost:            nonlinearSpec(),
		Tolerance:       1e-10,
		MaxRounds:       2000,
		Journal:         journal,
		CheckpointEvery: 1,
		Lease:           lease,
		LeaseTTL:        50 * time.Millisecond,
		InstanceID:      "primary",
		Seed:            seed,
		OnRound: func(round int) {
			if round == crashRound {
				crash()
			}
		},
	}
	prim, err := NewCoordinator(cfg, links)
	if err != nil {
		t.Fatal(err)
	}
	report, err = prim.Run(primCtx)
	if err == nil {
		// Converged before the scripted crash round: no failover to
		// exercise; the caller treats the run itself as the result.
		for _, l := range links {
			_ = l.Close()
		}
		wg.Wait()
		return report, false
	}

	standby, take, err := Failover(cfg, links, "standby", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if take.HasCheckpoint && !standby.Restored() {
		t.Fatal("standby ignored the checkpoint")
	}
	report, err = standby.Run(ctx)
	for _, l := range links {
		_ = l.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatalf("post-takeover run: %v", err)
	}
	if report.FinalEpoch < take.Epoch {
		t.Fatalf("final epoch %d below the fence %d", report.FinalEpoch, take.Epoch)
	}
	return report, true
}

// TestFailoverDeterminismSuite is the 30-instance differential suite:
// for every (seed, crash-round) pair, primary-crash-at-round-k plus
// standby takeover must land on the same equilibrium schedule as an
// uninterrupted run, within 1e-9 per entry — Theorem IV.1's promise
// that a warm start changes round counts, never the destination.
func TestFailoverDeterminismSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("failover sweep takes seconds")
	}
	const n = 5
	seeds := []int64{11, 22, 33, 44, 55}
	crashRounds := []int{1, 2, 3, 5, 8, 13}

	for _, seed := range seeds {
		// Uninterrupted reference for this seed.
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		var wg sync.WaitGroup
		links, _ := failoverFleet(t, ctx, n, &wg)
		ref, err := NewCoordinator(CoordinatorConfig{
			NumSections:    n,
			LineCapacityKW: 53.55,
			Cost:           nonlinearSpec(),
			Tolerance:      1e-10,
			MaxRounds:      2000,
			Seed:           seed,
		}, links)
		if err != nil {
			t.Fatal(err)
		}
		refReport, err := ref.Run(ctx)
		for _, l := range links {
			_ = l.Close()
		}
		wg.Wait()
		cancel()
		if err != nil || !refReport.Converged {
			t.Fatalf("seed %d reference failed: %v %+v", seed, err, refReport)
		}

		crashes := 0
		for _, k := range crashRounds {
			report, crashed := failoverCase(t, n, seed, k)
			if crashed {
				crashes++
			}
			if !report.Converged {
				t.Fatalf("seed %d crash@%d did not converge: %+v", seed, k, report)
			}
			if div := scheduleDivergence(report.Schedule, refReport.Schedule); div > 1e-9 {
				t.Errorf("seed %d crash@%d: schedule diverges by %v (> 1e-9)", seed, k, div)
			}
		}
		if crashes == 0 {
			t.Errorf("seed %d: no crash round actually interrupted the session", seed)
		}
	}
}
