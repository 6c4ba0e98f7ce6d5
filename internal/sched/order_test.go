package sched

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/v2i"
)

// pairwiseFold sums rows as a balanced binary tree: the rows padded
// with zero rows to a power of two (at least two), each half folded on
// its own, the halves added elementwise. It is the reference for the
// coordinator's section tree, written from scratch.
func pairwiseFold(rows [][]float64, sections int) []float64 {
	width := 2
	for width < len(rows) {
		width *= 2
	}
	var fold func(lo, hi int) []float64
	fold = func(lo, hi int) []float64 {
		if hi-lo == 1 {
			if lo < len(rows) {
				return append([]float64(nil), rows[lo]...)
			}
			return make([]float64, sections)
		}
		mid := (lo + hi) / 2
		l, r := fold(lo, mid), fold(mid, hi)
		for s := range l {
			l[s] += r[s]
		}
		return l
	}
	return fold(0, width)
}

// freshTotals is pairwiseFold over the fleet's rows in a fresh sort of
// its IDs.
func freshTotals(c *Coordinator) ([]string, []float64) {
	ids := make([]string, 0, len(c.index))
	for id := range c.index {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rows := make([][]float64, len(ids))
	for i, id := range ids {
		rows[i] = c.index[id].row
	}
	return ids, pairwiseFold(rows, c.cfg.NumSections)
}

// assertTotalsFresh checks the coordinator's slot order against a
// fresh sort of the fleet's IDs, and SectionTotals bit for bit against
// a from-scratch pairwise fold of the rows in that fresh order. Only
// Run's goroutine (or a caller between Runs) may call it.
func assertTotalsFresh(t *testing.T, when string, c *Coordinator) {
	t.Helper()
	ids, want := freshTotals(c)
	got := c.SectionTotals()
	for s := range want {
		if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
			t.Fatalf("%s: section %d total %v, fresh-order reference %v", when, s, got[s], want[s])
		}
	}
	order := make([]string, 0, len(c.slots))
	for _, v := range c.slots {
		order = append(order, v.id)
	}
	if fmt.Sprint(order) != fmt.Sprint(ids) {
		t.Fatalf("%s: slot order %v, schedule holds %v", when, order, ids)
	}
}

// TestSectionTotalsFollowMembership drives every membership change the
// coordinator knows — an eviction, a join on its own, a join and a
// departure in the same round (same fleet size, different IDs),
// AddVehicle between Runs, and a ResumeCoordinator takeover — and at
// the top of every round and after each step requires the section
// totals to equal a from-scratch pairwise fold over freshly sorted IDs.
func TestSectionTotalsFollowMembership(t *testing.T) {
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	startAgent := func(id string, link v2i.Transport) {
		t.Helper()
		agent, err := NewAgent(AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60,
			Satisfaction: core.LogSatisfaction{Weight: 1 + 0.1*float64(len(id)%3)},
		}, link)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = agent.Run(ctx)
		}()
	}

	// ev-03 never answers and is evicted in round 1; ev-early joins in
	// round 2; ev-00 drives off after its second schedule, so it
	// departs in round 3, the round ev-joiner joins.
	links := make(map[string]v2i.Transport)
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		grid, vehicle := v2i.NewPair(8)
		links[id] = grid
		switch i {
		case 0:
			startAgent(id, &hangUpAfter{Transport: vehicle, schedules: 2})
		case 3:
			defer vehicle.Close()
		default:
			startAgent(id, vehicle)
		}
	}
	var coord *Coordinator
	var checked []int
	cfg := CoordinatorConfig{
		NumSections:    6,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      1e-6,
		MaxRounds:      100,
		RoundTimeout:   100 * time.Millisecond,
		MaxRetries:     1,
		RetryBackoff:   time.Millisecond,
		EvictAfter:     1,
		DropDeparted:   true,
		OnRound: func(round int) {
			// The top of a round sees the previous round's changes.
			assertTotalsFresh(t, fmt.Sprintf("top of round %d", round), coord)
			checked = append(checked, round)
			_, hasLeaver := coord.index["ev-00"]
			_, hasJoiner := coord.index["ev-joiner"]
			if round >= 3 && len(coord.slots) != 4 {
				t.Fatalf("top of round %d: fleet %d, want 4", round, len(coord.slots))
			}
			if round == 4 && (hasLeaver || !hasJoiner) {
				t.Fatalf("top of round 4: round 3 did not swap ev-00 for ev-joiner")
			}
			if joiner := map[int]string{2: "ev-early", 3: "ev-joiner"}[round]; joiner != "" {
				grid, vehicle := v2i.NewPair(8)
				startAgent(joiner, vehicle)
				if err := coord.Join(joiner, grid); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	coord, err := NewCoordinator(cfg, links)
	if err != nil {
		t.Fatal(err)
	}
	report, err := coord.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Evicted != 1 || report.Departed != 1 || report.Joined != 2 {
		t.Fatalf("evicted %d, departed %d, joined %d; want 1, 1 and 2",
			report.Evicted, report.Departed, report.Joined)
	}
	if len(checked) < 4 {
		t.Fatalf("run ended after %d rounds, before the round-3 churn was checked", len(checked))
	}
	if _, ok := coord.index["ev-joiner"]; !ok || len(coord.slots) != 4 {
		t.Fatalf("final fleet %v, want ev-01, ev-02, ev-early and ev-joiner", report.Requests)
	}
	assertTotalsFresh(t, "after Run", coord)
	// The caller's map follows the fleet, so a successor built over it
	// (Failover) inherits the joiners and not the leavers.
	for id := range coord.index {
		if _, ok := links[id]; !ok {
			t.Errorf("links lacks fleet member %s", id)
		}
	}
	if len(links) != len(coord.index) {
		t.Errorf("links holds %d vehicles, the fleet %d", len(links), len(coord.index))
	}

	// AddVehicle between Runs: the newcomer's row must enter the sum.
	grid, vehicle := v2i.NewPair(8)
	defer vehicle.Close()
	if err := coord.AddVehicle("ev-added", grid); err != nil {
		t.Fatal(err)
	}
	assertTotalsFresh(t, "after AddVehicle", coord)
	// A bulk row write (as a checkpoint restore makes) must reach the
	// totals through the tree's rebuild.
	for s := range coord.index["ev-added"].row {
		coord.index["ev-added"].row[s] = 1.5 + float64(s)/7
	}
	coord.tree.rebuild()
	assertTotalsFresh(t, "after a bulk row write", coord)
	_ = coord.Close()

	// A takeover warm-starts a new coordinator from a checkpoint whose
	// IDs only partly overlap the surviving links.
	cp := Checkpoint{Epoch: 40, NumSections: 6, Schedule: map[string][]float64{}}
	for i, id := range []string{"ev-01", "ev-gone", "ev-02"} {
		row := make([]float64, 6)
		for s := range row {
			row[s] = float64(i+1) * (0.3 + float64(s)/11)
		}
		cp.Schedule[id] = row
	}
	resumed := make(map[string]v2i.Transport)
	for _, id := range []string{"ev-01", "ev-02", "ev-late"} {
		grid, vehicle := v2i.NewPair(8)
		defer vehicle.Close()
		resumed[id] = grid
	}
	cfg.OnRound = nil
	standby, err := ResumeCoordinator(cfg, resumed, Takeover{Epoch: 50, Checkpoint: cp, HasCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	assertTotalsFresh(t, "after ResumeCoordinator", standby)
}
