package sched

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/store"
	"olevgrid/internal/v2i"
)

func TestMemJournalIsolation(t *testing.T) {
	j := NewMemJournal()
	cp := Checkpoint{NumSections: 2, Schedule: map[string][]float64{"ev": {1, 1}}}
	if err := j.Save(cp); err != nil {
		t.Fatal(err)
	}
	cp.Schedule["ev"][0] = 99 // mutating the caller's copy must not leak in
	got, ok, err := j.Load()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if got.Schedule["ev"][0] != 1 {
		t.Errorf("journal shares rows with callers: %+v", got.Schedule)
	}
	got.Schedule["ev"][1] = 99 // nor out
	again, _, _ := j.Load()
	if again.Schedule["ev"][1] != 1 {
		t.Error("journal shares rows with readers")
	}
}

// runJournaledEpisode runs n fresh agents against a coordinator
// configured with the given journal and returns the report.
func runJournaledEpisode(t *testing.T, n int, journal Journal) (Report, *Coordinator) {
	t.Helper()
	links := make(map[string]v2i.Transport, n)
	agents := make([]*Agent, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		gridSide, vehicleSide := v2i.NewPair(16)
		links[id] = gridSide
		agent, err := NewAgent(AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60,
			Satisfaction: core.LogSatisfaction{Weight: 1 + 0.1*float64(i%3)},
		}, vehicleSide)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, agent)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    6,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      1e-4,
		MaxRounds:      100,
		Journal:        journal,
		Seed:           3,
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, a := range agents {
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			_, _ = a.Run(ctx)
		}(a)
	}
	report, err := coord.Run(ctx)
	for _, l := range links {
		_ = l.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatalf("episode: %v", err)
	}
	return report, coord
}

// TestCheckpointAndWarmRestart: a converged run journals its
// schedule; a brand-new coordinator (the restarted process) restores
// it, warm-starts, and lands on the same equilibrium at least as
// fast.
func TestCheckpointAndWarmRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "grid.store")
	openStore := func() *store.SegmentStore {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := openStore()
	first, c1 := runJournaledEpisode(t, 4, NewStoreJournal(st))
	_ = st.Close()
	if !first.Converged {
		t.Fatalf("episode 1 did not converge: %+v", first)
	}
	if !first.CheckpointSaved {
		t.Fatal("converged schedule was not journaled")
	}
	if c1.Restored() {
		t.Error("episode 1 claims to have restored from an empty journal")
	}

	// "Crash": the first coordinator is discarded; a new process
	// reopens the store and restores from disk.
	st = openStore()
	defer st.Close()
	second, c2 := runJournaledEpisode(t, 4, NewStoreJournal(st))
	if !c2.Restored() {
		t.Fatal("restart did not restore the checkpoint")
	}
	if !second.Converged {
		t.Fatalf("warm-started run did not converge: %+v", second)
	}
	if second.Rounds > first.Rounds {
		t.Errorf("warm start took %d rounds, cold start took %d", second.Rounds, first.Rounds)
	}
	for id, want := range first.Requests {
		got := second.Requests[id]
		if math.Abs(got-want) > 0.01*(1+want) {
			t.Errorf("vehicle %s: restarted %v vs original %v", id, got, want)
		}
	}
}

// TestFallbackToLastGoodOnExhaustion: a vehicle that oscillates
// forever burns MaxRounds; the coordinator must degrade to the
// journaled last-known-good schedule instead of serving the
// half-settled one.
func TestFallbackToLastGoodOnExhaustion(t *testing.T) {
	journal := NewMemJournal()
	if err := journal.Save(Checkpoint{
		Epoch:       5,
		Round:       3,
		NumSections: 3,
		Schedule:    map[string][]float64{"osc": {2, 2, 2}},
	}); err != nil {
		t.Fatal(err)
	}

	gridSide, vehicleSide := v2i.NewPair(16)
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    3,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      1e-4,
		MaxRounds:      3,
		RoundTimeout:   2 * time.Second,
		Journal:        journal,
	}, map[string]v2i.Transport{"osc": gridSide})
	if err != nil {
		t.Fatal(err)
	}
	if !coord.Restored() {
		t.Fatal("compatible checkpoint not restored at construction")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		totals := []float64{10, 20}
		var seq uint64
		answered := 0 // advances only on quotes actually answered
		for {
			env, err := vehicleSide.Recv(ctx)
			if err != nil {
				return
			}
			var q v2i.Quote
			if err := v2i.Open(env, v2i.TypeQuote, &q); err != nil {
				continue // schedule/converged/bye frames
			}
			seq++
			out, err := v2i.Seal(v2i.TypeRequest, "osc", seq, v2i.Request{
				VehicleID: "osc", TotalKW: totals[answered%2], Round: q.Round, Epoch: q.Epoch,
			})
			answered++
			if err != nil {
				return
			}
			if err := vehicleSide.Send(ctx, out); err != nil {
				return
			}
		}
	}()

	report, err := coord.Run(ctx)
	_ = gridSide.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if report.Converged {
		t.Fatal("oscillating vehicle should not converge")
	}
	if !report.FellBack {
		t.Fatal("exhausted run did not fall back to last-known-good")
	}
	if got := report.Requests["osc"]; math.Abs(got-6) > 1e-9 {
		t.Errorf("fallback schedule total %v, want 6 (the journaled 2+2+2)", got)
	}
}
