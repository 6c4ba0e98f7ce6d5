package sched

import (
	"context"
	"math"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/obs"
	"olevgrid/internal/v2i"
)

// autonomyRig wires one agent with the fallback armed and returns the
// grid-side link plus a channel carrying the agent's result.
func autonomyRig(t *testing.T, ctx context.Context, cfg AgentConfig) (v2i.Transport, <-chan AgentResult) {
	t.Helper()
	gridSide, vehicleSide := v2i.NewPair(8)
	agent, err := NewAgent(cfg, vehicleSide)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan AgentResult, 1)
	go func() {
		res, err := agent.Run(ctx)
		if err != nil {
			t.Errorf("agent run: %v", err)
		}
		done <- res
	}()
	return gridSide, done
}

func sendQuote(t *testing.T, ctx context.Context, grid v2i.Transport, seq uint64, q v2i.Quote) {
	t.Helper()
	env, err := v2i.Seal(v2i.TypeQuote, "grid", seq, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Send(ctx, env); err != nil {
		t.Fatal(err)
	}
	if _, err := grid.Recv(ctx); err != nil { // the best-response request
		t.Fatal(err)
	}
}

func sendBye(t *testing.T, ctx context.Context, grid v2i.Transport, seq uint64) {
	t.Helper()
	env, err := v2i.Seal(v2i.TypeBye, "grid", seq, v2i.Bye{Reason: "done"})
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Send(ctx, env); err != nil {
		t.Fatal(err)
	}
}

// A coordinator silent past the deadline puts the agent on the
// proportional-fair fallback: ηP_line per live section split over the
// quoted fleet. The episode is one degraded span, however many
// deadline budgets the silence lasts.
func TestAutonomyFallbackOnSilence(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sink := obs.NewEventSink(16)
	grid, done := autonomyRig(t, ctx, AgentConfig{
		VehicleID:    "ev-0",
		MaxPowerKW:   200,
		Satisfaction: core.LogSatisfaction{Weight: 1},
		Autonomy:     &AutonomyConfig{QuoteDeadline: 20 * time.Millisecond},
		Metrics:      NewMetrics(nil, sink),
	})

	spec := nonlinearSpec() // OverloadCapacityKW = 0.9 * 53.55
	sendQuote(t, ctx, grid, 1, v2i.Quote{
		VehicleID: "ev-0", Others: []float64{0, 0, 0}, Cost: spec,
		Round: 1, Epoch: 1, FleetSize: 4,
	})
	time.Sleep(120 * time.Millisecond) // several deadline budgets of silence
	sendBye(t, ctx, grid, 2)
	res := <-done

	if res.DegradedEpisodes == 0 {
		t.Fatal("silence past the deadline did not trip autonomy")
	}
	want := spec.OverloadCapacityKW / 4 * 3 // per-capita share × live sections
	if math.Abs(res.LastFallbackKW-want) > 1e-12 {
		t.Errorf("fallback %v kW, want %v", res.LastFallbackKW, want)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
	if got := sink.CountKind(obs.EventDegraded); got != res.DegradedEpisodes {
		t.Errorf("degraded spans %d, episodes %d", got, res.DegradedEpisodes)
	}
}

// The fallback honors the vehicle's own limits and the live-section
// mask: dead sections neither count toward the draw nor the split.
func TestAutonomyFallbackClampsAndMasks(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	grid, done := autonomyRig(t, ctx, AgentConfig{
		VehicleID:        "ev-0",
		MaxPowerKW:       500,
		MaxSectionDrawKW: 10,
		Satisfaction:     core.LogSatisfaction{Weight: 1},
		Autonomy:         &AutonomyConfig{QuoteDeadline: 20 * time.Millisecond},
	})

	spec := nonlinearSpec()
	sendQuote(t, ctx, grid, 1, v2i.Quote{
		VehicleID: "ev-0", Others: []float64{0, 0, 0, 0}, Cost: spec,
		Round: 1, Epoch: 1, FleetSize: 2,
		Live: []bool{true, false, true, true},
	})
	time.Sleep(80 * time.Millisecond)
	sendBye(t, ctx, grid, 2)
	res := <-done

	if res.DegradedEpisodes == 0 {
		t.Fatal("silence did not trip autonomy")
	}
	// Raw share 48.195/2 clamps to the 10 kW draw cap; three sections
	// survive the mask.
	if want := 30.0; math.Abs(res.LastFallbackKW-want) > 1e-12 {
		t.Errorf("fallback %v kW, want %v", res.LastFallbackKW, want)
	}
}

// Past the staleness TTL the agent sheds to zero: an hours-old
// capacity quote must not ground a live draw.
func TestAutonomyStalenessTTLShedsToZero(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	grid, done := autonomyRig(t, ctx, AgentConfig{
		VehicleID:    "ev-0",
		MaxPowerKW:   200,
		Satisfaction: core.LogSatisfaction{Weight: 1},
		Autonomy: &AutonomyConfig{
			QuoteDeadline: 20 * time.Millisecond,
			StalenessTTL:  time.Millisecond,
		},
	})
	sendQuote(t, ctx, grid, 1, v2i.Quote{
		VehicleID: "ev-0", Others: []float64{0, 0}, Cost: nonlinearSpec(),
		Round: 1, Epoch: 1, FleetSize: 3,
	})
	time.Sleep(80 * time.Millisecond)
	sendBye(t, ctx, grid, 2)
	res := <-done

	if res.DegradedEpisodes == 0 {
		t.Fatal("silence did not trip autonomy")
	}
	if res.LastFallbackKW != 0 {
		t.Errorf("fallback %v kW on state older than the TTL, want 0", res.LastFallbackKW)
	}
}

// An agent that never saw the grid has nothing safe to assume: zero
// draw, not an invented one.
func TestAutonomyNoQuoteEverSeen(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	grid, done := autonomyRig(t, ctx, AgentConfig{
		VehicleID:    "ev-0",
		MaxPowerKW:   200,
		Satisfaction: core.LogSatisfaction{Weight: 1},
		Autonomy:     &AutonomyConfig{QuoteDeadline: 15 * time.Millisecond},
	})
	time.Sleep(60 * time.Millisecond)
	// First and only frame is the goodbye; Rounds stays 0.
	env, err := v2i.Seal(v2i.TypeBye, "grid", 1, v2i.Bye{Reason: "done"})
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Send(ctx, env); err != nil {
		t.Fatal(err)
	}
	res := <-done

	if res.DegradedEpisodes == 0 {
		t.Fatal("silence did not trip autonomy")
	}
	if res.LastFallbackKW != 0 {
		t.Errorf("fallback %v kW with no quote ever seen, want 0", res.LastFallbackKW)
	}
}

// A frame arriving while degraded ends the episode: the agent counts a
// reconnect, emits one reconnect span, and resumes the exact protocol.
func TestAutonomyReconnectResumesProtocol(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sink := obs.NewEventSink(16)
	grid, done := autonomyRig(t, ctx, AgentConfig{
		VehicleID:    "ev-0",
		MaxPowerKW:   200,
		Satisfaction: core.LogSatisfaction{Weight: 1},
		Autonomy:     &AutonomyConfig{QuoteDeadline: 20 * time.Millisecond},
		Metrics:      NewMetrics(nil, sink),
	})
	spec := nonlinearSpec()
	sendQuote(t, ctx, grid, 1, v2i.Quote{
		VehicleID: "ev-0", Others: []float64{0, 0}, Cost: spec,
		Round: 1, Epoch: 1, FleetSize: 2,
	})
	time.Sleep(80 * time.Millisecond) // degrade
	sendQuote(t, ctx, grid, 2, v2i.Quote{
		VehicleID: "ev-0", Others: []float64{1, 1}, Cost: spec,
		Round: 2, Epoch: 1, FleetSize: 2,
	})
	sendBye(t, ctx, grid, 3)
	res := <-done

	if res.DegradedEpisodes == 0 {
		t.Fatal("silence did not trip autonomy")
	}
	if res.Reconnects == 0 {
		t.Error("recovered frame did not count as a reconnect")
	}
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2: the protocol should resume after reconnect", res.Rounds)
	}
	if got := sink.CountKind(obs.EventReconnect); got != res.Reconnects {
		t.Errorf("reconnect spans %d, reconnects %d", got, res.Reconnects)
	}
}

// Heartbeats reset the silence clock: a slow round with a live
// coordinator must not push agents into degraded mode, nor emit a
// degraded span.
func TestHeartbeatsPreventDegradation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sink := obs.NewEventSink(16)
	grid, done := autonomyRig(t, ctx, AgentConfig{
		VehicleID:    "ev-0",
		MaxPowerKW:   200,
		Satisfaction: core.LogSatisfaction{Weight: 1},
		Autonomy:     &AutonomyConfig{QuoteDeadline: 80 * time.Millisecond},
		Metrics:      NewMetrics(nil, sink),
	})
	var seq uint64
	for i := 0; i < 8; i++ { // ~160 ms of liveness beacons, no quotes
		seq++
		env, err := v2i.Seal(v2i.TypeHeartbeat, "grid", seq, v2i.Heartbeat{Epoch: 1, Round: i})
		if err != nil {
			t.Fatal(err)
		}
		if err := grid.Send(ctx, env); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	seq++
	sendBye(t, ctx, grid, seq)
	res := <-done

	if res.DegradedEpisodes != 0 {
		t.Errorf("agent degraded %d times under a heartbeating coordinator", res.DegradedEpisodes)
	}
	if res.Heartbeats == 0 {
		t.Error("no heartbeats counted")
	}
	if got := sink.CountKind(obs.EventDegraded); got != 0 {
		t.Errorf("%d degraded spans under a heartbeating coordinator", got)
	}
}
