package sched

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/v2i"
)

// runWireGame runs a clean n-vehicle game over the given wire and
// returns the coordinator's report: WireJSON plays it on in-memory
// channel pairs (the links serve and perfbench use), WireBinary on
// connection-backed pipe pairs. Everything else — seeds, weights,
// tolerances — is held fixed, so two calls differ only in the links.
func runWireGame(t *testing.T, w v2i.Wire, n, sections int) Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	links := make(map[string]v2i.Transport, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		gridSide, vehSide := v2i.NewPair(64)
		if w == v2i.WireBinary {
			gridSide, vehSide = v2i.NewPipePair()
		}
		links[id] = gridSide
		agent, err := NewAgent(AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60,
			Satisfaction: core.LogSatisfaction{Weight: chaosWeight(i)},
		}, vehSide)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = agent.Run(ctx)
			_ = vehSide.Close()
		}()
	}

	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    sections,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      1e-4,
		MaxRounds:      80,
		RoundTimeout:   2 * time.Second,
		Parallelism:    4,
		ShutdownGrace:  200 * time.Millisecond,
		Seed:           11,
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	report, err := coord.Run(ctx)
	if err != nil {
		t.Fatalf("wire %s run: %v", w, err)
	}
	_ = coord.Close()
	wg.Wait()
	if !report.Converged {
		t.Fatalf("wire %s: game did not converge in %d rounds", w, report.Rounds)
	}
	return report
}

// TestWireWelfareBitEquality is the cross-codec determinism gate: the
// same game played over in-memory links (JSON-body envelopes, unicast
// quotes) and over binary connections (coalesced QuoteBatch frames,
// own rows elided once acknowledged)
// must land on the same equilibrium to the last bit — welfare, rounds,
// every request, and every schedule row. This holds because both wires
// transmit exact float64 bits and both sides derive the background load
// the same way (others = totals − own, totals accumulated in sorted
// vehicle-ID order).
func TestWireWelfareBitEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-wire game takes seconds")
	}
	const n, sections = 12, 8
	jr := runWireGame(t, v2i.WireJSON, n, sections)
	br := runWireGame(t, v2i.WireBinary, n, sections)

	if jr.Rounds != br.Rounds {
		t.Errorf("rounds: json %d, binary %d", jr.Rounds, br.Rounds)
	}
	if math.Float64bits(jr.WelfareCost) != math.Float64bits(br.WelfareCost) {
		t.Errorf("welfare cost bits: json %v (%x), binary %v (%x)",
			jr.WelfareCost, math.Float64bits(jr.WelfareCost),
			br.WelfareCost, math.Float64bits(br.WelfareCost))
	}
	if math.Float64bits(jr.CongestionDegree) != math.Float64bits(br.CongestionDegree) {
		t.Errorf("congestion degree: json %v, binary %v", jr.CongestionDegree, br.CongestionDegree)
	}
	if len(jr.Requests) != len(br.Requests) {
		t.Fatalf("fleet size: json %d, binary %d", len(jr.Requests), len(br.Requests))
	}
	for id, jp := range jr.Requests {
		if bp, ok := br.Requests[id]; !ok || math.Float64bits(jp) != math.Float64bits(bp) {
			t.Errorf("request %s: json %v, binary %v", id, jp, br.Requests[id])
		}
	}
	for id, jrow := range jr.Schedule {
		brow := br.Schedule[id]
		if len(brow) != len(jrow) {
			t.Fatalf("schedule %s: json width %d, binary width %d", id, len(jrow), len(brow))
		}
		for i := range jrow {
			if math.Float64bits(jrow[i]) != math.Float64bits(brow[i]) {
				t.Errorf("schedule %s[%d]: json %v, binary %v", id, i, jrow[i], brow[i])
			}
		}
	}
}
