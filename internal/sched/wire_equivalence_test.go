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
	"olevgrid/internal/v2i"
)

// runWireGame runs a clean n-vehicle game and returns the
// coordinator's report: on in-memory channel pairs (the links serve
// and perfbench use), or with pipe on connection-backed pipe pairs.
// Everything else — seeds, weights, tolerances — is held fixed, so two
// calls differ only in the links.
func runWireGame(t *testing.T, pipe bool, n, sections int) Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	links := make(map[string]v2i.Transport, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		gridSide, vehSide := v2i.NewPair(64)
		if pipe {
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
		t.Fatalf("pipe=%v run: %v", pipe, err)
	}
	_ = coord.Close()
	wg.Wait()
	if !report.Converged {
		t.Fatalf("pipe=%v: game did not converge in %d rounds", pipe, report.Rounds)
	}
	return report
}

// TestWireWelfareBitEquality is the cross-codec determinism gate: the
// same game played over in-memory links (sealed envelopes) and over
// binary connections (length-prefixed frames) must land on the same
// equilibrium to the last bit — welfare, rounds, every request, and
// every schedule row. This holds because both links carry the same
// unicast quotes as exact float64 bits, each derived as totals − own
// with totals accumulated in sorted vehicle-ID order.
func TestWireWelfareBitEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-wire game takes seconds")
	}
	const n, sections = 12, 8
	jr := runWireGame(t, false, n, sections)
	br := runWireGame(t, true, n, sections)

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

// TestNaNRequestRejectedOnEveryLink: a request whose total is NaN
// crosses an in-memory link just as it crosses a connection — sealed
// bodies carry float bits, so the sender no longer refuses it — and
// the coordinator rejects it as an invalid request on both.
func TestNaNRequestRejectedOnEveryLink(t *testing.T) {
	for _, tc := range []struct {
		name string
		pipe bool
	}{{"json", false}, {"binary", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			gridSide, vehSide := v2i.NewPair(16)
			if tc.pipe {
				gridSide, vehSide = v2i.NewPipePair()
			}
			coord, err := NewCoordinator(CoordinatorConfig{
				NumSections:    4,
				LineCapacityKW: 53.55,
				Cost:           nonlinearSpec(),
				Tolerance:      1e-3,
				MaxRounds:      5,
				RoundTimeout:   2 * time.Second,
				ShutdownGrace:  50 * time.Millisecond,
			}, map[string]v2i.Transport{"nan": gridSide})
			if err != nil {
				t.Fatal(err)
			}

			// The scripted vehicle answers every quote with a NaN
			// total for the quoted epoch.
			done := make(chan struct{})
			go func() {
				defer close(done)
				for seq := uint64(1); ; seq++ {
					env, err := vehSide.Recv(ctx)
					if err != nil {
						return
					}
					var q v2i.Quote
					if v2i.Open(env, v2i.TypeQuote, &q) != nil {
						continue
					}
					if err := v2i.SendMsg(ctx, vehSide, v2i.TypeRequest, "nan", seq, &v2i.Request{
						VehicleID: "nan", TotalKW: math.NaN(), Round: q.Round, Epoch: q.Epoch,
					}); err != nil {
						return
					}
				}
			}()

			_, err = coord.Run(ctx)
			if err == nil || !strings.Contains(err.Error(), "invalid request NaN") {
				t.Errorf("Run = %v, want an invalid request NaN error", err)
			}
			_ = coord.Close()
			_ = gridSide.Close()
			_ = vehSide.Close()
			<-done
		})
	}
}
