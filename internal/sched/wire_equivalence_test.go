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

// wireGame sizes one clean game of TestWireWelfareBitEquality.
type wireGame struct {
	n, sections, parallelism, maxRounds int
	tol                                 float64
	roundTimeout                        time.Duration
}

// runWireGame runs a clean game and returns the coordinator's report:
// on in-memory channel pairs, or with pipe on connection-backed pipe
// pairs. Everything else — seeds, weights, tolerances — is held fixed,
// so two calls differ only in the links.
func runWireGame(t *testing.T, pipe bool, g wireGame) Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	links := make(map[string]v2i.Transport, g.n)
	var wg sync.WaitGroup
	for i := 0; i < g.n; i++ {
		id := fmt.Sprintf("ev-%04d", i)
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
		NumSections:    g.sections,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      g.tol,
		MaxRounds:      g.maxRounds,
		RoundTimeout:   g.roundTimeout,
		Parallelism:    g.parallelism,
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

// TestWireWelfareBitEquality is the cross-link determinism gate: the
// same game played over in-memory links (sealed envelopes) and over
// pipe connections (length-prefixed frames) must land on the same
// equilibrium to the last bit — welfare, rounds, every request, and
// every schedule row. This holds because both links carry the same
// unicast quotes as exact float64 bits, each derived as totals − own
// with totals accumulated in sorted vehicle-ID order. The n1000 row is
// a 1000-vehicle, 20-section game in sequential turns, the dynamics
// Theorem IV.1 guarantees to converge (8 rounds).
func TestWireWelfareBitEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-link games take seconds")
	}
	for _, tc := range []struct {
		name string
		g    wireGame
	}{
		{"n12", wireGame{n: 12, sections: 8, parallelism: 4, maxRounds: 80, tol: 1e-4, roundTimeout: 2 * time.Second}},
		{"n1000", wireGame{n: 1000, sections: 20, parallelism: 1, maxRounds: 300, tol: 1e-3, roundTimeout: 30 * time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pair := runWireGame(t, false, tc.g)
			pipe := runWireGame(t, true, tc.g)
			t.Logf("%d rounds, welfare cost %v", pair.Rounds, pair.WelfareCost)

			if pair.Rounds != pipe.Rounds {
				t.Errorf("rounds: pair %d, pipe %d", pair.Rounds, pipe.Rounds)
			}
			if math.Float64bits(pair.WelfareCost) != math.Float64bits(pipe.WelfareCost) {
				t.Errorf("welfare cost bits: pair %v (%x), pipe %v (%x)",
					pair.WelfareCost, math.Float64bits(pair.WelfareCost),
					pipe.WelfareCost, math.Float64bits(pipe.WelfareCost))
			}
			if math.Float64bits(pair.CongestionDegree) != math.Float64bits(pipe.CongestionDegree) {
				t.Errorf("congestion degree: pair %v, pipe %v", pair.CongestionDegree, pipe.CongestionDegree)
			}
			if len(pair.Requests) != len(pipe.Requests) {
				t.Fatalf("fleet size: pair %d, pipe %d", len(pair.Requests), len(pipe.Requests))
			}
			for id, p := range pair.Requests {
				if q, ok := pipe.Requests[id]; !ok || math.Float64bits(p) != math.Float64bits(q) {
					t.Errorf("request %s: pair %v, pipe %v", id, p, pipe.Requests[id])
				}
			}
			for id, prow := range pair.Schedule {
				qrow := pipe.Schedule[id]
				if len(qrow) != len(prow) {
					t.Fatalf("schedule %s: pair width %d, pipe width %d", id, len(prow), len(qrow))
				}
				for i := range prow {
					if math.Float64bits(prow[i]) != math.Float64bits(qrow[i]) {
						t.Errorf("schedule %s[%d]: pair %v, pipe %v", id, i, prow[i], qrow[i])
					}
				}
			}
		})
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
	}{{"pair", false}, {"pipe", true}} {
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
