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

// launchGameParallel is launchGame with a batching coordinator.
func launchGameParallel(t *testing.T, n, sections, parallelism int, tol float64) (Report, []AgentResult) {
	t.Helper()
	links := make(map[string]v2i.Transport, n)
	agents := make([]*Agent, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		gridSide, vehicleSide := v2i.NewPair(8)
		links[id] = gridSide
		agent, err := NewAgent(AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60 + float64(i%5)*8,
			Satisfaction: core.LogSatisfaction{Weight: 1 + 0.05*float64(i%4)},
		}, vehicleSide)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, agent)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    sections,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      tol,
		MaxRounds:      300,
		Parallelism:    parallelism,
		Seed:           1,
	}, links)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	results := make([]AgentResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, a := range agents {
		wg.Add(1)
		go func(i int, a *Agent) {
			defer wg.Done()
			results[i], errs[i] = a.Run(ctx)
		}(i, a)
	}
	report, err := coord.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	return report, results
}

// TestBatchedCoordinatorConverges: batched quote collection must reach
// the same equilibrium as the sequential protocol — the speculative
// Jacobi blocks change the trajectory, never the fixed point.
func TestBatchedCoordinatorConverges(t *testing.T) {
	const n, sections = 10, 8
	seqReport, _ := launchGameParallel(t, n, sections, 0, 1e-5)
	batReport, batResults := launchGameParallel(t, n, sections, 4, 1e-5)

	if !seqReport.Converged {
		t.Fatalf("sequential run did not converge in %d rounds", seqReport.Rounds)
	}
	if !batReport.Converged {
		t.Fatalf("batched run did not converge in %d rounds (degraded %d)",
			batReport.Rounds, batReport.DegradedRounds)
	}
	for id, want := range seqReport.Requests {
		got, ok := batReport.Requests[id]
		if !ok {
			t.Fatalf("vehicle %s missing from batched report", id)
		}
		if math.Abs(got-want) > 0.01*(1+want) {
			t.Errorf("vehicle %s: batched %v vs sequential %v", id, got, want)
		}
	}
	if d := math.Abs(batReport.CongestionDegree - seqReport.CongestionDegree); d > 0.01 {
		t.Errorf("congestion: batched %v vs sequential %v",
			batReport.CongestionDegree, seqReport.CongestionDegree)
	}
	for i, r := range batResults {
		if !r.Converged {
			t.Errorf("agent %d missed the convergence announcement", i)
		}
		if r.FinalPaymentH < 0 {
			t.Errorf("agent %d negative payment %v", i, r.FinalPaymentH)
		}
	}
	t.Logf("sequential rounds=%d, batched rounds=%d degraded=%d",
		seqReport.Rounds, batReport.Rounds, batReport.DegradedRounds)
}

// TestBatchedCoordinatorWiderThanFleet: Parallelism beyond the fleet
// size must clamp, not wedge.
func TestBatchedCoordinatorWiderThanFleet(t *testing.T) {
	report, _ := launchGameParallel(t, 4, 6, 16, 1e-4)
	if !report.Converged {
		t.Fatalf("did not converge in %d rounds", report.Rounds)
	}
}

// TestBatchedCoordinatorSettlesCongested: on a fleet that overloads
// its sections, a batched Jacobi sweep overshoots, so batching must
// not resume after the first round that fails to shrink the movement
// bound, or every batched round undoes the sequential round before it
// and the run alternates until MaxRounds.
func TestBatchedCoordinatorSettlesCongested(t *testing.T) {
	report, _ := launchGameParallel(t, 20, 10, 3, 1e-4)
	if !report.Converged {
		t.Fatalf("batched run did not converge in %d rounds (degraded %d)",
			report.Rounds, report.DegradedRounds)
	}
	if report.CongestionDegree < 0.8 {
		t.Fatalf("congestion %.3f: the fleet is not congested", report.CongestionDegree)
	}
	t.Logf("rounds=%d degraded=%d congestion=%.3f", report.Rounds, report.DegradedRounds, report.CongestionDegree)
}
