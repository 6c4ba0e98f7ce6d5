package sched

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/stats"
	"olevgrid/internal/v2i"
)

// BenchmarkConvergenceVsDropRate measures how link loss stretches the
// best-response iteration: rounds-to-convergence and wall time at 0%,
// 10%, and 20% drop rates (both directions of every link).
//
//	go test ./internal/sched/ -bench ConvergenceVsDropRate -benchtime 5x
func BenchmarkConvergenceVsDropRate(b *testing.B) {
	for _, dropRate := range []float64{0, 0.10, 0.20} {
		b.Run(fmt.Sprintf("drop%02.0f", dropRate*100), func(b *testing.B) {
			const n = 6
			var totalRounds, totalRetries int
			for iter := 0; iter < b.N; iter++ {
				links := make(map[string]v2i.Transport, n)
				agents := make([]*Agent, 0, n)
				for i := 0; i < n; i++ {
					id := fmt.Sprintf("ev-%02d", i)
					gridSide, vehicleSide := v2i.NewPair(64)
					var gridLink, vehicleLink v2i.Transport = gridSide, vehicleSide
					if dropRate > 0 {
						plan := func(seed int64) v2i.FaultConfig {
							return v2i.FaultConfig{DropRate: dropRate, Seed: seed}
						}
						gridLink = v2i.NewFaulty(gridSide, plan(int64(iter*100+i)))
						vehicleLink = v2i.NewFaulty(vehicleSide, plan(int64(iter*100+50+i)))
					}
					agent, err := NewAgent(AgentConfig{
						VehicleID:    id,
						MaxPowerKW:   60,
						Satisfaction: core.LogSatisfaction{Weight: 1 + 0.1*float64(i%3)},
					}, vehicleLink)
					if err != nil {
						b.Fatal(err)
					}
					links[id] = gridLink
					agents = append(agents, agent)
				}
				coord, err := NewCoordinator(CoordinatorConfig{
					NumSections:      8,
					LineCapacityKW:   53.55,
					Cost:             nonlinearSpec(),
					Tolerance:        1e-4,
					MaxRounds:        200,
					RoundTimeout:     25 * time.Millisecond,
					MaxRetries:       6,
					RetryBackoff:     2 * time.Millisecond,
					SkipUnresponsive: true,
					Seed:             int64(iter),
				}, links)
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
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
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				if !report.Converged {
					b.Fatalf("drop=%v did not converge: %+v", dropRate, report)
				}
				totalRounds += report.Rounds
				totalRetries += report.Retries
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(totalRetries)/float64(b.N), "retries/op")
		})
	}
}

// BenchmarkCoordinatorTotals measures what one install costs the
// section totals every quote is priced against — the section tree's
// update of the written row's ancestors — plus the next quote's read of
// the totals, at a stadium-egress-sized fleet (N=120, C=24). It
// allocates nothing.
//
//	go test ./internal/sched -run '^$' -bench CoordinatorTotals -benchmem
func BenchmarkCoordinatorTotals(b *testing.B) {
	const n, c = 120, 24
	links := make(map[string]v2i.Transport, n)
	for i := 0; i < n; i++ {
		grid, _ := v2i.NewPair(1)
		links[fmt.Sprintf("ev-%03d", i)] = grid
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections: c, LineCapacityKW: 53.55, Cost: nonlinearSpec(),
	}, links)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(1)
	for i := 0; i < n; i++ {
		row := coord.index[fmt.Sprintf("ev-%03d", i)].row
		for s := range row {
			row[s] = 2 * rng.Float64()
		}
	}
	coord.tree.rebuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coord.tree.update(i % n)
		benchTotals = coord.totalsVec()
	}
}

// benchTotals keeps BenchmarkCoordinatorTotals' result live.
var benchTotals []float64
