package sched

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"olevgrid/internal/core"
	"olevgrid/internal/v2i"
)

// turnBench is a warm in-process fleet at the rush-hour archetype's
// scale (N=50, C=20): a coordinator and one agent per vehicle with no
// faults, so every turn is a single quote → request → schedule
// exchange. The agents run their own goroutines over NewPair links, or
// answer on the coordinator's goroutine over inline pairs, as a serve
// fleet does.
type turnBench struct {
	coord *Coordinator
	dl    *deadline
	ids   []string
	next  int
	stop  func()
}

// turnLinks names the two in-memory wirings a turn is measured on.
var turnLinks = []string{"pair", "inline"}

func newTurnBench(tb testing.TB, wiring string) *turnBench {
	tb.Helper()
	const n, sections = 50, 20
	links := make(map[string]v2i.Transport, n)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	ids := make([]string, 0, n)
	results := make([]AgentResult, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%03d", i)
		var grid, vehicle v2i.Transport
		var inline *v2i.InlineGrid
		if wiring == "inline" {
			inline, vehicle = v2i.NewInlinePair(8)
			grid = inline
		} else {
			grid, vehicle = v2i.NewPair(8)
		}
		agent, err := NewAgent(AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60 + float64(i%5)*8,
			Satisfaction: core.LogSatisfaction{Weight: 1 + 0.06*float64(i%5)},
		}, vehicle)
		if err != nil {
			tb.Fatal(err)
		}
		links[id] = grid
		ids = append(ids, id)
		if inline != nil {
			inline.Bind(agent.Handler(&results[i]))
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = agent.Run(ctx)
		}()
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections: sections, LineCapacityKW: 53.55, Cost: nonlinearSpec(),
	}, links)
	if err != nil {
		tb.Fatal(err)
	}
	b := &turnBench{coord: coord, dl: newDeadline(ctx), ids: ids}
	b.stop = func() {
		b.dl.release()
		cancel()
		for _, l := range links {
			_ = l.Close()
		}
		wg.Wait()
	}
	// Warm every vehicle's buffers with two full sweeps.
	for i := 0; i < 2*n; i++ {
		b.turn(tb)
	}
	return b
}

// turn runs the next vehicle's exchange in round-robin order, reading
// the clock once as Run's retry loop does.
func (b *turnBench) turn(tb testing.TB) {
	v := b.coord.index[b.ids[b.next%len(b.ids)]]
	b.next++
	if _, err := b.coord.updateOne(b.dl, v, 1+b.next/len(b.ids), now()); err != nil {
		tb.Fatal(err)
	}
}

// TestTurnAllocBudget pins what one warm, retry-free turn allocates,
// coordinator and agent together, as the whole process's mallocs over
// 2000 turns divided by the turn count. The agent's decode of the last
// schedule lands after the count and a previous turn's lands inside
// it, so the quotient is a whole turn's worth; rounding absorbs the
// runtime's rare allocations of its own. What a turn still allocates
// is its three sealed bodies — the quote, the request and the
// schedule — each one the byte slice Seal returns: the message structs
// they are sealed from live in the vehicle's slot and the agent, and
// the water-fill writes into the slot row with the coordinator's
// scratch.
func TestTurnAllocBudget(t *testing.T) {
	const budget = 3
	for _, wiring := range turnLinks {
		t.Run(wiring, func(t *testing.T) {
			b := newTurnBench(t, wiring)
			defer b.stop()
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			const turns = 2000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < turns; i++ {
				b.turn(t)
			}
			runtime.ReadMemStats(&after)
			perTurn := float64(after.Mallocs-before.Mallocs) / turns
			t.Logf("%.2f mallocs/turn, %.0f bytes/turn (N=50, C=20)",
				perTurn, float64(after.TotalAlloc-before.TotalAlloc)/turns)
			if got := math.Round(perTurn); got != budget {
				t.Fatalf("a turn allocates %v times, budget %d", got, budget)
			}
		})
	}
}

// BenchmarkTurn measures the same warm turn as TestTurnAllocBudget, on
// both wirings.
//
//	go test ./internal/sched -run '^$' -bench Turn -benchmem
func BenchmarkTurn(b *testing.B) {
	for _, wiring := range turnLinks {
		b.Run(wiring, func(b *testing.B) {
			tb := newTurnBench(b, wiring)
			defer tb.stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.turn(b)
			}
		})
	}
}
