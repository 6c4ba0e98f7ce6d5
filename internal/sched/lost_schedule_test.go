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

// scheduleDropper loses every other ScheduleMsg the grid sends on a
// link, as a lossy downlink would, and passes every other frame. Like
// Faulty it offers no typed send, so every frame goes through Send, and
// it unwraps to the link beneath.
type scheduleDropper struct {
	v2i.Transport
	schedules int
}

func (d *scheduleDropper) Send(ctx context.Context, env v2i.Envelope) error {
	if env.Type == v2i.TypeSchedule {
		d.schedules++
		if d.schedules%2 == 0 {
			return nil
		}
	}
	return d.Transport.Send(ctx, env)
}

func (d *scheduleDropper) Unwrap() v2i.Transport { return d.Transport }

// runLossyScheduleGame plays an n-vehicle game on the links pair
// makes, with every other ScheduleMsg on each link lost when lossy.
func runLossyScheduleGame(t *testing.T, pair func() (v2i.Transport, v2i.Transport), lossy bool, n, sections int) Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	links := make(map[string]v2i.Transport, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		gridSide, vehSide := pair()
		links[id] = gridSide
		if lossy {
			links[id] = &scheduleDropper{Transport: gridSide}
		}
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
		ShutdownGrace:  200 * time.Millisecond,
		Seed:           5,
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	report, err := coord.Run(ctx)
	if err != nil {
		t.Fatalf("lossy=%v run: %v", lossy, err)
	}
	_ = coord.Close()
	wg.Wait()
	if !report.Converged {
		t.Fatalf("lossy=%v: game did not converge in %d rounds", lossy, report.Rounds)
	}
	return report
}

// TestLostScheduleCostsNoRetry: every quote carries the vehicle's
// whole background load, so a lost ScheduleMsg leaves the grid and the
// vehicle nothing to disagree about. Losing every other schedule, on
// in-memory links and on connections alike, costs no retry and no
// discarded frame, and the game lands on the clean run's rounds and
// welfare to the last bit.
func TestLostScheduleCostsNoRetry(t *testing.T) {
	const n, sections = 8, 6
	for _, tc := range []struct {
		name string
		pair func() (v2i.Transport, v2i.Transport)
	}{
		{"pair", func() (v2i.Transport, v2i.Transport) { return v2i.NewPair(64) }},
		{"pipe", v2i.NewPipePair},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := runLossyScheduleGame(t, tc.pair, false, n, sections)
			lossy := runLossyScheduleGame(t, tc.pair, true, n, sections)
			if lossy.Retries != 0 || lossy.StaleDropped != 0 {
				t.Errorf("lost schedules cost %d retries and %d stale frames, want none",
					lossy.Retries, lossy.StaleDropped)
			}
			if lossy.Rounds != clean.Rounds {
				t.Errorf("rounds: clean %d, lossy %d", clean.Rounds, lossy.Rounds)
			}
			if math.Float64bits(lossy.WelfareCost) != math.Float64bits(clean.WelfareCost) {
				t.Errorf("welfare cost: clean %v, lossy %v", clean.WelfareCost, lossy.WelfareCost)
			}
		})
	}
}
