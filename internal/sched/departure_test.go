package sched

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/v2i"
)

// TestDepartingVehicleDropped: one agent hangs up after its first
// exchanges. With DropDeparted the coordinator must recognise the
// closed link as a departure on every transport — release its power
// at once without burning retries on it, keep the rest of the fleet,
// and still converge.
func TestDepartingVehicleDropped(t *testing.T) {
	for name, pair := range map[string]func() (v2i.Transport, v2i.Transport){
		"channel-pair": func() (v2i.Transport, v2i.Transport) { return v2i.NewPair(8) },
		"binary-pipe":  func() (v2i.Transport, v2i.Transport) { return v2i.NewPipePair() },
	} {
		t.Run(name, func(t *testing.T) { testDepartingVehicleDropped(t, pair) })
	}
}

func testDepartingVehicleDropped(t *testing.T, pair func() (v2i.Transport, v2i.Transport)) {
	const n = 5
	links := make(map[string]v2i.Transport, n)
	vehicleSides := make(map[string]v2i.Transport, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		gridSide, vehicleSide := pair()
		links[id] = gridSide
		vehicleSides[id] = vehicleSide
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    6,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      1e-4,
		MaxRounds:      100,
		RoundTimeout:   200 * time.Millisecond,
		DropDeparted:   true,
	}, links)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	// Four well-behaved agents, and one quitter that hangs up its link
	// after its second schedule.
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		link := vehicleSides[id]
		if i == 0 {
			link = &hangUpAfter{Transport: link, schedules: 2}
		}
		agent, err := NewAgent(AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60,
			Satisfaction: core.LogSatisfaction{Weight: 1},
		}, link)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			_, _ = a.Run(ctx)
		}(agent)
	}

	report, err := coord.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator failed on departure: %v", err)
	}
	// Release remaining agents.
	for _, l := range links {
		_ = l.Close()
	}
	wg.Wait()

	if report.Departed != 1 {
		t.Errorf("Departed = %d, want 1", report.Departed)
	}
	if report.Retries != 0 || report.Evicted != 0 {
		t.Errorf("departure cost %d retries and %d evictions, want 0 and 0", report.Retries, report.Evicted)
	}
	if !report.Converged {
		t.Errorf("fleet did not re-converge after departure (%d rounds)", report.Rounds)
	}
	if _, stillThere := report.Requests["ev-00"]; stillThere {
		t.Error("departed vehicle still holds a schedule")
	}
	if len(report.Requests) != n-1 {
		t.Errorf("%d vehicles in final schedule, want %d", len(report.Requests), n-1)
	}
	for id, p := range report.Requests {
		if p <= 0 {
			t.Errorf("remaining vehicle %s got no power", id)
		}
	}
}

// hangUpAfter is a vehicle link that closes itself once the vehicle
// has received its schedules-th schedule: the vehicle drives off.
type hangUpAfter struct {
	v2i.Transport
	schedules int
}

func (h *hangUpAfter) Recv(ctx context.Context) (v2i.Envelope, error) {
	env, err := h.Transport.Recv(ctx)
	if err == nil && env.Type == v2i.TypeSchedule {
		if h.schedules--; h.schedules == 0 {
			_ = h.Transport.Close()
		}
	}
	return env, err
}

// TestAllVehiclesDepart: the run ends cleanly when everyone leaves.
func TestAllVehiclesDepart(t *testing.T) {
	gridSide, vehicleSide := v2i.NewPair(4)
	_ = vehicleSide.Close() // vehicle gone before the first round
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    3,
		LineCapacityKW: 50,
		Cost:           nonlinearSpec(),
		RoundTimeout:   100 * time.Millisecond,
		DropDeparted:   true,
	}, map[string]v2i.Transport{"ghost": gridSide})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	report, err := coord.Run(ctx)
	if err != nil {
		t.Fatalf("empty-fleet run failed: %v", err)
	}
	if report.Departed != 1 || len(report.Requests) != 0 {
		t.Errorf("report %+v", report)
	}
	if report.TotalPowerKW != 0 {
		t.Errorf("power %v scheduled to nobody", report.TotalPowerKW)
	}
}
