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

func nonlinearSpec() v2i.CostSpec {
	return v2i.CostSpec{
		Kind:                "nonlinear",
		BetaPerKWh:          0.02,
		Alpha:               0.875,
		LineCapacityKW:      53.55,
		OverloadKappaPerKWh: 10, // 500×β
		OverloadCapacityKW:  0.9 * 53.55,
	}
}

func TestBuildCost(t *testing.T) {
	z, err := BuildCost(nonlinearSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Below the wall: pure charging cost; above: penalty added.
	below, above := z.Marginal(40), z.Marginal(60)
	if above <= below {
		t.Error("overload penalty missing above the wall")
	}

	lin, err := BuildCost(v2i.CostSpec{Kind: "linear", BetaPerKWh: 0.015})
	if err != nil {
		t.Fatal(err)
	}
	if lin.Marginal(1) != 0.015 || lin.Marginal(100) != 0.015 {
		t.Error("linear cost not flat")
	}
}

func TestBuildCostErrors(t *testing.T) {
	bad := []v2i.CostSpec{
		{Kind: "mystery", BetaPerKWh: 0.02},
		{Kind: "nonlinear", BetaPerKWh: 0, Alpha: 0.875, LineCapacityKW: 50},
		{Kind: "nonlinear", BetaPerKWh: 0.02, Alpha: 0.875, LineCapacityKW: 0},
		{Kind: "linear", BetaPerKWh: 0},
		{Kind: "linear", BetaPerKWh: 0.02, OverloadKappaPerKWh: 1, OverloadCapacityKW: 0},
	}
	for i, spec := range bad {
		if _, err := BuildCost(spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

// launchGame wires n agents to a coordinator over in-memory pairs and
// runs both sides to completion.
func launchGame(t *testing.T, n, sections int, tol float64) (Report, []AgentResult) {
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

func TestDistributedGameConverges(t *testing.T) {
	report, results := launchGame(t, 8, 10, 1e-4)
	if !report.Converged {
		t.Fatalf("did not converge in %d rounds", report.Rounds)
	}
	if report.TotalPowerKW <= 0 {
		t.Error("no power scheduled")
	}
	for i, r := range results {
		if !r.Converged {
			t.Errorf("agent %d missed the convergence announcement", i)
		}
		if r.Rounds == 0 {
			t.Errorf("agent %d never exchanged", i)
		}
		if len(r.FinalAllocKW) != 10 {
			t.Errorf("agent %d allocation has %d sections", i, len(r.FinalAllocKW))
		}
		if r.FinalPaymentH < 0 {
			t.Errorf("agent %d negative payment %v", i, r.FinalPaymentH)
		}
	}
}

// TestDistributedMatchesInProcessGame: the wire protocol must land on
// the same equilibrium as core.Game run directly — same players, same
// cost, same tolerance.
func TestDistributedMatchesInProcessGame(t *testing.T) {
	const n, sections = 6, 8
	report, _ := launchGame(t, n, sections, 1e-6)

	cost, err := BuildCost(nonlinearSpec())
	if err != nil {
		t.Fatal(err)
	}
	players := make([]core.Player, n)
	for i := range players {
		players[i] = core.Player{
			ID:           fmt.Sprintf("ev-%02d", i),
			MaxPowerKW:   60 + float64(i%5)*8,
			Satisfaction: core.LogSatisfaction{Weight: 1 + 0.05*float64(i%4)},
		}
	}
	g, err := core.NewGame(core.Config{
		Players:        players,
		NumSections:    sections,
		LineCapacityKW: 53.55,
		Eta:            0.9,
		Cost:           cost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Run(core.RunOptions{MaxUpdates: 50000, Tolerance: 1e-8}); !res.Converged {
		t.Fatal("reference game did not converge")
	}
	s := g.Schedule()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		want := s.OLEVTotal(i)
		got := report.Requests[id]
		if math.Abs(got-want) > 0.01*(1+want) {
			t.Errorf("vehicle %s: distributed %v vs in-process %v", id, got, want)
		}
	}
	if math.Abs(report.CongestionDegree-g.CongestionDegree()) > 0.01 {
		t.Errorf("congestion: distributed %v vs in-process %v",
			report.CongestionDegree, g.CongestionDegree())
	}
}

func TestCoordinatorValidation(t *testing.T) {
	a, _ := v2i.NewPair(1)
	links := map[string]v2i.Transport{"ev": a}
	bad := []CoordinatorConfig{
		{NumSections: 0, LineCapacityKW: 50, Cost: nonlinearSpec()},
		{NumSections: 5, LineCapacityKW: 0, Cost: nonlinearSpec()},
		{NumSections: 5, LineCapacityKW: 50, Cost: v2i.CostSpec{Kind: "junk"}},
	}
	for i, cfg := range bad {
		if _, err := NewCoordinator(cfg, links); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := NewCoordinator(CoordinatorConfig{
		NumSections: 5, LineCapacityKW: 50, Cost: nonlinearSpec(),
	}, nil); err == nil {
		t.Error("empty links accepted")
	}
}

func TestAgentValidation(t *testing.T) {
	a, _ := v2i.NewPair(1)
	sat := core.LogSatisfaction{Weight: 1}
	bad := []AgentConfig{
		{VehicleID: "", MaxPowerKW: 10, Satisfaction: sat},
		{VehicleID: "x", MaxPowerKW: -1, Satisfaction: sat},
		{VehicleID: "x", MaxPowerKW: 10, Satisfaction: nil},
	}
	for i, cfg := range bad {
		if _, err := NewAgent(cfg, a); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := NewAgent(AgentConfig{VehicleID: "x", MaxPowerKW: 10, Satisfaction: sat}, nil); err == nil {
		t.Error("nil transport accepted")
	}
}

func TestCoordinatorTimesOutOnSilentAgent(t *testing.T) {
	gridSide, _ := v2i.NewPair(1)
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    4,
		LineCapacityKW: 50,
		Cost:           nonlinearSpec(),
		RoundTimeout:   50 * time.Millisecond,
	}, map[string]v2i.Transport{"ghost": gridSide})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := coord.Run(ctx); err == nil {
		t.Error("silent agent should fail the round")
	}
}

func TestTCPEndToEnd(t *testing.T) {
	srv, err := v2i.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const n = 4
	results := make([]AgentResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunTCP(ctx, srv.Addr(), AgentConfig{
				VehicleID:    fmt.Sprintf("tcp-ev-%d", i),
				MaxPowerKW:   50,
				Satisfaction: core.LogSatisfaction{Weight: 1},
				VelocityMS:   26.8,
				SOC:          0.4,
			})
		}(i)
	}

	links, err := CollectHellos(ctx, srv, n, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    6,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      1e-4,
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	report, err := coord.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("agent %d: %v", i, e)
		}
	}
	if !report.Converged {
		t.Errorf("TCP game did not converge in %d rounds", report.Rounds)
	}
	for i, r := range results {
		if r.FinalRequestKW <= 0 {
			t.Errorf("agent %d final request %v", i, r.FinalRequestKW)
		}
	}
}

// TestDrawCapTravelsTheWire: an agent with an Eq. (3) coupling limit
// must end up with a schedule honoring it on the coordinator side.
func TestDrawCapTravelsTheWire(t *testing.T) {
	gridSide, vehicleSide := v2i.NewPair(8)
	agent, err := NewAgent(AgentConfig{
		VehicleID:        "capped",
		MaxPowerKW:       60,
		Satisfaction:     core.LogSatisfaction{Weight: 5},
		MaxSectionDrawKW: 2.5,
	}, vehicleSide)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    6,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      1e-5,
	}, map[string]v2i.Transport{"capped": gridSide})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var agentRes AgentResult
	var agentErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		agentRes, agentErr = agent.Run(ctx)
	}()
	report, err := coord.Run(ctx)
	wg.Wait()
	if err != nil || agentErr != nil {
		t.Fatalf("coordinator %v, agent %v", err, agentErr)
	}
	if got := report.Requests["capped"]; got > 6*2.5+1e-9 {
		t.Errorf("total %v exceeds allocatable 15", got)
	}
	for c, a := range agentRes.FinalAllocKW {
		if a > 2.5+1e-9 {
			t.Errorf("section %d draw %v exceeds the wire-carried cap", c, a)
		}
	}
	// The demand is eager (weight 5), so the cap actually binds.
	if got := report.Requests["capped"]; math.Abs(got-15) > 0.1 {
		t.Errorf("total %v; expected the cap to bind near 15", got)
	}
}

// TestStaleReplyFieldsDoNotLeak: a discarded reply must not lend its
// fields to the accepted one. The scripted vehicle answers its first
// quote with a stale-epoch request carrying a per-section draw cap,
// then with a fresh request that has none; the coordinator must
// install the uncapped water-fill of the fresh request.
func TestStaleReplyFieldsDoNotLeak(t *testing.T) {
	const totalKW = 30
	gridSide, vehicleSide := v2i.NewPair(8)
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    6,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      1e-6,
		MaxRounds:      5,
	}, map[string]v2i.Transport{"ev": gridSide})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var firstQuote v2i.Quote
	var firstAlloc []float64
	var seq uint64
	send := func(req v2i.Request) error {
		seq++
		return v2i.SendMsg(ctx, vehicleSide, v2i.TypeRequest, "ev", seq, &req)
	}
	peer := make(chan error, 1)
	go func() {
		peer <- func() error {
			for {
				env, err := vehicleSide.Recv(ctx)
				if err != nil {
					return nil // the link closes after the run
				}
				switch env.Type {
				case v2i.TypeQuote:
					var q v2i.Quote
					if err := v2i.Open(env, v2i.TypeQuote, &q); err != nil {
						return err
					}
					fresh := v2i.Request{VehicleID: "ev", TotalKW: totalKW, Round: q.Round, Epoch: q.Epoch}
					if firstQuote.Cost.Kind == "" {
						firstQuote = q
						stale := fresh
						stale.Epoch, stale.DrawCapKW = q.Epoch+100, 1
						if err := send(stale); err != nil {
							return err
						}
					}
					if err := send(fresh); err != nil {
						return err
					}
				case v2i.TypeSchedule:
					var msg v2i.ScheduleMsg
					if err := v2i.Open(env, v2i.TypeSchedule, &msg); err != nil {
						return err
					}
					if firstAlloc == nil {
						firstAlloc = msg.AllocKW
					}
				case v2i.TypeBye:
					return nil
				}
			}
		}()
	}()
	report, err := coord.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_ = gridSide.Close()
	if err := <-peer; err != nil {
		t.Fatalf("scripted vehicle: %v", err)
	}
	if report.StaleDropped == 0 {
		t.Fatal("the stale-epoch request was not dropped")
	}
	want, _ := core.WaterFill(firstQuote.Others, totalKW)
	if len(firstAlloc) != len(want) {
		t.Fatalf("installed row %v, want uncapped water-fill %v", firstAlloc, want)
	}
	for s := range want {
		if math.Float64bits(firstAlloc[s]) != math.Float64bits(want[s]) {
			t.Fatalf("installed row %v, want uncapped water-fill %v", firstAlloc, want)
		}
	}
}

func TestCollectHellosRejectsDuplicates(t *testing.T) {
	srv, err := v2i.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	for i := 0; i < 2; i++ {
		go func() {
			link, err := v2i.Dial(ctx, srv.Addr())
			if err != nil {
				return
			}
			env, err := v2i.Seal(v2i.TypeHello, "dup", 1, v2i.Hello{VehicleID: "dup"})
			if err != nil {
				return
			}
			_ = link.Send(ctx, env)
			// Keep the link open until the test finishes.
			_, _ = link.Recv(ctx)
		}()
	}
	if _, err := CollectHellos(ctx, srv, 2, 5*time.Second); err == nil {
		t.Error("duplicate vehicle IDs accepted")
	}
}
