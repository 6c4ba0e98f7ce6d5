// Distributed V2I: the Section IV-D framework as an actual distributed
// system — a smart-grid coordinator listening on localhost TCP and ten
// OLEV agents, each holding its private satisfaction function,
// converging to the socially optimal schedule over the wire. An
// eleventh vehicle arrives after the session is set up and joins the
// running iteration through the coordinator's membership queue, and
// the converged schedule is journaled as the grid's last-known-good.
//
// The run also demonstrates coordinator failover: the primary crashes
// a few rounds in, the vehicles (degraded-mode autonomy armed) hold a
// local proportional-fair setpoint through the gap, and a standby
// observes the lapsed lease, fences itself above the dead primary's
// epoch, warm-starts from the journaled checkpoint, and finishes the
// session over the same connections.
package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"olevgrid"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributed_v2i:", err)
		os.Exit(1)
	}
}

func run() error {
	const fleet = 10
	const sections = 8
	lineCap := olevgrid.LineCapacityKW(olevgrid.Meters(15), olevgrid.MPH(60))

	srv, err := olevgrid.ListenV2I("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	fmt.Printf("smart grid listening on %s\n", srv.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Launch the vehicles. Their satisfaction functions never cross
	// the wire — only quotes and power requests do.
	_, players, err := olevgrid.BuildFleet(olevgrid.FleetConfig{
		N: fleet + 1, Velocity: olevgrid.MPH(60), Seed: 1,
	})
	if err != nil {
		return err
	}
	results := make([]olevgrid.AgentResult, len(players))
	errs := make([]error, len(players))
	var wg sync.WaitGroup
	launch := func(i int) {
		p := players[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = olevgrid.RunAgentTCP(ctx, srv.Addr(), olevgrid.AgentConfig{
				VehicleID:    p.ID,
				MaxPowerKW:   p.MaxPowerKW,
				Satisfaction: p.Satisfaction,
				VelocityMS:   olevgrid.MPH(60).MPS(),
				// Autonomy: survive the failover gap on a local
				// proportional-fair setpoint instead of blocking.
				Autonomy: &olevgrid.AutonomyConfig{QuoteDeadline: 250 * time.Millisecond},
			})
		}()
	}
	for i := 0; i < fleet; i++ {
		launch(i)
	}

	// The smart grid accepts registrations, then drives the
	// asynchronous best-response rounds with the resilience layer on:
	// retries with backoff mask lost frames, departed vehicles release
	// their power, and the converged schedule is journaled.
	links, err := olevgrid.CollectHellos(ctx, srv, fleet, 10*time.Second)
	if err != nil {
		return err
	}
	journal := olevgrid.NewMemJournal()
	lease := olevgrid.NewMemLease()
	primCtx, crash := context.WithCancel(ctx)
	defer crash()
	cfg := olevgrid.CoordinatorConfig{
		NumSections:    sections,
		LineCapacityKW: lineCap,
		Cost: olevgrid.CostSpec{
			Kind:                "nonlinear",
			BetaPerKWh:          0.02,
			Alpha:               0.875,
			LineCapacityKW:      lineCap,
			OverloadKappaPerKWh: 10,
			OverloadCapacityKW:  0.9 * lineCap,
		},
		MaxRetries:       4,
		RetryBackoff:     5 * time.Millisecond,
		SkipUnresponsive: true,
		DropDeparted:     true,
		EvictAfter:       8,
		Journal:          journal,
		CheckpointEvery:  1,
		Lease:            lease,
		LeaseTTL:         100 * time.Millisecond,
		InstanceID:       "grid-primary",
		HeartbeatEvery:   2,
		OnRound: func(round int) {
			if round == 3 {
				crash() // scripted mid-iteration crash of the primary
			}
		},
	}
	coord, err := olevgrid.NewCoordinator(cfg, links)
	if err != nil {
		return err
	}
	defer func() { _ = coord.Close() }()

	// The eleventh OLEV shows up late: it dials in like any other and
	// is queued to enter the iteration at the next round boundary.
	launch(fleet)
	late, err := olevgrid.CollectHellos(ctx, srv, 1, 10*time.Second)
	if err != nil {
		return err
	}
	for id, link := range late {
		if err := coord.Join(id, link); err != nil {
			return err
		}
	}

	report, err := coord.Run(primCtx)
	if err != nil && ctx.Err() == nil {
		// The primary is gone mid-iteration. Vehicles ride out the gap
		// on their autonomy fallback; the standby then claims the lapsed
		// lease, fenced above the primary's epoch, and resumes from the
		// checkpoint over the same accepted connections.
		fmt.Printf("primary crashed mid-run: %v\n", err)
		time.Sleep(200 * time.Millisecond)
		standby, take, serr := olevgrid.Failover(cfg, links, "grid-standby", time.Now())
		if serr != nil {
			return serr
		}
		fmt.Printf("standby took over: epoch fence %d, warm-start=%v\n",
			take.Epoch, standby.Restored())
		coord = standby
		report, err = standby.Run(ctx)
	}
	if err != nil {
		return err
	}
	_ = coord.Close()
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("agent %d: %w", i, e)
		}
	}

	fmt.Printf("converged=%v after %d rounds, congestion %.3f, total %.1f kW\n",
		report.Converged, report.Rounds, report.CongestionDegree, report.TotalPowerKW)
	fmt.Printf("joined mid-run: %d, checkpoint saved: %v, final epoch: %d\n",
		report.Joined, report.CheckpointSaved, report.FinalEpoch)
	ids := make([]string, 0, len(report.Requests))
	for id := range report.Requests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("  %s: %.2f kW\n", id, report.Requests[id])
	}
	return nil
}
