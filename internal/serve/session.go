// Package serve is the service layer over the repo's game engine: a
// long-lived daemon core that hosts many concurrent pricing-game
// sessions (one per arterial/fleet, exactly the per-arterial games of
// the source paper) behind admission control, backpressure, graceful
// drain, and crash-restart. cmd/olevgridd wraps it in a process;
// cmd/olevgrid-load proves its SLOs under load and chaos. See
// DESIGN.md §12 for the session lifecycle state machine and the
// admission/drain policies.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/sched"
	"olevgrid/internal/v2i"
)

// State is one session's lifecycle position. Transitions:
//
//	pending ──► running ──► done        (converged)
//	   │           │  ├───► failed      (no convergence / wall budget)
//	   │           │  ├───► canceled    (admin DELETE)
//	   │           │  └───► interrupted (drain: checkpointed, resumable)
//	   └──────────►┘ (fleet assembled)
//
// pending and running are the non-terminal states that occupy a table
// slot and a solver token; the other four are terminal and release
// both. A resumed session starts a fresh pending→… walk with
// Resumed=true.
type State string

// The session lifecycle states.
const (
	StatePending     State = "pending"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state releases the session's slot.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateInterrupted:
		return true
	}
	return false
}

// Cancellation causes, distinguished via context.Cause so the runner
// can tell an admin cancel from a drain force from a wall timeout.
var (
	errCanceled = errors.New("serve: session canceled")
	errDrained  = errors.New("serve: session drained")
)

// Session is one hosted pricing game.
type Session struct {
	// ID is the session's table key.
	ID string
	// Resumed marks a session re-admitted from a journal scan.
	Resumed bool

	spec   SessionSpec
	cancel context.CancelCauseFunc

	// takeover, when non-nil, warm-starts the coordinator from a
	// scanned checkpoint via sched.ResumeCoordinator.
	takeover *sched.Takeover

	mu         sync.Mutex
	state      State
	errMsg     string
	report     sched.Report
	mfClusters int // populations formed by a mean-field session
	created    time.Time
	solveStart time.Time
	solveEnd   time.Time
}

// View is the admin API's JSON projection of a session.
type View struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Resumed  bool   `json:"resumed,omitempty"`
	Error    string `json:"error,omitempty"`
	Vehicles int    `json:"vehicles"`
	Sections int    `json:"sections"`
	// Scenario is the archetype the session's spec was expanded from,
	// when it was created by name.
	Scenario string `json:"scenario,omitempty"`
	// Solver and Clusters surface the mean-field tier: which engine
	// ran the session and how many populations the fleet aggregated
	// into (zero for per-vehicle sessions).
	Solver   string `json:"solver,omitempty"`
	Clusters int    `json:"clusters,omitempty"`

	Rounds           int     `json:"rounds,omitempty"`
	Converged        bool    `json:"converged,omitempty"`
	CongestionDegree float64 `json:"congestion_degree,omitempty"`
	TotalPowerKW     float64 `json:"total_power_kw,omitempty"`
	Departed         int     `json:"departed,omitempty"`
	Joined           int     `json:"joined,omitempty"`
	Evicted          int     `json:"evicted,omitempty"`
	Retries          int     `json:"retries,omitempty"`
	StaleDropped     int     `json:"stale_dropped,omitempty"`

	SolveMS     float64 `json:"solve_ms,omitempty"`
	RoundMS     float64 `json:"round_ms,omitempty"`
	CreatedUnix int64   `json:"created_unix,omitempty"`
}

// View snapshots the session for the admin API.
func (s *Session) View() View {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := View{
		ID:       s.ID,
		State:    s.state,
		Resumed:  s.Resumed,
		Error:    s.errMsg,
		Vehicles: s.spec.Vehicles,
		Sections: s.spec.Sections,
		Scenario: s.spec.FromScenario,
		Solver:   s.spec.Solver,
		Clusters: s.mfClusters,
		Rounds:   s.report.Rounds,

		Converged:        s.report.Converged,
		CongestionDegree: s.report.CongestionDegree,
		TotalPowerKW:     s.report.TotalPowerKW,
		Departed:         s.report.Departed,
		Joined:           s.report.Joined,
		Evicted:          s.report.Evicted,
		Retries:          s.report.Retries,
		StaleDropped:     s.report.StaleDropped,
		CreatedUnix:      s.created.Unix(),
	}
	if !s.solveStart.IsZero() && !s.solveEnd.IsZero() {
		v.SolveMS = float64(s.solveEnd.Sub(s.solveStart)) / float64(time.Millisecond)
		if s.report.Rounds > 0 {
			v.RoundMS = v.SolveMS / float64(s.report.Rounds)
		}
	}
	return v
}

// StateNow returns the current lifecycle state.
func (s *Session) StateNow() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

func (s *Session) setState(st State) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

// Cancel asks the session to stop; terminal states are unaffected.
func (s *Session) Cancel() {
	s.cancel(errCanceled)
}

// fleet is a session's in-process vehicle population: one agent per
// OLEV, optionally behind a seeded fault injector on both ends of its
// link — the same protocol stack and chaos plans the acceptance suites
// use. Each agent answers inline, on the goroutine that sends it a
// frame, so a session is one coordinator goroutine (plus the
// collectors of a batched round) and no goroutine per vehicle.
type fleet struct {
	links map[string]v2i.Transport
	raw   []v2i.Transport
}

// weight gives vehicle i its satisfaction weight — the same mild
// heterogeneity the chaos suites use.
func weight(i int) float64 { return 1 + 0.06*float64(i%5) }

// chaosFor builds the per-link fault plan for link index i.
func chaosFor(spec SessionSpec, i int) v2i.FaultConfig {
	return v2i.FaultConfig{
		DropRate:      spec.Chaos.DropRate,
		DuplicateRate: spec.Chaos.DuplicateRate,
		ReorderRate:   spec.Chaos.ReorderRate,
		MaxDelay:      time.Duration(spec.Chaos.MaxDelayMS) * time.Millisecond,
		Seed:          spec.Seed + int64(i),
	}
}

// fleetLinkBuffer sizes the inbox of a fleet vehicle's inline link:
// the vehicle's replies waiting for the coordinator's next Recv. Grid
// frames need no buffer, because the grid's Send runs the agent's
// handler before it returns, and once the agent has stopped (at the
// first Bye it reads) the link swallows them, so the farewell Byes
// never wait on the coordinator's ShutdownGrace. The vehicle sends one
// request per fresh quote; the chaos injector may duplicate it and
// release one earlier request it held back to reorder, so at most three
// frames arrive per quote. The coordinator's Recv drains them in order
// up to the one it accepts, which leaves at most two behind for the
// next quote's Recv to discard first: at most five wait at once, and
// eight slots (~0.7 KB per vehicle) never drop a reply. A reply that
// found the inbox full would count as lost.
const fleetLinkBuffer = 8

// launchVehicle builds one agent bound to an inline pair and returns
// the grid-side transport; it starts no goroutine.
func (f *fleet) launchVehicle(spec SessionSpec, id string, i int) (v2i.Transport, error) {
	inline, vehicleSide := v2i.NewInlinePair(fleetLinkBuffer)
	f.raw = append(f.raw, inline)
	var gl, vl v2i.Transport = inline, vehicleSide
	if spec.Chaos.enabled() {
		gl = v2i.NewFaulty(gl, chaosFor(spec, i))
		vl = v2i.NewFaulty(vl, chaosFor(spec, 10_000+i))
	}
	// The session keeps no AgentResult and arms no agent Metrics, so
	// degraded-mode autonomy would change nothing anyone observes.
	agent, err := sched.NewAgent(sched.AgentConfig{
		VehicleID:    id,
		MaxPowerKW:   spec.MaxPowerKW,
		Satisfaction: core.LogSatisfaction{Weight: weight(i)},
	}, vl)
	if err != nil {
		return nil, err
	}
	inline.Bind(agent.Handler(new(sched.AgentResult)))
	return gl, nil
}

// newFleet assembles the session's initial fleet.
func newFleet(spec SessionSpec) (*fleet, error) {
	f := &fleet{links: make(map[string]v2i.Transport, spec.Vehicles)}
	for i := 0; i < spec.Vehicles; i++ {
		id := fmt.Sprintf("ev-%03d", i)
		gl, err := f.launchVehicle(spec, id, i)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.links[id] = gl
	}
	return f, nil
}

// stop closes every raw link.
func (f *fleet) stop() {
	for _, l := range f.raw {
		_ = l.Close()
	}
}

// coordinatorConfig maps a session spec onto the control plane's
// hardened configuration: bounded per-exchange deadlines, skip +
// evict so one stalled vehicle can never stall the session, departure
// handling for churn, and per-session journaling when the server is
// durable.
func coordinatorConfig(spec SessionSpec, journal sched.Journal, metrics *sched.Metrics) sched.CoordinatorConfig {
	cfg := sched.CoordinatorConfig{
		NumSections:    spec.Sections,
		LineCapacityKW: spec.LineCapacityKW,
		Cost: v2i.CostSpec{
			Kind:                "nonlinear",
			BetaPerKWh:          spec.BetaPerKWh,
			Alpha:               spec.Alpha,
			LineCapacityKW:      spec.LineCapacityKW,
			OverloadKappaPerKWh: 10,
			OverloadCapacityKW:  0.9 * spec.LineCapacityKW,
		},
		Tolerance:        spec.Tolerance,
		MaxRounds:        spec.MaxRounds,
		RoundTimeout:     100 * time.Millisecond,
		MaxRetries:       8,
		RetryBackoff:     2 * time.Millisecond,
		SkipUnresponsive: true,
		DropDeparted:     true,
		EvictAfter:       12,
		Parallelism:      spec.Parallelism,
		Seed:             spec.Seed,
		ShutdownGrace:    250 * time.Millisecond,
		Journal:          journal,
		Metrics:          metrics,
	}
	for _, o := range spec.Outages {
		cfg.Outages = append(cfg.Outages, sched.SectionOutage{
			Section: o.Section, DownRound: o.DownRound, UpRound: o.UpRound,
		})
	}
	if journal != nil {
		cfg.CheckpointEvery = 2
	}
	return cfg
}
