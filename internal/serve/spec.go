package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"olevgrid/internal/scenario"
)

// Limits on what one admin request may ask for. The admin API is an
// untrusted boundary (anything that can reach the port can POST), so
// every numeric field is range-checked before a single goroutine is
// spawned on its behalf.
const (
	// MaxAdminBytes bounds one admin request body.
	MaxAdminBytes = 1 << 20
	// MaxFleet bounds one session's vehicle count.
	MaxFleet = 1024
	// MaxSections bounds one session's charging-section count.
	MaxSections = 4096
	// MaxRoundsCeiling bounds the per-session iteration budget.
	MaxRoundsCeiling = 100_000
	// MaxMeanFieldFleet bounds a mean-field session's vehicle count.
	// The aggregated tier solves a fixed-size macro game and streams
	// the disaggregation, so its ceiling is set by O(N) clustering
	// memory, not by goroutines — MaxFleet guards the per-vehicle
	// agent path, this guards the aggregated one.
	MaxMeanFieldFleet = 2_000_000
	// MaxMeanFieldClusters bounds the population budget K.
	MaxMeanFieldClusters = 4096
)

// SolverMeanField routes a session through the aggregated population
// tier (internal/meanfield) instead of the per-vehicle control plane.
// The spec string matches pricing.SolverMeanField.
const SolverMeanField = "meanfield"

// SessionSpec is the admin API's create-session request: one
// per-arterial pricing game of the source paper, described completely
// enough for the daemon to run it — and, after a crash, to re-run it —
// without any other state. The zero value of every optional field
// means "server default".
type SessionSpec struct {
	// ID names the session; empty lets the server assign one. A
	// caller-supplied ID makes create idempotent-ish: a duplicate ID is
	// rejected rather than double-admitted.
	ID string `json:"id,omitempty"`

	// Scenario names a registered city archetype
	// (internal/scenario.Names) to size the session from: the server
	// expands it into explicit vehicles/sections/capacity/price/outage
	// fields at create, so the persisted manifest is always fully
	// explicit and resumes without consulting the registry. Names only
	// at this boundary — the admin API never opens scenario files.
	// Setting it alongside any of the fields it would fill (vehicles,
	// sections, line_capacity_kw, beta_per_kwh, outages) is a conflict
	// and rejected; seed and the runtime knobs (tolerance, rounds,
	// parallelism, chaos, churn, …) remain caller overrides.
	Scenario string `json:"scenario,omitempty"`
	// FromScenario records, informationally, which archetype an
	// expanded spec came from. Server-written; harmless if a caller
	// sets it.
	FromScenario string `json:"from_scenario,omitempty"`

	// Vehicles is the fleet size N (required, 1..MaxFleet).
	Vehicles int `json:"vehicles"`
	// Sections is the arterial's charging-section count C (required,
	// 1..MaxSections).
	Sections int `json:"sections"`
	// LineCapacityKW is P_line per section; zero means 53.55 (the
	// paper's 70 kW WPT lane derated by its η).
	LineCapacityKW float64 `json:"line_capacity_kw,omitempty"`
	// BetaPerKWh and Alpha parameterize the nonlinear pricing policy;
	// zero means the paper defaults (0.02, 0.875).
	BetaPerKWh float64 `json:"beta_per_kwh,omitempty"`
	Alpha      float64 `json:"alpha,omitempty"`
	// MaxPowerKW is each vehicle's Eq. (2) ceiling; zero means 60.
	MaxPowerKW float64 `json:"max_power_kw,omitempty"`
	// Tolerance and MaxRounds bound the iteration; zero means 1e-4 and
	// 300.
	Tolerance float64 `json:"tolerance,omitempty"`
	MaxRounds int     `json:"max_rounds,omitempty"`
	// Seed drives the session's visit order, weights, and chaos plan.
	Seed int64 `json:"seed,omitempty"`
	// Parallelism batches vehicle quotes within a round (see
	// sched.CoordinatorConfig.Parallelism); 0 keeps the sequential
	// dynamics.
	Parallelism int `json:"parallelism,omitempty"`

	// HelloDelayMS models fleet assembly: the session holds its
	// admission slot this long before the first quote goes out, the
	// way a TCP deployment waits for vehicles to dial in and Hello.
	HelloDelayMS int `json:"hello_delay_ms,omitempty"`
	// MaxWallMS bounds the whole session's wall clock; zero means the
	// server default. A session that exhausts it is failed and its
	// slot reclaimed — one stalled fleet can never pin capacity.
	MaxWallMS int `json:"max_wall_ms,omitempty"`

	// Chaos arms seeded v2i fault injection on every link.
	Chaos ChaosSpec `json:"chaos,omitempty"`

	// JoinAtRound admits one extra vehicle mid-run at that round
	// boundary; LeaveAtRound closes one vehicle's link at that round
	// (mid-run churn, as in Tushar et al.'s dynamic EV population).
	// Zero disables either.
	JoinAtRound  int `json:"join_at_round,omitempty"`
	LeaveAtRound int `json:"leave_at_round,omitempty"`

	// Outages scripts charging-section failures and restorations by
	// round boundary, mapped onto the coordinator's outage machinery
	// (sched.CoordinatorConfig.Outages). Per-vehicle solver only: the
	// aggregated tier has no round boundaries to script against.
	Outages []OutageSpec `json:"outages,omitempty"`

	// Solver selects the session's engine: "" or "exact" runs the
	// per-vehicle control plane (one agent per OLEV over v2i);
	// "meanfield" runs the aggregated population tier in
	// process, which lifts the fleet ceiling to MaxMeanFieldFleet but
	// forgoes the per-vehicle transport — so chaos injection and
	// mid-run churn are rejected for it.
	Solver string `json:"solver,omitempty"`
	// Clusters is the mean-field population budget K; zero means the
	// tier default. Only meaningful with solver "meanfield".
	Clusters int `json:"clusters,omitempty"`
}

// OutageSpec scripts one charging section's failure and optional
// restoration by round (1-based; up_round 0 means never restored),
// mirroring sched.SectionOutage at the JSON boundary.
type OutageSpec struct {
	Section   int `json:"section"`
	DownRound int `json:"down_round"`
	UpRound   int `json:"up_round,omitempty"`
}

// ChaosSpec is the per-session fault plan applied to each v2i link.
type ChaosSpec struct {
	// DropRate, DuplicateRate, ReorderRate are per-frame probabilities
	// in [0,1).
	DropRate      float64 `json:"drop_rate,omitempty"`
	DuplicateRate float64 `json:"duplicate_rate,omitempty"`
	ReorderRate   float64 `json:"reorder_rate,omitempty"`
	// MaxDelayMS delays each delivered frame uniformly in [0, that].
	MaxDelayMS int `json:"max_delay_ms,omitempty"`
}

// enabled reports whether any fault is armed.
func (c ChaosSpec) enabled() bool {
	return c.DropRate > 0 || c.DuplicateRate > 0 || c.ReorderRate > 0 || c.MaxDelayMS > 0
}

// DecodeSessionSpec is the single untrusted-input gate for the admin
// API (and its fuzz target): bounded size, strict JSON, and full
// range validation. It never panics on any input.
func DecodeSessionSpec(raw []byte) (SessionSpec, error) {
	if len(raw) > MaxAdminBytes {
		return SessionSpec{}, fmt.Errorf("serve: request %d bytes exceeds %d", len(raw), MaxAdminBytes)
	}
	var spec SessionSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return SessionSpec{}, fmt.Errorf("serve: decode session spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return SessionSpec{}, err
	}
	return spec, nil
}

// Validate reports the first problem with the spec.
func (s SessionSpec) Validate() error {
	if len(s.ID) > 128 {
		return fmt.Errorf("serve: session ID %d chars exceeds 128", len(s.ID))
	}
	// The ID names journal files, so it must be a plain path segment:
	// no separators, no traversal, nothing a filesystem could
	// reinterpret.
	for _, r := range s.ID {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: session ID contains %q; use [A-Za-z0-9._-]", r)
		}
	}
	if s.ID == "." || s.ID == ".." {
		return fmt.Errorf("serve: session ID %q reserved", s.ID)
	}
	if s.Scenario != "" {
		// A scenario reference is a registered name, never a path: the
		// charset check (no separators, no dots) rejects traversal
		// before the registry lookup says whether the name exists.
		if err := scenario.ValidateName(s.Scenario); err != nil {
			return fmt.Errorf("serve: scenario: %w", err)
		}
		if _, ok := scenario.Get(s.Scenario); !ok {
			return fmt.Errorf("serve: unknown scenario %q (registered: %s)",
				s.Scenario, strings.Join(scenario.Names(), ", "))
		}
		if s.Vehicles != 0 || s.Sections != 0 || s.LineCapacityKW != 0 ||
			s.BetaPerKWh != 0 || len(s.Outages) != 0 {
			return fmt.Errorf("serve: scenario %q conflicts with explicit vehicles/sections/line_capacity_kw/beta_per_kwh/outages", s.Scenario)
		}
		if s.Solver == SolverMeanField {
			return fmt.Errorf("serve: scenario requires the per-vehicle solver")
		}
	}
	switch s.Solver {
	case "", "exact":
		if s.Clusters != 0 {
			return fmt.Errorf("serve: clusters %d set without solver %q", s.Clusters, SolverMeanField)
		}
		if s.Scenario == "" && (s.Vehicles < 1 || s.Vehicles > MaxFleet) {
			return fmt.Errorf("serve: vehicles %d outside [1, %d]", s.Vehicles, MaxFleet)
		}
	case SolverMeanField:
		if s.Vehicles < 1 || s.Vehicles > MaxMeanFieldFleet {
			return fmt.Errorf("serve: mean-field vehicles %d outside [1, %d]", s.Vehicles, MaxMeanFieldFleet)
		}
		if s.Clusters < 0 || s.Clusters > MaxMeanFieldClusters {
			return fmt.Errorf("serve: clusters %d outside [0, %d]", s.Clusters, MaxMeanFieldClusters)
		}
		// The aggregated tier has no per-vehicle links: nothing to
		// fault-inject, nothing to churn.
		if s.Chaos.enabled() {
			return fmt.Errorf("serve: chaos requires the per-vehicle solver")
		}
		if s.JoinAtRound != 0 || s.LeaveAtRound != 0 {
			return fmt.Errorf("serve: mid-run churn requires the per-vehicle solver")
		}
	default:
		return fmt.Errorf("serve: unknown solver %q", s.Solver)
	}
	if s.Scenario == "" && (s.Sections < 1 || s.Sections > MaxSections) {
		return fmt.Errorf("serve: sections %d outside [1, %d]", s.Sections, MaxSections)
	}
	if len(s.Outages) > MaxSections {
		return fmt.Errorf("serve: %d outages exceed %d", len(s.Outages), MaxSections)
	}
	for _, o := range s.Outages {
		if s.Solver == SolverMeanField {
			return fmt.Errorf("serve: outages require the per-vehicle solver")
		}
		if o.Section < 0 || o.Section >= s.Sections {
			return fmt.Errorf("serve: outage section %d outside [0, %d)", o.Section, s.Sections)
		}
		if o.DownRound < 1 || o.DownRound > MaxRoundsCeiling {
			return fmt.Errorf("serve: outage down_round %d outside [1, %d]", o.DownRound, MaxRoundsCeiling)
		}
		if o.UpRound != 0 && o.UpRound <= o.DownRound {
			return fmt.Errorf("serve: outage up_round %d not after down_round %d", o.UpRound, o.DownRound)
		}
		if o.UpRound > MaxRoundsCeiling {
			return fmt.Errorf("serve: outage up_round %d exceeds %d", o.UpRound, MaxRoundsCeiling)
		}
	}
	for name, v := range map[string]float64{
		"line_capacity_kw": s.LineCapacityKW,
		"beta_per_kwh":     s.BetaPerKWh,
		"alpha":            s.Alpha,
		"max_power_kw":     s.MaxPowerKW,
		"tolerance":        s.Tolerance,
	} {
		if v < 0 || !finite(v) {
			return fmt.Errorf("serve: %s %v invalid", name, v)
		}
	}
	if s.Alpha >= 1 {
		return fmt.Errorf("serve: alpha %v must be below 1", s.Alpha)
	}
	if s.MaxRounds < 0 || s.MaxRounds > MaxRoundsCeiling {
		return fmt.Errorf("serve: max_rounds %d outside [0, %d]", s.MaxRounds, MaxRoundsCeiling)
	}
	if s.Parallelism < 0 || s.Parallelism > MaxFleet {
		return fmt.Errorf("serve: parallelism %d outside [0, %d]", s.Parallelism, MaxFleet)
	}
	if s.HelloDelayMS < 0 || s.HelloDelayMS > 600_000 {
		return fmt.Errorf("serve: hello_delay_ms %d outside [0, 600000]", s.HelloDelayMS)
	}
	if s.MaxWallMS < 0 || s.MaxWallMS > 3_600_000 {
		return fmt.Errorf("serve: max_wall_ms %d outside [0, 3600000]", s.MaxWallMS)
	}
	for name, r := range map[string]float64{
		"drop_rate":      s.Chaos.DropRate,
		"duplicate_rate": s.Chaos.DuplicateRate,
		"reorder_rate":   s.Chaos.ReorderRate,
	} {
		if r < 0 || r >= 1 || !finite(r) {
			return fmt.Errorf("serve: chaos %s %v outside [0, 1)", name, r)
		}
	}
	if s.Chaos.MaxDelayMS < 0 || s.Chaos.MaxDelayMS > 60_000 {
		return fmt.Errorf("serve: chaos max_delay_ms %d outside [0, 60000]", s.Chaos.MaxDelayMS)
	}
	if s.JoinAtRound < 0 || s.JoinAtRound > MaxRoundsCeiling {
		return fmt.Errorf("serve: join_at_round %d invalid", s.JoinAtRound)
	}
	if s.LeaveAtRound < 0 || s.LeaveAtRound > MaxRoundsCeiling {
		return fmt.Errorf("serve: leave_at_round %d invalid", s.LeaveAtRound)
	}
	if s.LeaveAtRound > 0 && s.Vehicles < 2 {
		return fmt.Errorf("serve: leave_at_round needs at least 2 vehicles")
	}
	return nil
}

// expandScenario resolves a scenario-named spec into a fully explicit
// one: sizing, capacity, price, and scripted outages come from the
// archetype's session compilation; the caller's seed (when set) and
// every runtime knob stay as overrides. The expanded spec carries
// from_scenario for observability and re-validates as a plain explicit
// spec, so persisted manifests resume without the registry.
func (s SessionSpec) expandScenario() (SessionSpec, error) {
	if s.Scenario == "" {
		return s, nil
	}
	sc, ok := scenario.Get(s.Scenario)
	if !ok {
		return s, fmt.Errorf("serve: unknown scenario %q", s.Scenario)
	}
	p, err := sc.SessionParams()
	if err != nil {
		return s, fmt.Errorf("serve: scenario %q: %w", s.Scenario, err)
	}
	s.Vehicles = p.Vehicles
	s.Sections = p.Sections
	s.LineCapacityKW = p.LineCapacityKW
	s.BetaPerKWh = p.BetaPerKWh
	if s.Seed == 0 {
		s.Seed = p.Seed
	}
	for _, o := range p.Outages {
		s.Outages = append(s.Outages, OutageSpec{
			Section: o.Section, DownRound: o.DownRound, UpRound: o.UpRound,
		})
	}
	s.FromScenario = s.Scenario
	s.Scenario = ""
	if err := s.Validate(); err != nil {
		return s, fmt.Errorf("serve: scenario %q expands invalid: %w", s.FromScenario, err)
	}
	return s, nil
}

// withDefaults fills server defaults into zero fields.
func (s SessionSpec) withDefaults(defaultWall time.Duration) SessionSpec {
	if s.LineCapacityKW == 0 {
		s.LineCapacityKW = 53.55
	}
	if s.BetaPerKWh == 0 {
		s.BetaPerKWh = 0.02
	}
	if s.Alpha == 0 {
		s.Alpha = 0.875
	}
	if s.MaxPowerKW == 0 {
		s.MaxPowerKW = 60
	}
	if s.Tolerance == 0 {
		s.Tolerance = 1e-4
	}
	if s.MaxRounds == 0 {
		s.MaxRounds = 300
	}
	if s.MaxWallMS == 0 {
		s.MaxWallMS = int(defaultWall / time.Millisecond)
	}
	return s
}

func finite(v float64) bool {
	return v == v && v < 1e308 && v > -1e308
}
