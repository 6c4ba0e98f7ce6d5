// Package olevgrid reproduces "Opportunistic Energy Sharing Between
// Power Grid and Electric Vehicles: A Game Theory-Based Pricing
// Policy" (Sarker, Li, Kolodzey, Shen — ICDCS 2017) as a Go library.
//
// The package is a facade over the implementation packages:
//
//   - the pricing game of Section IV (water-filling schedules,
//     cost-difference payments, asynchronous best response) —
//     internal/core and internal/pricing;
//   - the decentralized V2I protocol of Section IV-D over in-memory or
//     TCP transports — internal/sched and internal/v2i;
//   - the substrates: a Krauss-model traffic simulator standing in for
//     SUMO, a synthetic NYISO-like grid day, the OLEV battery model,
//     and the WPT roadway infrastructure;
//   - one experiment harness per figure of the evaluation —
//     internal/experiments.
//
// Quick start:
//
//	_, players, err := olevgrid.BuildFleet(olevgrid.FleetConfig{
//		N: 50, Velocity: olevgrid.MPH(60), Seed: 1,
//	})
//	out, err := olevgrid.NonlinearPolicy{}.Run(olevgrid.Scenario{
//		Players:        players,
//		NumSections:    20,
//		LineCapacityKW: olevgrid.LineCapacityKW(olevgrid.Meters(15), olevgrid.MPH(60)),
//		Eta:            0.9,
//		BetaPerMWh:     20,
//	})
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// paper-vs-measured record.
package olevgrid

import (
	"io"

	"olevgrid/internal/core"
	"olevgrid/internal/coupling"
	"olevgrid/internal/deploy"
	"olevgrid/internal/experiments"
	"olevgrid/internal/grid"
	"olevgrid/internal/obs"
	"olevgrid/internal/pricing"
	"olevgrid/internal/scenario"
	"olevgrid/internal/sched"
	"olevgrid/internal/store"
	"olevgrid/internal/traffic"
	"olevgrid/internal/units"
	"olevgrid/internal/v2i"
)

// Physical quantities.
type (
	// Power is kilowatts.
	Power = units.Power
	// Energy is kilowatt-hours.
	Energy = units.Energy
	// Speed is meters per second; construct with MPH/KMH.
	Speed = units.Speed
	// Distance is meters.
	Distance = units.Distance
)

// Unit constructors, re-exported for facade-only callers.
var (
	KW     = units.KW
	MPH    = units.MPH
	KMH    = units.KMH
	Meters = units.Meters
)

// Game-layer types (Section IV).
type (
	// Player is one OLEV as the game sees it.
	Player = core.Player
	// Satisfaction is U_n, the private concave satisfaction function.
	Satisfaction = core.Satisfaction
	// LogSatisfaction is the evaluation's U_n = w·log(1+p).
	LogSatisfaction = core.LogSatisfaction
	// Game runs the asynchronous best-response iteration directly.
	Game = core.Game
	// GameConfig configures a Game.
	GameConfig = core.Config
	// GameResult reports a Game run.
	GameResult = core.Result
	// RunOptions tunes a Game run.
	RunOptions = core.RunOptions
	// ParallelOptions tunes Game.RunParallel, the block-speculative
	// round engine whose schedules are worker-count independent.
	ParallelOptions = core.ParallelOptions
	// ParallelResult reports a Game.RunParallel run.
	ParallelResult = core.ParallelResult
	// Schedule is an N×C power allocation.
	Schedule = core.Schedule
	// CostFunction is a section's convex charging cost Z(·).
	CostFunction = core.CostFunction
)

var (
	// NewGame constructs the strategic game of Section IV.
	NewGame = core.NewGame
)

// Policy layer (Section V's two pricing policies).
type (
	// Scenario is one experimental condition.
	Scenario = pricing.Scenario
	// Outcome is what a policy produced.
	Outcome = pricing.Outcome
	// NonlinearPolicy is the paper's congestion-reactive price.
	NonlinearPolicy = pricing.Nonlinear
	// LinearPolicy is the flat-tariff baseline.
	LinearPolicy = pricing.Linear
	// FleetConfig draws an OLEV fleet.
	FleetConfig = pricing.FleetConfig
)

// BuildFleet draws a fleet of OLEVs and the corresponding game
// players (power ceilings from Eq. (2)).
var BuildFleet = pricing.BuildFleet

// LineCapacityKW evaluates Eq. (1) for the default section
// electricals.
var LineCapacityKW = pricing.LineCapacityKW

// CongestionTargetWeight derives the demand level whose interior
// equilibrium realizes a target congestion degree.
var CongestionTargetWeight = pricing.CongestionTargetWeight

// Distributed framework (Section IV-D over real transports).
type (
	// Coordinator is the smart-grid side of the V2I protocol.
	Coordinator = sched.Coordinator
	// CoordinatorConfig configures a Coordinator.
	CoordinatorConfig = sched.CoordinatorConfig
	// AgentConfig configures an Agent.
	AgentConfig = sched.AgentConfig
	// AgentResult summarizes an agent session.
	AgentResult = sched.AgentResult
	// Report summarizes a coordinator run.
	Report = sched.Report
	// CostSpec is the wire form of the section cost.
	CostSpec = v2i.CostSpec
	// Transport is a V2I message channel.
	Transport = v2i.Transport
	// Journal persists the coordinator's last converged schedule.
	Journal = sched.Journal
	// Checkpoint is a journaled schedule snapshot.
	Checkpoint = sched.Checkpoint
	// StoreOptions configures OpenStore (fsync policy, compaction
	// threshold, filesystem seam).
	StoreOptions = store.Options
	// FsyncPolicy says when a store makes appended records durable.
	FsyncPolicy = store.FsyncPolicy
	// FaultConfig scripts a seeded fault plan for one V2I link.
	FaultConfig = v2i.FaultConfig
	// SendWindow scripts a partition blackout by send index.
	SendWindow = v2i.SendWindow
	// FaultyTransport injects faults in front of another transport.
	FaultyTransport = v2i.Faulty
)

var (
	// NewCoordinator builds the smart-grid side over established links.
	NewCoordinator = sched.NewCoordinator
	// RunAgentTCP is the full TCP client lifecycle: dial, hello, run.
	RunAgentTCP = sched.RunTCP
	// NewV2IPipePair returns connected in-memory transports backed by a
	// synchronous pipe — the in-process way to exercise the binary
	// framing end to end.
	NewV2IPipePair = v2i.NewPipePair
	// CollectHellos accepts registrations on a TCP listener.
	CollectHellos = sched.CollectHellos
	// NewTransportPair returns connected in-memory transports.
	NewTransportPair = v2i.NewPair
	// ListenV2I opens a TCP listener for vehicle connections.
	ListenV2I = v2i.Listen
	// NewMemJournal keeps checkpoints in process memory.
	NewMemJournal = sched.NewMemJournal
	// NewStoreJournal adapts a durable segment store to the Journal
	// interface: the on-disk checkpoint journal.
	NewStoreJournal = sched.NewStoreJournal
	// OpenStore opens (creating if needed) a segment store directory:
	// an append-only CRC32C-framed log with torn-tail repair and
	// snapshot compaction. See DESIGN.md §15.
	OpenStore = store.Open
	// ParseFsyncPolicy maps "always"/"interval"/"never" onto a policy.
	ParseFsyncPolicy = store.ParseFsyncPolicy
	// NewFaultyTransport wraps a transport with a seeded fault plan.
	NewFaultyTransport = v2i.NewFaulty
)

// Fault-tolerant control plane: coordinator failover, degraded-mode
// autonomy, and exogenous-fault survival.
type (
	// Lease is the coordinator-election primitive a standby watches.
	Lease = sched.Lease
	// LeaseState is one observation of a lease.
	LeaseState = sched.LeaseState
	// MemLease is an in-process lease for tests and single-host demos.
	MemLease = sched.MemLease
	// Takeover is a won election: fenced epoch/sequence plus the
	// checkpoint to warm-start from.
	Takeover = sched.Takeover
	// AutonomyConfig arms an agent's degraded-mode fallback.
	AutonomyConfig = sched.AutonomyConfig
	// SectionOutage scripts a charging-section outage by round.
	SectionOutage = sched.SectionOutage
	// PriceFeed supplies β to a running coordinator, possibly late or
	// not at all.
	PriceFeed = sched.PriceFeed
	// LBMPFeed is a price feed with seeded dropouts and staleness
	// accounting over any source.
	LBMPFeed = grid.LBMPFeed
	// FeedConfig scripts an LBMPFeed's fault plan.
	FeedConfig = grid.FeedConfig
	// FeedWindow is a scripted dark window of feed steps.
	FeedWindow = grid.FeedWindow
	// DayOutage scripts a charging-section outage by hour in a
	// coupled day.
	DayOutage = coupling.SectionOutage
	// TransportTimeouts bound dial/read/write on TCP transports.
	TransportTimeouts = v2i.Timeouts
)

var (
	// NewMemLease builds an in-process lease.
	NewMemLease = sched.NewMemLease
	// Failover promotes a standby over a stopped primary: it claims
	// the lapsed lease, fences above the dead primary's counters and
	// resumes warm from the journaled checkpoint.
	Failover = sched.Failover
	// NewLBMPFeed wraps a β source in a seeded fault plan.
	NewLBMPFeed = grid.NewLBMPFeed
	// DefaultTransportTimeouts are the TCP deadline defaults.
	DefaultTransportTimeouts = v2i.DefaultTimeouts
	// DialV2ITimeouts dials a coordinator with explicit deadlines.
	DialV2ITimeouts = v2i.DialTimeouts
)

// Observability (DESIGN.md §11): a dependency-free metrics registry
// plus an event sink, with per-layer bundles threaded through the
// solver, control plane, coupling and transport. Every bundle
// treats nil as a zero-overhead off switch, and arming one never
// changes results — the conformance suites pin both properties.
type (
	// MetricsRegistry holds counters, gauges and histograms and writes
	// Prometheus text exposition or a JSON dump.
	MetricsRegistry = obs.Registry
	// MetricLabel is one key/value dimension on a metric.
	MetricLabel = obs.Label
	// EventSink is a lock-free ring of structured spans (solver
	// rounds, quotes, failover epochs, outage windows).
	EventSink = obs.EventSink
	// SolverMetrics instruments core round engines (ParallelOptions.Metrics).
	SolverMetrics = core.Metrics
	// ControlPlaneMetrics instruments coordinators and agents
	// (CoordinatorConfig.Metrics, AgentConfig.Metrics); share one
	// bundle across failover incarnations.
	ControlPlaneMetrics = sched.Metrics
	// CoupledDayMetrics instruments the coupled day's hour loop
	// (CoupledDayConfig.Metrics).
	CoupledDayMetrics = coupling.DayMetrics
	// TransportMetrics counts V2I frames per direction and type.
	TransportMetrics = v2i.TransportMetrics
)

var (
	// NewMetricsRegistry builds an empty registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewEventSink builds a ring sink with the given capacity.
	NewEventSink = obs.NewEventSink
	// NewSolverMetrics registers the olev_solver_* catalog.
	NewSolverMetrics = core.NewMetrics
	// NewControlPlaneMetrics registers the olev_sched_*/olev_agent_*
	// catalog.
	NewControlPlaneMetrics = sched.NewMetrics
	// NewCoupledDayMetrics registers the olev_day_* catalog.
	NewCoupledDayMetrics = coupling.NewDayMetrics
	// NewTransportMetrics registers the olev_v2i_* catalog.
	NewTransportMetrics = v2i.NewTransportMetrics
	// NewInstrumentedTransport wraps a Transport with frame counting.
	NewInstrumentedTransport = v2i.NewInstrumented
	// WriteMetricsJSON dumps a registry (and sink) as indented JSON.
	WriteMetricsJSON = obs.WriteJSON
	// MetricsHandler serves /metrics (Prometheus text),
	// /metrics.json and /debug/vars; mount next to net/http/pprof on
	// long-running commands.
	MetricsHandler = obs.Handler
)

// Grid substrate (Section III's ISO day).
type (
	// GridDay is a synthesized ISO day.
	GridDay = grid.Day
	// GridConfig calibrates the synthesis.
	GridConfig = grid.Config
)

var (
	// NewGridDay synthesizes an ISO day.
	NewGridDay = grid.NewDay
	// DefaultGridConfig is calibrated to NYISO 2016-05-12.
	DefaultGridConfig = grid.DefaultConfig
)

// Experiment harnesses (one per paper figure).
type (
	// MotivationConfig parameterizes the Fig. 3 traffic study.
	MotivationConfig = experiments.Fig3Config
	// MotivationResult compares the two placements.
	MotivationResult = experiments.Fig3Result
	// GameDefaults are the Fig. 5/6 shared parameters.
	GameDefaults = experiments.GameDefaults
	// ExperimentTable is a rendered experiment result.
	ExperimentTable = experiments.Table
)

var (
	// RunMotivationStudy reproduces Fig. 3.
	RunMotivationStudy = experiments.Fig3
	// PolicyComparison contrasts the three pricing objectives.
	PolicyComparison = experiments.PolicyComparison
	// SaveExperimentCSVs writes rendered tables for external plotting.
	SaveExperimentCSVs = experiments.SaveCSVs
)

// Coupled traffic/game day (the SUMO-style coupling).
type (
	// CoupledDayConfig configures a day where hourly traffic presence
	// sizes each hour's game and hourly LBMP prices it.
	CoupledDayConfig = coupling.DayConfig
	// CoupledDayResult is the coupled day's hourly record.
	CoupledDayResult = coupling.DayResult
)

// RunCoupledDay executes the traffic-to-game coupling for one day.
var RunCoupledDay = coupling.RunDay

// Deployment planning (the paper's future work).
type (
	// OccupancyProfile is the spatial histogram of vehicle presence.
	OccupancyProfile = deploy.OccupancyProfile
	// DeploymentPlan is a chosen set of section positions.
	DeploymentPlan = deploy.Plan
	// TrafficConfig configures the underlying traffic simulation.
	TrafficConfig = traffic.SimConfig
)

var (
	// MeasureOccupancy profiles where vehicles spend time on a road.
	MeasureOccupancy = deploy.MeasureOccupancy
	// OptimizePlacement chooses section positions by exact DP.
	OptimizePlacement = deploy.OptimizePlacement
	// GreedyPlacement is the comparison baseline.
	GreedyPlacement = deploy.GreedyPlacement
)

// Scenario library: named, seeded city archetypes with declared
// expected-outcome envelopes (internal/scenario).
type (
	// ScenarioSpec is one named city archetype: a seeded workload that
	// compiles deterministically into the game, coupled-day, and
	// session configurations, plus the outcome envelope it promises.
	ScenarioSpec = scenario.Spec
	// ScenarioEnvelope declares an archetype's expected outcome.
	ScenarioEnvelope = scenario.Envelope
	// ScenarioConformance is one archetype's measured outcome scored
	// against its envelope, gate by gate.
	ScenarioConformance = scenario.Conformance
)

var (
	// ScenarioNames lists the registered archetypes in sorted order.
	ScenarioNames = scenario.Names
	// GetScenario returns a registered archetype by name.
	GetScenario = scenario.Get
	// LoadScenario resolves a name-or-file scenario reference.
	LoadScenario = scenario.Load
)

// RunAllExperiments regenerates every figure and writes rendered
// tables to w. Set quick to trade smoothing for speed.
func RunAllExperiments(w io.Writer, quick bool) error {
	return experiments.RunAll(w, quick)
}

// RunAllExperimentOptions tunes RunAllExperimentsWith.
type RunAllExperimentOptions = experiments.RunAllOptions

// RunAllExperimentsWith is RunAllExperiments with full options,
// including routing every game through the parallel round engine.
var RunAllExperimentsWith = experiments.RunAllWith
