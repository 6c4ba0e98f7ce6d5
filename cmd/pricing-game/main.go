// Command pricing-game runs one instance of the Section IV pricing
// game and prints the outcome. With -tcp it runs the same game as an
// actual distributed system: a smart-grid coordinator listening on
// localhost and one TCP client per OLEV.
//
// Usage:
//
//	pricing-game [-n 50] [-c 20] [-eta 0.9] [-beta 20] [-mph 60] [-policy nonlinear|linear|both] [-tcp]
//	pricing-game -scenario rush-hour-surge
//
// With -scenario a registered city archetype (or a scenario .json
// file) sizes the whole game — fleet, sections, capacity, price level,
// dead sections, scripted outages — in place of -n/-c/-eta/-beta/-mph,
// and the nonlinear outcome is scored against the archetype's declared
// expected-outcome envelope. -seed still overrides the archetype's.
//
// With -solver=meanfield the nonlinear policy routes through the
// aggregated population tier (internal/meanfield): the fleet is
// clustered into -clusters representative populations, the macro game
// is solved exactly, and per-vehicle schedules are disaggregated back
// — the engine for -n far beyond what the exact dynamics can afford.
//
// The -tcp mode exposes the resilience knobs: -drop/-dup/-reorder
// inject chaos on every grid-side link, -evict-after arms the
// per-vehicle circuit breaker, and -journal names a checkpoint store
// directory (a CRC-framed segment log with snapshot compaction, its
// durability set by -fsync) that persists the last converged schedule
// so a restarted coordinator warm-starts from it.
// The control-plane fault knobs stack on top: -crash-at kills the
// primary coordinator at that round and lets a standby take over off
// the journaled checkpoint, -autonomy arms every vehicle's
// degraded-mode fallback, -feed-drop makes the LBMP feed lose samples,
// and -outage scripts charging-section outages ("sec:down[:up]", round
// numbers, comma-separated).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"olevgrid"
	"olevgrid/internal/pricing"
	"olevgrid/internal/units"
	"olevgrid/internal/v2i"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pricing-game:", err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", 50, "number of OLEVs")
	c := flag.Int("c", 20, "number of charging sections")
	eta := flag.Float64("eta", 0.9, "safety factor / target congestion degree")
	beta := flag.Float64("beta", 20, "LBMP beta in $/MWh")
	mph := flag.Float64("mph", 60, "OLEV velocity")
	policy := flag.String("policy", "both", "nonlinear, linear, or both")
	scenarioRef := flag.String("scenario", "", "named city archetype or scenario .json file; replaces -n/-c/-eta/-beta/-mph/-outage")
	seed := flag.Int64("seed", 1, "seed")
	parallelism := flag.Int("parallel", 0, "proposal workers for the round engine (0 = asynchronous dynamics); with -tcp, vehicles quoted per batch")
	solver := flag.String("solver", "", "equilibrium engine for the nonlinear policy: empty/exact (per-vehicle dynamics) or meanfield (aggregated population tier)")
	clusters := flag.Int("clusters", 0, "meanfield: population budget K (0 = tier default)")
	tcp := flag.Bool("tcp", false, "run distributed over localhost TCP")
	drop := flag.Float64("drop", 0, "tcp: per-frame drop probability on grid-side links")
	dup := flag.Float64("dup", 0, "tcp: per-frame duplication probability on grid-side links")
	reorder := flag.Float64("reorder", 0, "tcp: per-frame reorder probability on grid-side links")
	evictAfter := flag.Int("evict-after", 0, "tcp: evict a vehicle after this many consecutive failed turns (0 disables)")
	journalPath := flag.String("journal", "", "tcp: checkpoint store directory for crash recovery (empty disables)")
	fsyncPolicy := flag.String("fsync", "", `tcp: checkpoint durability policy: "always" (default), "interval" or "never"`)
	crashAt := flag.Int("crash-at", 0, "tcp: crash the primary coordinator at this round and fail over to a standby (0 disables)")
	autonomy := flag.Duration("autonomy", 0, "tcp: arm degraded-mode autonomy with this quote deadline (0 disables)")
	feedDrop := flag.Float64("feed-drop", 0, "tcp: LBMP feed per-round dropout probability")
	outageSpec := flag.String("outage", "", `tcp: section outages as "sec:down[:up]" round numbers, comma-separated`)
	metricsOut := flag.String("metrics-out", "", "write the obs metrics/event dump as JSON to this path after the run (- for stdout)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof plus /metrics on this address (e.g. 127.0.0.1:6060) for the run's duration")
	flag.Parse()

	// One registry and sink cover whichever layers the mode arms: the
	// solver bundle on the in-process paths, the control-plane and
	// transport bundles on -tcp.
	var telemetry *obsBundle
	if *metricsOut != "" || *pprofAddr != "" {
		telemetry = newObsBundle()
	}
	if *pprofAddr != "" {
		if err := telemetry.servePprof(*pprofAddr); err != nil {
			return err
		}
	}

	// A scenario reference replaces the sizing flags wholesale; setting
	// both is a conflict, not a merge (-seed stays a caller override).
	var spec *olevgrid.ScenarioSpec
	if *scenarioRef != "" {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"n", "c", "eta", "beta", "mph", "outage"} {
			if set[name] {
				return fmt.Errorf("-scenario sizes the game; drop -%s", name)
			}
		}
		s, err := olevgrid.LoadScenario(*scenarioRef)
		if err != nil {
			return err
		}
		if set["seed"] {
			s.Seed = *seed
		}
		spec = &s
	}

	var game olevgrid.Scenario
	if spec != nil {
		var err error
		game, err = spec.GameScenario()
		if err != nil {
			return err
		}
	} else {
		vel := units.MPH(*mph)
		lineCap := pricing.LineCapacityKW(units.Meters(15), vel)
		_, players, err := olevgrid.BuildFleet(olevgrid.FleetConfig{
			N: *n, Velocity: vel, SatisfactionWeight: 1, Seed: *seed,
		})
		if err != nil {
			return err
		}
		game = olevgrid.Scenario{
			Players: players, NumSections: *c, LineCapacityKW: lineCap,
			Eta: *eta, BetaPerMWh: *beta, Seed: *seed,
		}
	}

	fsync, err := olevgrid.ParseFsyncPolicy(*fsyncPolicy)
	if err != nil {
		return err
	}

	if *tcp {
		if *solver != "" {
			return fmt.Errorf("-solver selects an in-process engine; drop -tcp")
		}
		outages, err := parseOutages(*outageSpec)
		if err != nil {
			return err
		}
		if spec != nil {
			// The archetype's scripted outages (and its steady-state dead
			// sections, expressed as immediate outages) drive the
			// coordinator's outage machinery.
			params, err := spec.SessionParams()
			if err != nil {
				return err
			}
			for _, o := range params.Outages {
				outages = append(outages, olevgrid.SectionOutage{
					Section: o.Section, DownRound: o.DownRound, UpRound: o.UpRound,
				})
			}
		}
		if err := runTCP(game.Players, game.NumSections, game.LineCapacityKW, game.Eta, game.BetaPerMWh, game.Seed, tcpOptions{
			drop: *drop, dup: *dup, reorder: *reorder,
			evictAfter: *evictAfter, journalPath: *journalPath,
			fsync:       fsync,
			parallelism: *parallelism,
			crashAt:     *crashAt, autonomy: *autonomy,
			feedDrop: *feedDrop, outages: outages,
			telemetry: telemetry,
		}); err != nil {
			return err
		}
		return telemetry.dump(*metricsOut)
	}
	if *fsyncPolicy != "" {
		return fmt.Errorf("-fsync shapes the -journal store; it requires -tcp")
	}
	if *crashAt > 0 || *autonomy > 0 || *feedDrop > 0 || *outageSpec != "" {
		return fmt.Errorf("-crash-at/-autonomy/-feed-drop/-outage require -tcp")
	}

	game.Parallelism = *parallelism
	game.Solver = *solver
	game.MeanFieldClusters = *clusters
	game.Metrics = telemetry.solver()
	var policies []pricing.Policy
	switch *policy {
	case "nonlinear":
		policies = []pricing.Policy{olevgrid.NonlinearPolicy{}}
	case "linear":
		policies = []pricing.Policy{olevgrid.LinearPolicy{}}
	case "both":
		policies = []pricing.Policy{olevgrid.NonlinearPolicy{}, olevgrid.LinearPolicy{}}
	default:
		return fmt.Errorf("unknown -policy %q", *policy)
	}
	for _, p := range policies {
		out, err := p.Run(game)
		if err != nil {
			return err
		}
		printOutcome(out)
		if spec != nil && out.Policy == "nonlinear" {
			printConformance(spec.CheckOutcome(out))
		}
	}
	return telemetry.dump(*metricsOut)
}

// printConformance scores a scenario run against its declared
// envelope, gate by gate.
func printConformance(c olevgrid.ScenarioConformance) {
	verdict := "PASS"
	if !c.Pass {
		verdict = "FAIL"
	}
	fmt.Printf("  envelope %s        welfare=%v rounds=%v congestion=%v payments=%v converged=%v\n",
		verdict, c.GateWelfareBand, c.GateRounds, c.GateCongestion, c.GatePayments, c.GateConverged)
}

// obsBundle is the command's lazily-armed telemetry: one registry and
// event sink shared by whichever layer bundles the mode activates.
type obsBundle struct {
	reg  *olevgrid.MetricsRegistry
	sink *olevgrid.EventSink
}

func newObsBundle() *obsBundle {
	return &obsBundle{
		reg:  olevgrid.NewMetricsRegistry(),
		sink: olevgrid.NewEventSink(1 << 14),
	}
}

// solver arms the core round-engine bundle; nil receiver stays nil so
// the off path pays nothing.
func (b *obsBundle) solver() *olevgrid.SolverMetrics {
	if b == nil {
		return nil
	}
	return olevgrid.NewSolverMetrics(b.reg, b.sink)
}

// controlPlane arms the coordinator/agent bundle.
func (b *obsBundle) controlPlane() *olevgrid.ControlPlaneMetrics {
	if b == nil {
		return nil
	}
	return olevgrid.NewControlPlaneMetrics(b.reg, b.sink)
}

// transport arms the V2I frame counters.
func (b *obsBundle) transport() *olevgrid.TransportMetrics {
	if b == nil {
		return nil
	}
	return olevgrid.NewTransportMetrics(b.reg)
}

// servePprof mounts net/http/pprof (via the default mux) next to the
// obs handler (/metrics, /metrics.json, /debug/vars) on addr for the
// run's duration.
func (b *obsBundle) servePprof(addr string) error {
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	mux.Handle("/", olevgrid.MetricsHandler(b.reg, b.sink))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	}
	fmt.Printf("pprof+metrics listening on http://%s/\n", ln.Addr())
	go func() { _ = http.Serve(ln, mux) }()
	return nil
}

// dump writes the JSON metrics/event dump; nil bundle or empty path
// is a no-op so call sites need no guards.
func (b *obsBundle) dump(path string) error {
	if b == nil || path == "" {
		return nil
	}
	if path == "-" {
		return olevgrid.WriteMetricsJSON(os.Stdout, b.reg, b.sink)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := olevgrid.WriteMetricsJSON(f, b.reg, b.sink); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func printOutcome(out olevgrid.Outcome) {
	fmt.Printf("policy=%s\n", out.Policy)
	fmt.Printf("  congestion degree  %.3f\n", out.CongestionDegree)
	fmt.Printf("  total power        %.1f kW\n", out.TotalPowerKW)
	fmt.Printf("  unit payment       $%.2f/MWh\n", out.UnitPaymentPerMWh)
	fmt.Printf("  social welfare     %.2f $/h\n", out.Welfare)
	fmt.Printf("  load imbalance CV  %.3f\n", out.LoadImbalance())
	fmt.Printf("  updates            %d (converged=%v)\n", out.Updates, out.Converged)
}

// tcpOptions are the resilience knobs of the distributed mode.
type tcpOptions struct {
	drop, dup, reorder float64
	evictAfter         int
	journalPath        string
	fsync              olevgrid.FsyncPolicy
	parallelism        int
	crashAt            int
	autonomy           time.Duration
	feedDrop           float64
	outages            []olevgrid.SectionOutage
	telemetry          *obsBundle
}

func (o tcpOptions) chaotic() bool { return o.drop > 0 || o.dup > 0 || o.reorder > 0 }

// parseOutages reads "sec:down[:up]" comma-separated round-number
// triples into the coordinator's outage script.
func parseOutages(spec string) ([]olevgrid.SectionOutage, error) {
	if spec == "" {
		return nil, nil
	}
	var out []olevgrid.SectionOutage
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf(`-outage %q: want "sec:down[:up]"`, part)
		}
		nums := make([]int, len(fields))
		for i, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("-outage %q: %w", part, err)
			}
			nums[i] = v
		}
		o := olevgrid.SectionOutage{Section: nums[0], DownRound: nums[1]}
		if len(nums) == 3 {
			o.UpRound = nums[2]
		}
		out = append(out, o)
	}
	return out, nil
}

func runTCP(players []olevgrid.Player, c int, lineCap, eta, beta float64, seed int64, opts tcpOptions) error {
	srv, err := olevgrid.ListenV2I("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	fmt.Printf("smart grid listening on %s\n", srv.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, len(players))
	var auto *olevgrid.AutonomyConfig
	if opts.autonomy > 0 {
		auto = &olevgrid.AutonomyConfig{QuoteDeadline: opts.autonomy}
	}
	cpm := opts.telemetry.controlPlane()
	for i, p := range players {
		wg.Add(1)
		go func(i int, p olevgrid.Player) {
			defer wg.Done()
			_, errs[i] = olevgrid.RunAgentTCP(ctx, srv.Addr(), olevgrid.AgentConfig{
				VehicleID:    p.ID,
				MaxPowerKW:   p.MaxPowerKW,
				Satisfaction: p.Satisfaction,
				Autonomy:     auto,
				Metrics:      cpm,
			})
		}(i, p)
	}

	links, err := olevgrid.CollectHellos(ctx, srv, len(players), 10*time.Second)
	if err != nil {
		return err
	}
	if opts.telemetry != nil {
		// Frame accounting sits under any fault plan, so the counters
		// see what actually crossed the grid-side links.
		tm := opts.telemetry.transport()
		for id, link := range links {
			links[id] = olevgrid.NewInstrumentedTransport(link, tm)
		}
	}
	if opts.chaotic() {
		// Wrap every accepted link in a seeded fault plan; the session
		// layer (epoch stamps, sequence validation, retries) has to
		// carry the game to the same equilibrium anyway.
		i := int64(0)
		for id, link := range links {
			links[id] = olevgrid.NewFaultyTransport(link, olevgrid.FaultConfig{
				DropRate:      opts.drop,
				DuplicateRate: opts.dup,
				ReorderRate:   opts.reorder,
				Seed:          seed*1000 + i,
			})
			i++
		}
	}
	var journal olevgrid.Journal
	if opts.journalPath != "" {
		st, err := olevgrid.OpenStore(opts.journalPath, olevgrid.StoreOptions{Fsync: opts.fsync})
		if err != nil {
			return err
		}
		defer st.Close()
		journal = olevgrid.NewStoreJournal(st)
	} else if opts.crashAt > 0 {
		// A failover demo needs a checkpoint to hand the standby.
		journal = olevgrid.NewMemJournal()
	}
	spec := costSpec(lineCap, eta, beta)
	cfg := olevgrid.CoordinatorConfig{
		NumSections:    c,
		LineCapacityKW: lineCap,
		Cost:           spec,
		EvictAfter:     opts.evictAfter,
		DropDeparted:   true,
		Journal:        journal,
		Seed:           seed,
		Parallelism:    opts.parallelism,
		Outages:        opts.outages,
		Metrics:        cpm,
	}
	if opts.chaotic() {
		cfg.RoundTimeout = 250 * time.Millisecond
		cfg.MaxRetries = 8
		cfg.RetryBackoff = 5 * time.Millisecond
		cfg.SkipUnresponsive = true
	}
	if opts.feedDrop > 0 {
		feed, err := olevgrid.NewLBMPFeed(
			func(int) float64 { return spec.BetaPerKWh },
			olevgrid.FeedConfig{DropRate: opts.feedDrop, Decay: 0.9,
				FloorBeta: spec.BetaPerKWh / 2, Seed: seed + 4})
		if err != nil {
			return err
		}
		cfg.Feed = feed
	}
	var lease *olevgrid.MemLease
	primCtx := ctx
	var crash context.CancelFunc
	if opts.crashAt > 0 {
		lease = olevgrid.NewMemLease()
		cfg.Lease = lease
		cfg.LeaseTTL = 100 * time.Millisecond
		cfg.InstanceID = "primary"
		cfg.CheckpointEvery = 1
		cfg.HeartbeatEvery = 2
		primCtx, crash = context.WithCancel(ctx)
		defer crash()
		cfg.OnRound = func(round int) {
			if round == opts.crashAt {
				crash()
			}
		}
	}
	coord, err := olevgrid.NewCoordinator(cfg, links)
	if err != nil {
		return err
	}
	// Closing the links is the end-of-session signal no fault plan can
	// drop; without it an agent whose Bye frame was lost would block.
	defer func() { _ = coord.Close() }()
	if coord.Restored() {
		fmt.Println("warm-started from journaled checkpoint")
	}
	report, err := coord.Run(primCtx)
	if err != nil && opts.crashAt > 0 && ctx.Err() == nil {
		// The scripted crash fired. After a silence long enough for
		// -autonomy agents to notice, a standby claims the lapsed lease,
		// fences itself above the dead primary, and finishes the session
		// over the same accepted connections.
		fmt.Printf("primary crashed at round %d: %v\n", opts.crashAt, err)
		time.Sleep(200 * time.Millisecond)
		standby, take, serr := olevgrid.Failover(cfg, links, "standby", time.Now())
		if serr != nil {
			return serr
		}
		fmt.Printf("standby took over: epoch fence %d, warm-start=%v\n", take.Epoch, standby.Restored())
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
	fmt.Printf("distributed game: rounds=%d converged=%v congestion=%.3f total=%.1f kW\n",
		report.Rounds, report.Converged, report.CongestionDegree, report.TotalPowerKW)
	if opts.parallelism > 1 {
		fmt.Printf("  batching: parallelism=%d degraded-rounds=%d\n",
			opts.parallelism, report.DegradedRounds)
	}
	if opts.chaotic() || opts.journalPath != "" || opts.evictAfter > 0 {
		fmt.Printf("  resilience: retries=%d skipped=%d stale-dropped=%d departed=%d evicted=%d epoch=%d checkpoint=%v fellback=%v\n",
			report.Retries, report.Skipped, report.StaleDropped, report.Departed,
			report.Evicted, report.FinalEpoch, report.CheckpointSaved, report.FellBack)
	}
	if opts.crashAt > 0 || opts.feedDrop > 0 || len(opts.outages) > 0 {
		fmt.Printf("  control plane: feed-changes=%d feed-held=%d outages=%d restores=%d live-sections=%d\n",
			report.FeedChanges, report.FeedHeld, report.OutagesApplied,
			report.RestoresApplied, report.LiveSections)
	}
	return nil
}

func costSpec(lineCap, eta, beta float64) v2i.CostSpec {
	betaPerKWh := beta / 1000
	return v2i.CostSpec{
		Kind:                "nonlinear",
		BetaPerKWh:          betaPerKWh,
		Alpha:               pricing.DefaultAlpha,
		LineCapacityKW:      lineCap,
		OverloadKappaPerKWh: pricing.DefaultOverloadKappaFactor * betaPerKWh,
		OverloadCapacityKW:  eta * lineCap,
	}
}
