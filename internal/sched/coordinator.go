// Package sched is the decentralized power-scheduling framework of
// Section IV-D, run over real message passing: a smart-grid
// Coordinator that owns the schedule, quotes payment functions and
// water-fills requests, and OLEV Agents that hold their private
// satisfaction functions and best-respond. The in-memory transport
// reproduces the paper's simulation; the TCP transport turns the same
// protocol into an actual distributed system.
//
// The coordinator is hardened for deployment-grade conditions: every
// quote is epoch-stamped so late, duplicated, or reordered
// best-responses computed against an outdated background load are
// detected and discarded rather than water-filled; retries back off
// exponentially with jitter under a per-exchange deadline; vehicles
// may join and leave mid-iteration; and a checkpoint journal lets a
// restarted coordinator resume from the last converged schedule. See
// DESIGN.md's "Failure model" section for how each mechanism maps to
// a Theorem IV.1 assumption.
package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/obs"
	"olevgrid/internal/stats"
	"olevgrid/internal/v2i"
)

// BuildCost reconstructs a core.CostFunction from its wire form.
func BuildCost(spec v2i.CostSpec) (core.CostFunction, error) {
	var charging core.CostFunction
	switch spec.Kind {
	case "nonlinear":
		v, err := core.NewQuadraticCharging(spec.BetaPerKWh, spec.Alpha, spec.LineCapacityKW)
		if err != nil {
			return nil, err
		}
		charging = v
	case "linear":
		if spec.BetaPerKWh <= 0 {
			return nil, fmt.Errorf("sched: linear beta %v must be positive", spec.BetaPerKWh)
		}
		charging = core.LinearCharging{Beta: spec.BetaPerKWh}
	default:
		return nil, fmt.Errorf("sched: unknown cost kind %q", spec.Kind)
	}
	if spec.OverloadKappaPerKWh > 0 {
		if spec.OverloadCapacityKW <= 0 {
			return nil, fmt.Errorf("sched: overload capacity %v must be positive", spec.OverloadCapacityKW)
		}
		return core.SectionCost{
			Charging: charging,
			Overload: core.OverloadPenalty{
				Kappa:    spec.OverloadKappaPerKWh,
				Capacity: spec.OverloadCapacityKW,
			},
		}, nil
	}
	return charging, nil
}

// CoordinatorConfig configures the smart-grid side.
type CoordinatorConfig struct {
	// NumSections is C.
	NumSections int
	// LineCapacityKW is P_line per section.
	LineCapacityKW float64
	// Cost is the wire form of the shared section cost; agents price
	// against exactly what the coordinator uses.
	Cost v2i.CostSpec
	// Tolerance declares convergence when no request moves more than
	// this across a full round; zero means 1e-4.
	Tolerance float64
	// MaxRounds bounds the iteration; zero means 200.
	MaxRounds int
	// RoundTimeout bounds each per-vehicle exchange attempt; zero
	// means 5 s.
	RoundTimeout time.Duration
	// MaxRetries re-quotes a vehicle whose exchange timed out — the
	// recovery for lossy V2I links; zero means 2.
	MaxRetries int
	// RetryBackoff is the base delay of the exponential backoff
	// between re-quote attempts; the n-th retry waits roughly
	// RetryBackoff·2^(n-1) with jitter. Zero means 10 ms.
	RetryBackoff time.Duration
	// SkipUnresponsive keeps the round going when a vehicle exhausts
	// its retries, leaving its previous schedule in place, instead of
	// failing the run. The asynchronous dynamics tolerate missed
	// turns (Theorem IV.1 only needs every OLEV to update eventually).
	SkipUnresponsive bool
	// EvictAfter is the per-vehicle circuit breaker: after this many
	// consecutive failed turns the vehicle is treated as gone — its
	// allocation is released and the fleet re-converges without it.
	// Zero disables eviction. A positive EvictAfter implies skipping
	// failed turns until the breaker trips.
	EvictAfter int
	// DropDeparted removes a vehicle whose transport has closed or
	// that sent Bye — OLEVs leave the charging lane mid-game in any
	// real deployment — zeroing its schedule and letting the remaining
	// fleet re-converge instead of failing the run.
	DropDeparted bool
	// Journal, when set, persists the last converged schedule. A new
	// coordinator warm-starts from it, and a run that exhausts
	// MaxRounds without converging degrades to the journaled
	// last-known-good schedule instead of keeping a half-settled one.
	Journal Journal
	// Feed, when set, re-samples the charging price coefficient once
	// per round (the paper's volatile LBMP, Section III): a changed β
	// rebuilds the shared cost and advances the epoch so stale
	// best-responses are filtered. A sample the feed reports as
	// unusable (stale beyond its ceiling) holds the last applied β.
	Feed PriceFeed
	// Outages scripts charging-section failures and restorations by
	// round. A dying section's allocation mass is re-projected evenly
	// onto the survivors (the warm-start idiom), quotes flag the
	// dead sections, and the overload penalty Z keeps guarding ηP_line
	// on what remains. Empty means no outages.
	Outages []SectionOutage
	// Lease, when set, is renewed at the top of every round; a refused
	// renewal ends the run with ErrLeaseLost — another incarnation has
	// taken over and this one must stop quoting rather than
	// split-brain the schedule.
	Lease Lease
	// LeaseTTL is the term of each renewal; zero means 1 s.
	LeaseTTL time.Duration
	// InstanceID names this coordinator in lease records; empty means
	// "primary".
	InstanceID string
	// HeartbeatEvery broadcasts a liveness beacon every that many
	// rounds, letting agents distinguish "alive but busy elsewhere"
	// from "control plane gone". Zero disables heartbeats.
	HeartbeatEvery int
	// CheckpointEvery journals a progress checkpoint every that many
	// rounds (in addition to the converged checkpoint), giving a
	// standby a recent warm-start after a mid-session crash. Zero
	// journals only on convergence, the pre-failover behavior.
	CheckpointEvery int
	// ShutdownGrace bounds Close's drain of in-flight sessions; zero
	// means 1 s.
	ShutdownGrace time.Duration
	// OnRound, when set, is called at the top of every round before any
	// frame goes out — the crash-injection point for failover tests.
	OnRound func(round int)
	// Parallelism is the number of vehicles quoted concurrently within
	// a round. 0 or 1 preserves the strictly sequential Gauss–Seidel
	// protocol (the Theorem IV.1 setting, and the exact pre-batching
	// behavior). Larger values overlap V2I round trips: each batch is
	// quoted against the same frozen background load and collected
	// concurrently, then the requests are water-filled in stable batch
	// order — a speculative Jacobi block, mirroring core.RunParallel.
	// The coordinator cannot evaluate the welfare guard (satisfactions
	// are private to the vehicles), so instead the first batched round
	// that fails to shrink the movement bound degrades every later
	// round to sequential; sequential rounds are monotone by Theorem
	// IV.1, which rules out sustained Jacobi cycling.
	Parallelism int
	// Seed shuffles the per-round update order and drives retry
	// jitter.
	Seed int64
	// Metrics, if non-nil, receives control-plane telemetry (rounds,
	// quote/propose spans, retry/stale/fault accounting, the fencing
	// epoch). Share one bundle across a session's incarnations —
	// primary, standby, resumed coordinator — and the counters stay
	// cumulative with no double counting across failover; the chaos
	// conformance suite runs with it armed under -race. Nil is the
	// zero-overhead off switch.
	Metrics *Metrics
}

// Counts is the coordinator's control-plane tally for one run. Each
// field is bumped exactly once, at the site where its event happens,
// by the same call that bumps the matching olev_sched_* counter — the
// report and the metrics cannot disagree.
type Counts struct {
	// Retries counts re-quoted exchanges over the whole run.
	Retries int
	// StaleDropped counts frames the coordinator discarded instead of
	// acting on: replayed/duplicated frames (non-monotonic sequence
	// numbers) and best-responses to outdated quotes (epoch mismatch).
	StaleDropped int
	// Skipped counts vehicle turns abandoned after retry exhaustion.
	Skipped int
	// Departed counts vehicles dropped after their transport closed or
	// they sent Bye (only non-zero with DropDeparted).
	Departed int
	// Evicted counts vehicles removed by the circuit breaker after
	// EvictAfter consecutive failed turns.
	Evicted int
	// Joined counts vehicles admitted mid-iteration via Join.
	Joined int
	// DegradedRounds counts rounds the batching fallback forced to run
	// sequentially after a batched round made no progress (only
	// non-zero with Parallelism > 1).
	DegradedRounds int
	// FeedChanges counts rounds where the price feed moved β;
	// FeedHeld counts rounds where the feed was unusable and the last
	// applied β was held.
	FeedChanges int
	FeedHeld    int
	// OutagesApplied and RestoresApplied count section events fired.
	OutagesApplied  int
	RestoresApplied int
}

// Report summarizes a coordinator run. Once iteration starts, Run
// builds it on every return path, so an early error (lease lost, a
// failed turn, cancellation) still reports the counts and the epoch
// reached.
type Report struct {
	// Rounds is the number of full update rounds executed.
	Rounds int
	// Converged reports whether the tolerance was met.
	Converged bool
	// CongestionDegree is the final Σp / ΣP_line.
	CongestionDegree float64
	// WelfareCost is Σ_c Z(P_c), the grid-side part of welfare (the
	// coordinator cannot know satisfactions).
	WelfareCost float64
	// TotalPowerKW is the final scheduled power.
	TotalPowerKW float64
	// Requests is each vehicle's final total, keyed by ID.
	Requests map[string]float64
	Counts
	// FellBack reports that the run exhausted MaxRounds and the
	// schedule was restored from the journaled last-known-good
	// checkpoint.
	FellBack bool
	// CheckpointSaved reports that the converged schedule was
	// journaled.
	CheckpointSaved bool
	// FinalEpoch is the schedule version at the end of the run.
	FinalEpoch uint64
	// Schedule is each vehicle's final per-section allocation — what
	// the failover differential suite compares across incarnations.
	Schedule map[string][]float64
	// LiveSections is the number of energized sections at the end.
	LiveSections int
}

// PriceFeed supplies the per-round charging price coefficient in
// $/kWh. ok=false means the feed is unusable (dark past its staleness
// ceiling) and the coordinator holds the last applied β.
// *grid.LBMPFeed satisfies this shape given a $/kWh source.
type PriceFeed interface {
	Sample(step int) (betaPerKWh float64, ok bool)
}

// SectionOutage scripts one charging section's failure and optional
// restoration, by round number (1-based, matching Report.Rounds).
type SectionOutage struct {
	// Section is the dying section's index.
	Section int
	// DownRound is the round at whose top the section dies.
	DownRound int
	// UpRound is the round at whose top it is restored; zero means
	// never.
	UpRound int
}

// Coordinator runs the smart-grid side of the protocol for a dynamic
// set of connected vehicles.
type Coordinator struct {
	cfg  CoordinatorConfig
	cost core.CostFunction
	// costs is cost once per section, the vector Payment prices
	// against; applyFeed rebuilds it when β moves.
	costs []core.CostFunction

	// slots is the fleet table, one slot per vehicle, sorted by ID:
	// the fixed leaf order of tree. Each slot's schedule row is a leaf
	// of tree, a window of its one contiguous backing. Every membership
	// change (AddVehicle, admitJoins, removeVehicle) goes through
	// insertSlot or dropSlot, which re-sort and re-pack the table, so a
	// steady round sorts nothing. index maps a vehicle ID to its slot.
	// links is the caller's map, kept in step with the table.
	slots []*vehicle
	index map[string]*vehicle
	links map[string]v2i.Transport
	// tree sums the rows into the section totals. Every row writer
	// keeps it current: installRequest updates the written row's
	// ancestors, and killSection, restoreCheckpoint, the takeover's
	// projection and pack rebuild it.
	tree sectionTree

	// epoch is the schedule version: it advances on every install,
	// join, departure, and eviction, so any quote stamped with an
	// older epoch is known to describe a background load that no
	// longer exists.
	epoch uint64

	// live flags which sections are energized; scripted outages clear
	// entries and restorations set them. liveIdx lists the energized
	// sections, or is nil while all are (the fast path: no
	// compaction). Only Run's goroutine writes either, at the top of a
	// round.
	live    []bool
	liveIdx []int

	// Buffers reused by every turn, only on Run's goroutine: others is
	// the sequential path's P_−n, compact and compactAlloc a
	// live-compacted background and its water-fill, and fill the
	// water-fill's sort scratch (2C+1).
	others, compact, compactAlloc, fill []float64

	// dl bounds the exchanges Run's goroutine makes; batchDL[i] bounds
	// those of batch slot i's collector, whose background load is
	// batchOthers[i]. Run makes the deadlines and releases them when it
	// returns.
	dl          *deadline
	batchDL     []*deadline
	batchOthers [][]float64

	joins     chan pendingJoin
	rng       *rand.Rand
	seq       uint64
	restored  bool
	lastRound int
	// counts is the run's tally, bumped only through count.
	counts Counts
	// exchangeDeadline bounds one vehicle's whole turn, attempts and
	// backoff together, so a single black-holed link cannot stall a
	// round indefinitely.
	exchangeDeadline time.Duration

	closeOnce sync.Once
	// closed flips when Close runs; a closed coordinator refuses to
	// Run again instead of quoting over dead links.
	closed atomic.Bool
	// deposed flips when a lease renewal is refused: another
	// incarnation owns the session now, so this one's Close must stand
	// down quietly — no Bye storm, no stale checkpoint clobbering the
	// new primary's journal, and the links (which the new primary
	// inherited) stay open.
	deposed atomic.Bool

	// mu guards the state shared by concurrent batch collection
	// goroutines: seq, counts and rng. A slot is touched during a
	// batch only by its own collector, and otherwise only by Run's
	// goroutine; the schedule and epoch change only on Run's
	// goroutine, between batches.
	mu sync.Mutex
}

// vehicle is one slot of the coordinator's fleet table.
type vehicle struct {
	id   string
	link v2i.Transport
	// row is the vehicle's schedule: leaf slot of the coordinator's
	// section tree, a window of the tree's backing.
	row  []float64
	slot int
	// lastSeq is the highest envelope sequence number accepted from
	// the vehicle; frames at or below it are replays.
	lastSeq uint64
	// consecFails drives the circuit breaker.
	consecFails int
	// req is the decode target of the vehicle's replies; quote and
	// sched are the bodies its quotes and schedules are sealed from,
	// reused so that sending one allocates only its sealed bytes.
	req   v2i.Request
	quote v2i.Quote
	sched v2i.ScheduleMsg
}

// NewCoordinator validates the configuration and builds a coordinator.
// links maps vehicle IDs to their established transports; the caller
// owns accepting connections (see ServeTCP for the listener loop). The
// coordinator keeps links in step with its fleet — a vehicle that
// joins is added, one that departs or is evicted is deleted — so a
// successor built over the same map (Failover) inherits the live
// fleet. If the configured Journal holds a compatible checkpoint, the
// schedule warm-starts from it.
func NewCoordinator(cfg CoordinatorConfig, links map[string]v2i.Transport) (*Coordinator, error) {
	if cfg.NumSections < 1 {
		return nil, fmt.Errorf("sched: need sections, got %d", cfg.NumSections)
	}
	if cfg.LineCapacityKW <= 0 {
		return nil, fmt.Errorf("sched: line capacity %v must be positive", cfg.LineCapacityKW)
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("sched: no vehicles connected")
	}
	cost, err := BuildCost(cfg.Cost)
	if err != nil {
		return nil, err
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 1e-4
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 200
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 5 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &metricsOff
	}
	for _, o := range cfg.Outages {
		if o.Section < 0 || o.Section >= cfg.NumSections {
			return nil, fmt.Errorf("sched: outage section %d outside [0, %d)", o.Section, cfg.NumSections)
		}
		if o.DownRound < 1 {
			return nil, fmt.Errorf("sched: outage down round %d must be >= 1", o.DownRound)
		}
		if o.UpRound != 0 && o.UpRound <= o.DownRound {
			return nil, fmt.Errorf("sched: outage up round %d not after down round %d", o.UpRound, o.DownRound)
		}
	}
	n := cfg.NumSections
	c := &Coordinator{
		cfg:          cfg,
		index:        make(map[string]*vehicle, len(links)),
		links:        links,
		epoch:        1,
		joins:        make(chan pendingJoin, joinQueueDepth),
		rng:          stats.NewRand(cfg.Seed),
		live:         make([]bool, n),
		others:       make([]float64, n),
		compact:      make([]float64, n),
		compactAlloc: make([]float64, n),
		fill:         make([]float64, 2*n+1),
	}
	c.setCost(cost)
	attempts := time.Duration(cfg.MaxRetries + 1)
	c.exchangeDeadline = attempts*cfg.RoundTimeout + attempts*maxBackoffStep*cfg.RetryBackoff
	for i := range c.live {
		c.live[i] = true
	}
	for id, link := range links {
		v := c.newVehicle(id, link)
		c.slots = append(c.slots, v)
		c.index[id] = v
	}
	c.pack()
	if cfg.Journal != nil {
		if cp, ok, err := cfg.Journal.Load(); err == nil && ok && c.restoreCheckpoint(cp) {
			c.restored = true
		}
	}
	return c, nil
}

// newVehicle makes a slot with a zero schedule row, not yet in the
// table.
func (c *Coordinator) newVehicle(id string, link v2i.Transport) *vehicle {
	return &vehicle{id: id, link: link}
}

// insertSlot adds a vehicle to the fleet table; a row already set on
// the slot seeds its schedule.
func (c *Coordinator) insertSlot(v *vehicle) {
	c.slots = append(c.slots, v)
	c.index[v.id] = v
	c.links[v.id] = v.link
	c.pack()
}

// dropSlot removes a vehicle from the fleet table.
func (c *Coordinator) dropSlot(v *vehicle) {
	delete(c.index, v.id)
	delete(c.links, v.id)
	kept := c.slots[:0]
	for _, s := range c.slots {
		if s != v {
			kept = append(kept, s)
		}
	}
	clear(c.slots[len(kept):])
	c.slots = kept
	c.pack()
}

// pack sorts the table by vehicle ID and copies every row into the
// leaves of a fresh section tree; a slot whose row is nil starts at
// zero.
func (c *Coordinator) pack() {
	sort.Slice(c.slots, func(i, j int) bool { return c.slots[i].id < c.slots[j].id })
	c.tree.reset(len(c.slots), c.cfg.NumSections)
	for i, v := range c.slots {
		row := c.tree.leaf(i)
		copy(row, v.row)
		v.row, v.slot = row, i
	}
	c.tree.rebuild()
}

// setCost installs the shared section cost and its per-section vector.
func (c *Coordinator) setCost(cost core.CostFunction) {
	c.cost = cost
	if c.costs == nil {
		c.costs = make([]core.CostFunction, c.cfg.NumSections)
	}
	for i := range c.costs {
		c.costs[i] = cost
	}
}

// Restored reports whether construction warm-started the schedule
// from a journaled checkpoint.
func (c *Coordinator) Restored() bool { return c.restored }

// Close drains the session and tears down every vehicle link. Call it
// once the session is over (after the final Run). In-flight agents are
// not dropped cold: each link first gets a best-effort Bye, sent
// concurrently under the ShutdownGrace budget, so a vehicle blocked in
// Recv exits through the protocol instead of a connection reset; then
// a final checkpoint is journaled (the durable state a standby or
// restart warm-starts from); only then do the links close — the one
// end-of-session signal a lossy network cannot swallow. Close is
// idempotent and safe to call concurrently — later callers block until
// the first Close finishes, then return — and a closed coordinator
// refuses to Run again. A deposed coordinator (one whose lease renewal
// was refused, ErrLeaseLost) closes to a no-op: the links now belong
// to the incarnation that won the lease, and journaling this loser's
// stale schedule would overwrite the winner's newer checkpoint.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		if c.deposed.Load() {
			return
		}
		grace := c.cfg.ShutdownGrace
		if grace <= 0 {
			grace = time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		var wg sync.WaitGroup
		for _, v := range c.slots {
			seq := c.nextSeq()
			wg.Add(1)
			go func(link v2i.Transport, seq uint64) {
				defer wg.Done()
				_ = v2i.SendMsg(ctx, link, v2i.TypeBye, "smart-grid", seq, &v2i.Bye{Reason: "shutdown"})
			}(v.link, seq)
		}
		wg.Wait()
		cancel()
		c.saveCheckpoint(c.lastRound)
		for _, v := range c.slots {
			_ = v.link.Close()
		}
	})
	return nil
}

// Epoch returns the current schedule version.
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// Run drives the asynchronous best-response iteration: each round it
// admits pending joins, visits every vehicle in a shuffled order,
// quotes Ψ_n against the frozen others, waits for a fresh (current
// epoch, monotonic sequence) request, and installs the water-filled
// schedule. It stops when requests settle or MaxRounds is reached,
// then broadcasts Converged and Bye.
func (c *Coordinator) Run(ctx context.Context) (Report, error) {
	if c.closed.Load() {
		return Report{}, errors.New("sched: coordinator is closed")
	}
	// The visit list starts from the sorted fleet table and is
	// shuffled in place per round.
	visit := append([]*vehicle(nil), c.slots...)
	c.dl = newDeadline(ctx)
	c.batchDL = c.batchDL[:0]
	defer c.releaseDeadlines()

	c.mu.Lock()
	c.counts = Counts{}
	c.mu.Unlock()
	m := c.cfg.Metrics
	rounds, converged := 0, false
	prevDelta := math.Inf(1)
	sequential := false
	for round := 1; round <= c.cfg.MaxRounds; round++ {
		if c.cfg.OnRound != nil {
			c.cfg.OnRound(round)
		}
		if err := c.renewLease(); err != nil {
			return c.report(rounds, false), err
		}
		// Exogenous events fire at the top of the round, before any
		// quote goes out, so the whole round prices one consistent
		// world: the sampled β and the live-section mask.
		perturbed := c.applyFeed(round)
		if c.applyOutages(round) {
			perturbed = true
		}
		c.heartbeat(round)
		visit = append(visit, c.admitJoins()...)
		c.rng.Shuffle(len(visit), func(i, j int) { visit[i], visit[j] = visit[j], visit[i] })
		var maxDelta float64
		roundSkipped := 0
		removed := false

		// handleTurn folds one vehicle's turn outcome into the round.
		// A non-nil return is a terminal run error.
		handleTurn := func(v *vehicle, delta float64, err error) error {
			switch {
			case err == nil:
				v.consecFails = 0
				maxDelta = math.Max(maxDelta, delta)
			case c.cfg.DropDeparted && isDeparture(err) && ctx.Err() == nil:
				// The vehicle left: free its power and let the rest
				// re-converge. The released capacity is a real change,
				// so the round cannot be the converged one.
				removed = true
				if c.removeVehicle(v) > 0 {
					maxDelta = math.Max(maxDelta, c.cfg.Tolerance*2)
				}
				c.count(&c.counts.Departed, m.Departed)
			case c.breakerTrips(v) && ctx.Err() == nil:
				// Circuit breaker: the vehicle has failed EvictAfter
				// consecutive turns; treat it as gone so its stranded
				// allocation stops distorting everyone else's price.
				c.sayBye(v, "evicted")
				removed = true
				if c.removeVehicle(v) > 0 {
					maxDelta = math.Max(maxDelta, c.cfg.Tolerance*2)
				}
				c.count(&c.counts.Evicted, m.Evicted)
			case (c.cfg.SkipUnresponsive || c.cfg.EvictAfter > 0) && ctx.Err() == nil:
				v.consecFails++
				roundSkipped++
				c.count(&c.counts.Skipped, m.Skipped)
			default:
				return fmt.Errorf("sched: round %d vehicle %s: %w", round, v.id, err)
			}
			return nil
		}

		batch := c.cfg.Parallelism
		if batch > len(visit) {
			batch = len(visit)
		}
		if sequential && batch > 1 {
			batch = 1
			c.count(&c.counts.DegradedRounds, m.Degraded)
		}
		if batch > 1 {
			if err := c.runBatchedRound(ctx, visit, round, batch, handleTurn); err != nil {
				return c.report(rounds, false), err
			}
		} else {
			for _, v := range visit {
				delta, err := c.updateWithRetries(ctx, v, round)
				if herr := handleTurn(v, delta, err); herr != nil {
					return c.report(rounds, false), herr
				}
			}
		}
		// A batched round is a speculative Jacobi sweep with no welfare
		// guard (satisfactions are private), so a round that fails to
		// shrink the movement bound hands the rest of the run to the
		// sequential dynamics, whose monotonicity Theorem IV.1
		// guarantees. Batching never resumes: on a congested fleet a
		// resumed Jacobi sweep undoes each sequential round's progress
		// and the run alternates until MaxRounds.
		if batch > 1 && maxDelta >= c.cfg.Tolerance && maxDelta >= prevDelta {
			sequential = true
		}
		prevDelta = maxDelta
		if removed {
			kept := visit[:0]
			for _, v := range visit {
				if c.index[v.id] == v {
					kept = append(kept, v)
				}
			}
			visit = kept
		}
		rounds = round
		c.lastRound = round
		m.observeRound(round, c.epoch, maxDelta, c.liveCount())
		if len(visit) == 0 {
			converged = true
			break
		}
		// A skipped vehicle's best response is unknown, so a round with
		// skips cannot be the converged one — only a full clean round
		// with no movement settles the game. A vehicle waiting to join
		// also blocks convergence: it enters next round and perturbs
		// the schedule. Likewise a round where β moved or a section
		// event fired, and any round while scripted events are still
		// pending — the game they would perturb has not happened yet.
		if maxDelta < c.cfg.Tolerance && roundSkipped == 0 && len(c.joins) == 0 &&
			!perturbed && !c.eventsPending(round) {
			converged = true
			break
		}
		if c.cfg.CheckpointEvery > 0 && round%c.cfg.CheckpointEvery == 0 {
			c.saveCheckpoint(round)
		}
		if err := ctx.Err(); err != nil {
			return c.report(rounds, false), err
		}
	}

	saved, fellBack := false, false
	if converged {
		saved = c.saveCheckpoint(rounds)
	} else {
		fellBack = c.fallBackToLastGood()
	}
	report := c.report(rounds, converged)
	report.CheckpointSaved, report.FellBack = saved, fellBack
	c.broadcastDone(report)
	return report, nil
}

// releaseDeadlines frees the run's exchange deadlines: no timer stays
// armed and no registration stays on the run's ctx once Run returns.
func (c *Coordinator) releaseDeadlines() {
	c.dl.release()
	for _, dl := range c.batchDL {
		dl.release()
	}
}

// report snapshots the run so far. Every return path of Run builds its
// Report here, so the tally and FinalEpoch survive an early error.
func (c *Coordinator) report(rounds int, converged bool) Report {
	c.mu.Lock()
	counts := c.counts
	c.mu.Unlock()
	r := Report{
		Rounds:           rounds,
		Converged:        converged,
		CongestionDegree: c.CongestionDegree(),
		WelfareCost:      c.welfareCost(),
		TotalPowerKW:     c.totalPower(),
		Requests:         make(map[string]float64, len(c.slots)),
		Counts:           counts,
		FinalEpoch:       c.epoch,
		Schedule:         make(map[string][]float64, len(c.slots)),
		LiveSections:     c.liveCount(),
	}
	for _, v := range c.slots {
		r.Requests[v.id] = sum(v.row)
		r.Schedule[v.id] = append([]float64(nil), v.row...)
	}
	return r
}

// count records one control-plane event: it bumps the run's tally
// field and the matching olev_sched_* counter together (a nil counter,
// metrics off, is a no-op). Safe from the batched collection
// goroutines, which count retries and stale frames.
func (c *Coordinator) count(field *int, counter *obs.Counter) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
	counter.Inc()
}

// renewLease extends this incarnation's lease for the round; a refused
// renewal means another incarnation won the election and this one must
// stop quoting immediately.
func (c *Coordinator) renewLease() error {
	if c.cfg.Lease == nil {
		return nil
	}
	ttl := c.cfg.LeaseTTL
	if ttl <= 0 {
		ttl = time.Second
	}
	id := c.cfg.InstanceID
	if id == "" {
		id = "primary"
	}
	ok, err := c.cfg.Lease.Renew(id, c.epoch, ttl, now())
	if err != nil {
		return fmt.Errorf("sched: renew lease: %w", err)
	}
	if !ok {
		c.deposed.Store(true)
		return ErrLeaseLost
	}
	return nil
}

// applyFeed samples the price feed for the round and, when β moved,
// rebuilds the shared cost and advances the epoch. Returns whether β
// changed.
func (c *Coordinator) applyFeed(round int) bool {
	if c.cfg.Feed == nil {
		return false
	}
	beta, ok := c.cfg.Feed.Sample(round)
	if !ok {
		c.count(&c.counts.FeedHeld, c.cfg.Metrics.FeedHeld)
		return false
	}
	if beta == c.cfg.Cost.BetaPerKWh {
		return false
	}
	spec := c.cfg.Cost
	spec.BetaPerKWh = beta
	cost, err := BuildCost(spec)
	if err != nil {
		// An unusable sample (e.g. non-positive β) degrades to holding
		// the last applied price, same as a stale feed.
		c.count(&c.counts.FeedHeld, c.cfg.Metrics.FeedHeld)
		return false
	}
	c.cfg.Cost = spec
	c.setCost(cost)
	c.epoch++ // every outstanding quote priced a β that no longer exists
	c.count(&c.counts.FeedChanges, c.cfg.Metrics.FeedChanges)
	return true
}

// applyOutages fires the section events scheduled for this round.
// Returns whether any fired.
func (c *Coordinator) applyOutages(round int) bool {
	m := c.cfg.Metrics
	fired := false
	for _, o := range c.cfg.Outages {
		if o.DownRound == round && c.live[o.Section] {
			c.killSection(o.Section)
			c.count(&c.counts.OutagesApplied, m.Outages)
			m.Sink.Emit(obs.EventOutage, "coordinator", int32(round), int32(c.epoch), float64(o.Section))
			fired = true
		}
		if o.UpRound == round && !c.live[o.Section] {
			c.live[o.Section] = true
			c.refreshLive()
			c.epoch++
			c.count(&c.counts.RestoresApplied, m.Restores)
			m.Sink.Emit(obs.EventRestore, "coordinator", int32(round), int32(c.epoch), float64(o.Section))
			fired = true
		}
	}
	return fired
}

// killSection de-energizes a section and re-projects its allocation
// mass evenly onto the survivors — the warm-start idiom: the totals
// are still an excellent guess for each vehicle's demand, and the next
// best response re-imposes exact feasibility. The overload penalty Z
// keeps guarding ηP_line on the surviving sections because quotes and
// water-fills now run over the compacted live vector.
func (c *Coordinator) killSection(sec int) {
	c.live[sec] = false
	c.refreshLive()
	nLive := c.liveCount()
	for _, v := range c.slots {
		row := v.row
		mass := row[sec]
		row[sec] = 0
		if mass <= 0 || nLive == 0 {
			continue
		}
		share := mass / float64(nLive)
		for ci, ok := range c.live {
			if ok {
				row[ci] += share
			}
		}
	}
	c.tree.rebuild()
	c.epoch++
}

// eventsPending reports whether any scripted section event is still in
// the future: the run must not settle before the world is done
// changing.
func (c *Coordinator) eventsPending(round int) bool {
	for _, o := range c.cfg.Outages {
		if o.DownRound > round || o.UpRound > round {
			return true
		}
	}
	return false
}

// heartbeat broadcasts the liveness beacon when the round is due one.
// Best-effort: a lost heartbeat costs an agent at most one degraded
// episode, which the next quote repairs.
func (c *Coordinator) heartbeat(round int) {
	if c.cfg.HeartbeatEvery <= 0 || round%c.cfg.HeartbeatEvery != 0 {
		return
	}
	for _, v := range c.slots {
		c.dl.arm(c.cfg.RoundTimeout)
		_ = v2i.SendMsg(c.dl, v.link, v2i.TypeHeartbeat, "smart-grid", c.nextSeq(), &v2i.Heartbeat{
			Epoch: c.epoch, Round: round,
		})
		c.dl.disarm()
	}
}

// liveCount returns the number of energized sections.
func (c *Coordinator) liveCount() int {
	if c.liveIdx == nil {
		return len(c.live)
	}
	return len(c.liveIdx)
}

// refreshLive recomputes liveIdx after live changed.
func (c *Coordinator) refreshLive() {
	idx := c.liveIdx[:0]
	for i, ok := range c.live {
		if ok {
			idx = append(idx, i)
		}
	}
	if len(idx) == len(c.live) {
		idx = nil
	}
	c.liveIdx = idx
}

// isDeparture reports whether an exchange failure means the vehicle's
// link is gone for good (as opposed to a transient timeout): a closed
// in-memory pair or pipe, a closed/ended TCP connection, or an
// explicit Bye.
func isDeparture(err error) bool {
	return errors.Is(err, v2i.ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, errVehicleLeft)
}

// errVehicleLeft marks a Bye received where a Request was expected.
var errVehicleLeft = errors.New("sched: vehicle sent bye")

// breakerTrips reports whether this failed turn is the vehicle's
// EvictAfter-th consecutive failure.
func (c *Coordinator) breakerTrips(v *vehicle) bool {
	return c.cfg.EvictAfter > 0 && v.consecFails+1 >= c.cfg.EvictAfter
}

// removeVehicle zeroes a departed vehicle's schedule, drops its slot,
// and closes its link, returning the power it released. Releasing
// power changes every other vehicle's background load, so the epoch
// advances.
func (c *Coordinator) removeVehicle(v *vehicle) float64 {
	released := sum(v.row)
	c.dropSlot(v)
	_ = v.link.Close()
	c.epoch++
	return released
}

// sayBye sends a best-effort Bye before an eviction so a live but
// unlucky agent exits cleanly instead of blocking on Recv forever.
func (c *Coordinator) sayBye(v *vehicle, reason string) {
	c.dl.arm(c.cfg.RoundTimeout)
	defer c.dl.disarm()
	_ = v2i.SendMsg(c.dl, v.link, v2i.TypeBye, "smart-grid", c.nextSeq(), &v2i.Bye{Reason: reason})
}

// maxBackoffStep caps the exponential backoff at 2^maxBackoffStep
// times the base delay.
const maxBackoffStep = 5

// updateWithRetries drives updateOne, re-quoting after timeouts with
// exponential backoff and jitter, bounded by both MaxRetries and the
// per-vehicle exchange deadline. A lost quote, request or schedule
// frame all look the same from here — a timed-out exchange — and a
// fresh quote resynchronizes both sides, because agents answer every
// quote independently and stale answers are filtered by epoch.
func (c *Coordinator) updateWithRetries(ctx context.Context, v *vehicle, round int) (float64, error) {
	start := now()
	deadline := start.Add(c.exchangeDeadline)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.count(&c.counts.Retries, c.cfg.Metrics.Retries)
			if err := c.backoff(ctx, c.dl, attempt); err != nil {
				break
			}
			if start = now(); start.After(deadline) {
				break
			}
		}
		delta, err := c.updateOne(c.dl, v, round, start)
		if err == nil {
			return delta, nil
		}
		lastErr = err
		if ctx.Err() != nil || isDeparture(err) {
			break // the run is over or the vehicle is gone; don't burn retries
		}
	}
	return 0, lastErr
}

// collectWithRetries is the retry loop around the network half of an
// exchange, used by the batched rounds; the install half runs later on
// Run's goroutine. Retry structure mirrors updateWithRetries.
func (c *Coordinator) collectWithRetries(ctx context.Context, dl *deadline, v *vehicle, round int, others []float64, epoch uint64) (v2i.Request, error) {
	start := now()
	deadline := start.Add(c.exchangeDeadline)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.count(&c.counts.Retries, c.cfg.Metrics.Retries)
			if err := c.backoff(ctx, dl, attempt); err != nil {
				break
			}
			if start = now(); start.After(deadline) {
				break
			}
		}
		req, err := c.collectRequest(dl, v, round, others, epoch, start)
		if err == nil {
			return req, nil
		}
		lastErr = err
		if ctx.Err() != nil || isDeparture(err) {
			break
		}
	}
	return v2i.Request{}, lastErr
}

// runBatchedRound visits the fleet in blocks of batch vehicles: each
// block's quotes go out against the same frozen background load and
// the requests are collected concurrently — overlapping the V2I round
// trips that dominate a distributed round — then water-filled in
// stable block order on this goroutine. Only the collection phase runs
// concurrently, each batch slot under its own deadline; every
// schedule/epoch mutation stays on Run's goroutine, between blocks.
func (c *Coordinator) runBatchedRound(ctx context.Context, visit []*vehicle, round, batch int, handleTurn func(*vehicle, float64, error) error) error {
	for len(c.batchDL) < batch {
		c.batchDL = append(c.batchDL, newDeadline(ctx))
	}
	for len(c.batchOthers) < batch {
		c.batchOthers = append(c.batchOthers, make([]float64, c.cfg.NumSections))
	}
	reqs := make([]v2i.Request, batch)
	errs := make([]error, batch)
	for lo := 0; lo < len(visit); lo += batch {
		hi := lo + batch
		if hi > len(visit) {
			hi = len(visit)
		}
		group := visit[lo:hi]
		epoch := c.epoch
		// One totals vector serves the whole block: every quote in it is
		// against the same frozen background load.
		totals := c.totalsVec()
		var wg sync.WaitGroup
		for i, v := range group {
			c.batchOthers[i] = othersFrom(c.batchOthers[i], totals, v.row)
			wg.Add(1)
			go func(i int, v *vehicle) {
				defer wg.Done()
				reqs[i], errs[i] = c.collectWithRetries(ctx, c.batchDL[i], v, round, c.batchOthers[i], epoch)
			}(i, v)
		}
		wg.Wait()
		for i, v := range group {
			delta, err := 0.0, errs[i]
			if err == nil {
				delta, err = c.installRequest(c.dl, v, round, c.batchOthers[i], reqs[i])
			}
			if herr := handleTurn(v, delta, err); herr != nil {
				return herr
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// backoff waits RetryBackoff·2^(attempt−1) with jitter in the upper
// half of the interval, so re-quotes from many stressed links spread
// out instead of synchronizing. The wait runs on the collector's
// deadline, so cancelling the run ends it at once.
func (c *Coordinator) backoff(ctx context.Context, dl *deadline, attempt int) error {
	shift := attempt - 1
	if shift > maxBackoffStep {
		shift = maxBackoffStep
	}
	ceil := c.cfg.RetryBackoff << shift
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(ceil/2) + 1))
	c.mu.Unlock()
	dl.arm(ceil/2 + jitter)
	<-dl.Done()
	dl.disarm()
	return ctx.Err()
}

// updateOne performs one vehicle's quote → request → schedule exchange
// and returns |Δp_n|: the sequential composition of the network half
// (collectRequest) and the scheduling half (installRequest). from is
// the clock reading the attempt began at.
func (c *Coordinator) updateOne(dl *deadline, v *vehicle, round int, from time.Time) (float64, error) {
	c.others = othersFrom(c.others, c.totalsVec(), v.row)
	req, err := c.collectRequest(dl, v, round, c.others, c.epoch, from)
	if err != nil {
		return 0, err
	}
	return c.installRequest(dl, v, round, c.others, req)
}

// collectRequest is the network half of an exchange: quote Ψ_n against
// the given background load, then wait for a fresh answer, all under
// one arming of the collector's deadline, one RoundTimeout from the
// clock reading from. The receive side filters the
// realities of a lossy link: replayed frames (sequence number at or
// below the last accepted one) and best-responses to an outdated quote
// (epoch mismatch) are counted and discarded, never water-filled. It
// touches only the vehicle's own slot, never the schedule, so batched
// rounds run it concurrently for several vehicles.
func (c *Coordinator) collectRequest(dl *deadline, v *vehicle, round int, others []float64, epoch uint64, from time.Time) (v2i.Request, error) {
	dl.armFrom(from, c.cfg.RoundTimeout)
	defer dl.disarm()

	var liveMask []bool
	if c.liveIdx != nil {
		liveMask = c.live
	}
	v.quote = v2i.Quote{
		VehicleID: v.id, Others: others, Cost: c.cfg.Cost, Round: round, Epoch: epoch,
		FleetSize: len(c.slots), Live: liveMask,
	}
	if err := v2i.SendMsg(dl, v.link, v2i.TypeQuote, "smart-grid", c.nextSeq(), &v.quote); err != nil {
		return v2i.Request{}, fmt.Errorf("send quote: %w", err)
	}
	c.cfg.Metrics.observeQuote(v.id, round, epoch, len(c.slots))

	req := &v.req
	for {
		reply, err := v.link.Recv(dl)
		if err != nil {
			return v2i.Request{}, fmt.Errorf("recv request: %w", err)
		}
		if reply.Type == v2i.TypeBye {
			return v2i.Request{}, errVehicleLeft
		}
		if !c.acceptSeq(v, reply.Seq) {
			continue // duplicated or replayed frame
		}
		if reply.Type != v2i.TypeRequest {
			c.countStale() // e.g. a re-sent Hello; not this exchange's answer
			continue
		}
		// Decoding merges, so every field but the ID string's storage
		// is reset first: an omitted field must not inherit a
		// discarded reply's value.
		*req = v2i.Request{VehicleID: req.VehicleID}
		if err := v2i.Open(reply, v2i.TypeRequest, req); err != nil {
			return v2i.Request{}, err
		}
		if req.Epoch != epoch {
			c.countStale() // best-response against an outdated background load
			continue
		}
		break
	}
	if req.TotalKW < 0 || math.IsNaN(req.TotalKW) || math.IsInf(req.TotalKW, 0) {
		return v2i.Request{}, fmt.Errorf("invalid request %v", req.TotalKW)
	}
	return *req, nil
}

// acceptSeq records an envelope sequence number, reporting whether the
// frame is fresh; replays are counted as stale.
func (c *Coordinator) acceptSeq(v *vehicle, seq uint64) bool {
	if seq <= v.lastSeq {
		c.countStale()
		return false
	}
	v.lastSeq = seq
	return true
}

// countStale records one discarded frame.
func (c *Coordinator) countStale() {
	c.count(&c.counts.StaleDropped, c.cfg.Metrics.Stale)
}

// nextSeq returns the next globally monotonic envelope sequence number.
func (c *Coordinator) nextSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return c.seq
}

// installRequest is the scheduling half of an exchange: water-fill the
// request against the background load it was quoted on into the
// vehicle's row, advance the epoch, and send the vehicle its
// allocation and payment. Always runs on Run's goroutine.
func (c *Coordinator) installRequest(dl *deadline, v *vehicle, round int, others []float64, req v2i.Request) (float64, error) {
	before := sum(v.row)
	var payment float64
	if idx := c.liveIdx; idx != nil {
		// Dead sections take no power: water-fill and price over the
		// compacted live vector, then scatter back with zeroed holes.
		oc, ac := c.compact[:len(idx)], c.compactAlloc[:len(idx)]
		for i, j := range idx {
			oc[i] = others[j]
		}
		c.waterFill(ac, oc, req)
		payment = core.Payment(c.costs[:len(idx)], oc, ac)
		clear(v.row)
		for i, j := range idx {
			v.row[j] = ac[i]
		}
	} else {
		c.waterFill(v.row, others, req)
		payment = core.Payment(c.costs, others, v.row)
	}
	c.tree.update(v.slot)
	c.epoch++ // the background load everyone else was quoted has moved

	dl.arm(c.cfg.RoundTimeout)
	defer dl.disarm()
	v.sched = v2i.ScheduleMsg{VehicleID: v.id, AllocKW: v.row, PaymentH: payment, Round: round}
	err := v2i.SendMsg(dl, v.link, v2i.TypeSchedule, "smart-grid", c.nextSeq(), &v.sched)
	if err != nil {
		return 0, fmt.Errorf("send schedule: %w", err)
	}
	c.cfg.Metrics.observePropose(v.id, round, c.epoch, req.TotalKW)
	return math.Abs(req.TotalKW - before), nil
}

// waterFill places a request's total at minimum cost over others into
// alloc, under the vehicle's Eq. (3) draw cap when it declared one. The
// uncapped fill — the only one a daemon session runs — allocates
// nothing.
func (c *Coordinator) waterFill(alloc, others []float64, req v2i.Request) {
	if req.DrawCapKW > 0 {
		capped, _ := core.PerDrawWaterFill(others, req.DrawCapKW, req.TotalKW)
		copy(alloc, capped)
		return
	}
	core.WaterFillInto(alloc, c.fill, others, req.TotalKW)
}

// saveCheckpoint journals the converged schedule as the new
// last-known-good. Persistence is best-effort: a journal write
// failure degrades crash recovery, not the live run.
func (c *Coordinator) saveCheckpoint(round int) bool {
	if c.cfg.Journal == nil {
		return false
	}
	c.mu.Lock()
	seq := c.seq
	c.mu.Unlock()
	cp := Checkpoint{
		Epoch:       c.epoch,
		Round:       round,
		NumSections: c.cfg.NumSections,
		Seq:         seq,
		Schedule:    make(map[string][]float64, len(c.slots)),
	}
	for _, v := range c.slots {
		cp.Schedule[v.id] = append([]float64(nil), v.row...)
	}
	saved := c.cfg.Journal.Save(cp) == nil
	if saved {
		c.cfg.Metrics.Checkpoints.Inc()
	}
	return saved
}

// fallBackToLastGood replaces a half-settled schedule with the
// journaled last converged one after MaxRounds ran out: the grid
// degrades to the previous feasible operating point instead of
// serving an un-converged schedule.
func (c *Coordinator) fallBackToLastGood() bool {
	if c.cfg.Journal == nil {
		return false
	}
	cp, ok, err := c.cfg.Journal.Load()
	if err != nil || !ok {
		return false
	}
	return c.restoreCheckpoint(cp)
}

// restoreCheckpoint copies a compatible checkpoint's rows over the
// current fleet: vehicles present in both keep their journaled
// allocation, vehicles unknown to the checkpoint reset to zero.
func (c *Coordinator) restoreCheckpoint(cp Checkpoint) bool {
	if cp.NumSections != c.cfg.NumSections {
		return false
	}
	for _, v := range c.slots {
		clear(v.row)
		if saved, ok := cp.Schedule[v.id]; ok && len(saved) == c.cfg.NumSections {
			copy(v.row, saved)
		}
	}
	c.tree.rebuild()
	if cp.Epoch >= c.epoch {
		c.epoch = cp.Epoch
	}
	c.epoch++
	return true
}

// broadcastDone tells every agent the game is over. Failures here are
// deliberately ignored: agents also exit on transport close.
func (c *Coordinator) broadcastDone(report Report) {
	for _, v := range c.slots {
		c.dl.arm(c.cfg.RoundTimeout)
		_ = v2i.SendMsg(c.dl, v.link, v2i.TypeConverged, "smart-grid", c.nextSeq(), &v2i.Converged{
			Rounds:           report.Rounds,
			CongestionDegree: report.CongestionDegree,
			WelfarePerHour:   -report.WelfareCost,
		})
		_ = v2i.SendMsg(c.dl, v.link, v2i.TypeBye, "smart-grid", c.nextSeq(), &v2i.Bye{Reason: "converged"})
		c.dl.disarm()
	}
}

// totalsVec returns the full P_c vector: the section tree's root, a
// pairwise fold of the rows in slot (sorted vehicle-ID) order. The
// slice is the tree's own and changes with the next row write. Every
// quote derives its vehicle's background load from it as totals − own.
func (c *Coordinator) totalsVec() []float64 { return c.tree.root() }

// othersFrom derives P_−n as totals − own, elementwise, into dst's
// storage. A sequential turn and a batched block quote through the
// same derivation, so their background loads agree bit for bit.
func othersFrom(dst, totals, own []float64) []float64 {
	dst = append(dst[:0], totals...)
	for i := range dst {
		dst[i] -= own[i]
	}
	return dst
}

// SectionTotals returns the current P_c vector.
func (c *Coordinator) SectionTotals() []float64 {
	return append([]float64(nil), c.totalsVec()...)
}

// CongestionDegree returns Σp / ΣP_line.
func (c *Coordinator) CongestionDegree() float64 {
	return c.totalPower() / (float64(c.cfg.NumSections) * c.cfg.LineCapacityKW)
}

func (c *Coordinator) totalPower() float64 {
	return sum(c.totalsVec())
}

func (c *Coordinator) welfareCost() float64 {
	var total float64
	for _, pc := range c.totalsVec() {
		total += c.cost.Cost(pc)
	}
	return total
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

// CollectHellos accepts one Hello per expected vehicle from a server,
// returning the transports keyed by vehicle ID. It is the listener
// half of a TCP deployment.
func CollectHellos(ctx context.Context, srv *v2i.Server, expect int, timeout time.Duration) (map[string]v2i.Transport, error) {
	if expect < 1 {
		return nil, fmt.Errorf("sched: expect %d vehicles", expect)
	}
	links := make(map[string]v2i.Transport, expect)
	for len(links) < expect {
		t, err := srv.Accept()
		if err != nil {
			closeAll(links)
			return nil, err
		}
		hctx, cancel := context.WithTimeout(ctx, timeout)
		env, err := t.Recv(hctx)
		cancel()
		if err != nil {
			_ = t.Close()
			closeAll(links)
			return nil, fmt.Errorf("sched: hello: %w", err)
		}
		var hello v2i.Hello
		if err := v2i.Open(env, v2i.TypeHello, &hello); err != nil {
			_ = t.Close()
			closeAll(links)
			return nil, err
		}
		if hello.VehicleID == "" {
			_ = t.Close()
			closeAll(links)
			return nil, errors.New("sched: hello without vehicle ID")
		}
		if _, dup := links[hello.VehicleID]; dup {
			_ = t.Close()
			closeAll(links)
			return nil, fmt.Errorf("sched: duplicate vehicle %q", hello.VehicleID)
		}
		links[hello.VehicleID] = t
	}
	return links, nil
}

func closeAll(links map[string]v2i.Transport) {
	for _, t := range links {
		_ = t.Close()
	}
}
