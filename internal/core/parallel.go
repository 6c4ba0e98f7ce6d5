package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"olevgrid/internal/stats"
)

// This file is the fleet-scale round engine for the Section IV
// dynamics: a worker pool evaluates best responses for a block of
// OLEVs concurrently against the frozen schedule, and a single
// committer installs the block in stable player order. The engine
// keeps the aggregate loads P_−n,c, the per-section costs Z(P_c) and
// the per-player satisfactions U_n(p_n) incrementally — per-section
// deltas instead of O(N·C) rebuilds — and reuses all scratch buffers,
// so a steady-state turn performs zero heap allocations.
//
// Determinism contract: the result of RunParallel depends on the game,
// MaxRounds, Tolerance, BatchSize, Order and Seed, but NOT on
// Parallelism. Block membership is fixed (the visit order — index
// order, or a seeded per-round shuffle under OrderRandom — sliced
// BatchSize at a time), every proposal is a pure function of the
// frozen round state, and the reduction (commit) order is the stable
// visit order, so running with one worker or sixteen produces
// bit-for-bit identical schedules. The differential suite in
// differential_test.go enforces this.
//
// Convergence safety: a block of simultaneous best responses is a
// Jacobi step, which an exact potential game does not guarantee to
// improve (see RunSynchronous for the failure mode). The committer
// therefore guards every block with the potential itself: a block that
// decreases the social welfare W beyond float noise, or that moves
// players by at least the convergence tolerance while gaining no
// welfare (the signature of a Jacobi cycle, whose states can share
// identical W by symmetry), is rolled back and replayed
// player-by-player — an exact Gauss–Seidel pass, which Theorem IV.1
// guarantees is monotone. W is therefore nondecreasing across rounds,
// and since it is bounded above, block gains must vanish; once they do,
// any block still moving players replays sequentially, so the dynamics
// degenerate to convergent Gauss–Seidel instead of cycling. The cost is
// that the last few rounds before convergence may serialize; the
// steady-state turns the benchmark measures never replay.

// ParallelOptions configures Game.RunParallel.
type ParallelOptions struct {
	// MaxRounds bounds full rounds over the fleet; 0 means 1000.
	MaxRounds int
	// Tolerance declares convergence when no player's total request
	// moved more than this over a full round; 0 means 1e-6.
	Tolerance float64
	// Parallelism is the worker count for the proposal phase; 0 means
	// GOMAXPROCS, 1 evaluates proposals inline on the calling
	// goroutine (the sequential reference the differential suite and
	// the speedup benchmark compare against).
	Parallelism int
	// BatchSize is the number of players whose best responses are
	// speculated against the same frozen schedule before the block is
	// committed. It is part of the determinism contract — changing it
	// changes the trajectory — while Parallelism never does. 0 means
	// DefaultBatchSize; 1 degenerates to exact Gauss–Seidel.
	BatchSize int
	// Order selects the per-round visit order; 0 means
	// OrderRoundRobin. OrderRandom reshuffles the order each round from
	// Seed — the paper's "randomly chosen OLEV" dynamics, which break
	// the symmetry that makes deterministic order slow on homogeneous
	// fleets. Like BatchSize, Order and Seed are part of the
	// determinism contract; Parallelism still is not.
	Order UpdateOrder
	// Seed seeds the shuffle for OrderRandom.
	Seed int64
	// OnRound, if non-nil, observes the game after every round.
	OnRound func(round int, g *Game)
	// Metrics, if non-nil, receives solver telemetry (rounds, deltas,
	// welfare trajectory, end-of-solve reconciliation values). Nil is
	// the zero-overhead off switch; armed, it adds only atomic stores
	// per round and never changes results — both halves of that
	// contract are asserted by the conformance tests.
	Metrics *Metrics
}

// DefaultBatchSize is the speculative block size when
// ParallelOptions.BatchSize is zero: wide enough to keep a worker pool
// busy, narrow enough that blocks rarely trip the welfare guard.
const DefaultBatchSize = 8

// welfareGuardRelEps is the relative slack the block-commit welfare
// guard allows before declaring a Jacobi block harmful: decreases
// within float noise of the running welfare are accepted, anything
// larger rolls the block back for a sequential replay.
const welfareGuardRelEps = 1e-9

// ParallelResult reports a RunParallel execution. Trajectories are
// per round (not per update): the engine's unit of progress is the
// round, and recording per round keeps the steady-state turn
// allocation-free.
type ParallelResult struct {
	// Rounds is the number of full rounds executed.
	Rounds int
	// Updates is Rounds times the fleet size, for comparability with
	// Result.Updates.
	Updates int
	// Converged reports whether the tolerance criterion was met.
	Converged bool
	// Welfare is W(p) after each round.
	Welfare []float64
	// Congestion is the congestion degree after each round.
	Congestion []float64
	// Replayed counts blocks the welfare guard rolled back and
	// replayed sequentially.
	Replayed int
}

// RunParallel executes the block-speculative best-response iteration
// until the schedule converges or MaxRounds is exhausted. See the file
// comment for the engine's semantics and determinism contract.
func (g *Game) RunParallel(opts ParallelOptions) ParallelResult {
	e := newRoundEngine(g, opts.Parallelism, opts.BatchSize, opts.Tolerance)
	defer e.stop()
	return e.loop(opts)
}

// loop drives rounds until convergence or the round budget runs out.
// It is reusable across solves on a persistent engine (Solver): each
// call re-arms the tolerance and resets the visit order, and Replayed
// is reported as a delta over this solve only, so back-to-back solves
// behave exactly like fresh RunParallel calls on the carried-over
// schedule. Parallelism and BatchSize stay as constructed.
func (e *roundEngine) loop(opts ParallelOptions) ParallelResult {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 1000
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-6
	}
	e.tol = opts.Tolerance
	e.setOrder(opts.Order, opts.Seed)
	replayedBefore := e.replayed

	res := ParallelResult{
		Welfare:    make([]float64, 0, opts.MaxRounds),
		Congestion: make([]float64, 0, opts.MaxRounds),
	}
	for round := 1; round <= opts.MaxRounds; round++ {
		maxDelta := e.round()
		res.Rounds = round
		res.Updates += e.n
		w := e.welfare()
		cd := e.congestion()
		res.Welfare = append(res.Welfare, w)
		res.Congestion = append(res.Congestion, cd)
		opts.Metrics.observeRound(round, maxDelta, w, cd)
		if opts.OnRound != nil {
			opts.OnRound(round, e.g)
		}
		if maxDelta < opts.Tolerance {
			res.Converged = true
			break
		}
	}
	res.Replayed = e.replayed - replayedBefore
	opts.Metrics.observeSolve(e.g, &res)
	return res
}

// proposal is one player's speculated best response against the frozen
// block state.
type proposal struct {
	target float64
	row    []float64
}

// fillScratch is one worker's reusable buffers for quote construction
// and water-level evaluation.
type fillScratch struct {
	others []float64
	sorted []float64
	prefix []float64
}

func newFillScratch(c int) *fillScratch {
	return &fillScratch{
		others: make([]float64, c),
		sorted: make([]float64, c),
		prefix: make([]float64, c+1),
	}
}

// span is a half-open player-index range handed to the worker pool.
type span struct{ lo, hi int }

// roundEngine owns the incremental state of one RunParallel execution.
type roundEngine struct {
	g    *Game
	cost CostFunction
	// costMarg is cost.Marginal with the interface dispatch stripped
	// for the known concrete compositions (see marginalOf); it is what
	// the bisection in propose actually calls.
	costMarg func(float64) float64
	n, c     int
	workers  int
	batch    int
	tol      float64 // convergence tolerance; also arms the stall guard

	// Incrementally maintained aggregates.
	totals      []float64 // P_c
	costAt      []float64 // Z(P_c) cached per section
	costSum     float64   // Σ_c Z(P_c)
	satAt       []float64 // U_n(p_n) cached per player
	satSum      float64   // Σ_n U_n(p_n)
	playerTotal []float64 // p_n
	totalPower  float64   // Σ_n p_n

	// Block scratch: proposals plus the state needed to roll a block
	// back when the welfare guard trips.
	props       []proposal
	before      []float64
	savedTotals []float64
	savedCostAt []float64
	savedRows   [][]float64
	savedSat    []float64
	savedPTotal []float64

	// Worker pool. next distributes visit-order slots; start releases
	// the workers on a block; pending gates the committer.
	scratch []*fillScratch
	start   chan span
	next    atomic.Int64
	pending sync.WaitGroup

	// order is the per-round visit permutation (identity under
	// OrderRoundRobin); rng and swap are armed by enableRandomOrder and
	// reshuffle it each round without allocating.
	order []int
	rng   *rand.Rand
	swap  func(i, j int)

	replayed int
}

func newRoundEngine(g *Game, parallelism, batch int, tol float64) *roundEngine {
	n, c := g.NumPlayers(), g.NumSections()
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	if batch > n {
		batch = n
	}
	e := &roundEngine{
		g: g, cost: g.cfg.Cost, costMarg: marginalOf(g.cfg.Cost), n: n, c: c,
		workers:     parallelism,
		batch:       batch,
		tol:         tol,
		totals:      make([]float64, c),
		costAt:      make([]float64, c),
		satAt:       make([]float64, n),
		playerTotal: make([]float64, n),
		props:       make([]proposal, batch),
		before:      make([]float64, batch),
		savedTotals: make([]float64, c),
		savedCostAt: make([]float64, c),
		savedRows:   make([][]float64, batch),
		savedSat:    make([]float64, batch),
		savedPTotal: make([]float64, batch),
		scratch:     make([]*fillScratch, parallelism),
		order:       make([]int, n),
	}
	for i := range e.order {
		e.order[i] = i
	}
	for i := range e.props {
		e.props[i].row = make([]float64, c)
		e.savedRows[i] = make([]float64, c)
	}
	for i := range e.scratch {
		e.scratch[i] = newFillScratch(c)
	}
	e.prime()
	if e.workers > 1 {
		e.start = make(chan span)
		for w := 1; w < e.workers; w++ {
			go e.worker(e.start, e.scratch[w])
		}
	}
	return e
}

// setOrder resets the visit permutation to identity and arms (or
// disarms) the seeded per-round reshuffle. Resetting first makes each
// solve on a persistent engine independent of where the previous
// solve's shuffle left the permutation — the cross-solve half of the
// determinism contract. The swap closure is bound once so the
// steady-state round stays allocation-free.
func (e *roundEngine) setOrder(order UpdateOrder, seed int64) {
	for i := range e.order {
		e.order[i] = i
	}
	if order != OrderRandom {
		e.rng = nil
		return
	}
	e.rng = stats.NewRand(seed)
	if e.swap == nil {
		e.swap = func(i, j int) { e.order[i], e.order[j] = e.order[j], e.order[i] }
	}
}

// setCost swaps the shared section cost — an LBMP β step between
// hours — and refreshes only the Z cache: one O(C) pass over the
// standing totals, with satisfactions and aggregates untouched.
func (e *roundEngine) setCost(cost CostFunction) {
	e.cost = cost
	e.costMarg = marginalOf(cost)
	e.g.cfg.Cost = cost
	e.costSum = 0
	for c := range e.totals {
		e.costAt[c] = cost.Cost(e.totals[c])
		e.costSum += e.costAt[c]
	}
}

// setPlayer replaces player n's definition (a demand or ceiling
// change) and refreshes only that player's cached satisfaction.
func (e *roundEngine) setPlayer(n int, p Player) {
	e.g.cfg.Players[n] = p
	sat := p.Satisfaction.Value(e.playerTotal[n])
	e.satSum += sat - e.satAt[n]
	e.satAt[n] = sat
}

// setSchedule replaces the standing schedule wholesale and re-primes
// the aggregates — the one O(N·C) entry point of a warm re-solve.
func (e *roundEngine) setSchedule(s *Schedule) error {
	if err := validateInitialSchedule(s, e.n, e.c); err != nil {
		return err
	}
	copy(e.g.schedule.p, s.p)
	e.prime()
	return nil
}

// prime seeds the incremental aggregates from the game's current
// schedule — the one O(N·C) pass the engine ever does.
func (e *roundEngine) prime() {
	for i := range e.totals {
		e.totals[i] = 0
	}
	e.totalPower, e.satSum, e.costSum = 0, 0, 0
	for n := 0; n < e.n; n++ {
		row := e.rowRef(n)
		var sum float64
		for c, v := range row {
			e.totals[c] += v
			sum += v
		}
		e.playerTotal[n] = sum
		e.totalPower += sum
		e.satAt[n] = e.g.cfg.Players[n].Satisfaction.Value(sum)
		e.satSum += e.satAt[n]
	}
	for c := range e.totals {
		e.costAt[c] = e.cost.Cost(e.totals[c])
		e.costSum += e.costAt[c]
	}
}

// stop winds the worker pool down.
func (e *roundEngine) stop() {
	if e.start != nil {
		close(e.start)
		e.start = nil
	}
}

// rowRef returns OLEV n's live row in the game schedule — the engine
// mutates the schedule in place, so Game accessors stay truthful
// mid-run.
func (e *roundEngine) rowRef(n int) []float64 {
	s := e.g.schedule
	return s.p[n*s.c : (n+1)*s.c]
}

func (e *roundEngine) welfare() float64 { return e.satSum - e.costSum }
func (e *roundEngine) congestion() float64 {
	return e.totalPower / (float64(e.c) * e.g.cfg.LineCapacityKW)
}

// worker is one pool goroutine: on every released span it steals
// player indices until the span is drained. It gets the channel as an
// argument: stop clears e.start, and a worker that read the field late
// would range over nil and leak.
func (e *roundEngine) worker(start <-chan span, ws *fillScratch) {
	for sp := range start {
		e.drain(sp, ws)
		e.pending.Done()
	}
}

func (e *roundEngine) drain(sp span, ws *fillScratch) {
	for {
		i := int(e.next.Add(1)) - 1
		if i >= sp.hi {
			return
		}
		e.propose(e.order[i], i-sp.lo, ws)
	}
}

// round visits the whole fleet in blocks along the visit order and
// returns the maximum |Δp_n| observed.
func (e *roundEngine) round() float64 {
	if e.rng != nil {
		e.rng.Shuffle(e.n, e.swap)
	}
	var maxDelta float64
	for lo := 0; lo < e.n; lo += e.batch {
		hi := lo + e.batch
		if hi > e.n {
			hi = e.n
		}
		e.proposeBlock(lo, hi)
		if d := e.commitBlock(lo, hi); d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta
}

// proposeBlock computes best responses for players [lo, hi) against
// the frozen current schedule — the parallel phase.
func (e *roundEngine) proposeBlock(lo, hi int) {
	if e.workers <= 1 || hi-lo == 1 {
		for i := lo; i < hi; i++ {
			e.propose(e.order[i], i-lo, e.scratch[0])
		}
		return
	}
	e.next.Store(int64(lo))
	workers := e.workers - 1 // the committer goroutine also drains
	e.pending.Add(workers)
	sp := span{lo: lo, hi: hi}
	for w := 0; w < workers; w++ {
		e.start <- sp
	}
	e.drain(sp, e.scratch[0])
	e.pending.Wait()
}

// propose computes player n's exact best response against the frozen
// schedule into block slot. It is a pure function of the engine's
// frozen aggregates, so the result is identical no matter which worker
// runs it — the heart of the determinism contract.
func (e *roundEngine) propose(n, slot int, ws *fillScratch) {
	player := e.g.cfg.Players[n]
	row := e.rowRef(n)
	for c := range ws.others {
		o := e.totals[c] - row[c]
		if o < 0 { // guard against float drift, as OthersSectionTotals does
			o = 0
		}
		ws.others[c] = o
	}
	sortBreakpoints(ws.sorted, ws.prefix, ws.others)

	drawCap := player.MaxSectionDrawKW
	pmax := player.MaxPowerKW
	if drawCap > 0 {
		if ceiling := drawCap * float64(e.c); pmax > ceiling {
			pmax = ceiling
		}
	}
	prop := &e.props[slot]
	if pmax <= 0 {
		prop.target = 0
		for c := range prop.row {
			prop.row[c] = 0
		}
		return
	}

	// The bisection evaluates the derivative dozens of times per player
	// per round, so both marginals are devirtualized: the section cost
	// through the engine's cached costMarg, the satisfaction through a
	// concrete fast path for the evaluation's LogSatisfaction. Each
	// shortcut performs the same operations in the same order as the
	// interface method it replaces, keeping the trajectory bit-identical.
	costMarg := e.costMarg
	logSat, isLog := player.Satisfaction.(LogSatisfaction)
	satMarg := func(p float64) float64 {
		if isLog {
			if p < 0 {
				p = 0
			}
			return logSat.Weight / (1 + p)
		}
		return player.Satisfaction.Marginal(p)
	}

	// The same solves as BestResponse, so the two solvers stay
	// bit-compatible.
	var target, level float64
	if drawCap > 0 {
		levelOf := func(p float64) float64 { return cappedLevelSorted(ws.sorted, ws.prefix, drawCap, p) }
		target = bisectCapped(pmax, func(p float64) float64 { return satMarg(p) - costMarg(levelOf(p)) })
		level = levelOf(target)
	} else {
		target = bisectUncapped(ws.sorted, ws.prefix, pmax, func(p, level float64) float64 {
			return satMarg(p) - costMarg(level)
		})
		level = levelSorted(ws.sorted, ws.prefix, target)
	}
	prop.target = target
	fillRow(prop.row, ws.others, drawCap, target, level)
}

// fillRow writes the water-filled allocation for the given level into
// dst, honoring a per-section draw cap, and repairs the residual so
// the row sums exactly to target (mirroring PerDrawWaterFill).
func fillRow(dst, others []float64, drawCap, target, level float64) {
	if target <= 0 {
		for c := range dst {
			dst[c] = 0
		}
		return
	}
	var sum float64
	for c, o := range others {
		a := level - o
		if a <= 0 {
			dst[c] = 0
			continue
		}
		if drawCap > 0 && a > drawCap {
			a = drawCap
		}
		dst[c] = a
		sum += a
	}
	if drawCap <= 0 {
		return
	}
	// Under a cap the level solve can leave a residual; spread it over
	// the uncapped active sections exactly as PerDrawWaterFill does.
	if diff := target - sum; math.Abs(diff) > 1e-15 {
		var slack float64
		for c := range dst {
			if dst[c] > 0 && dst[c] < drawCap {
				slack += dst[c]
			}
		}
		if slack > 0 {
			for c := range dst {
				if dst[c] > 0 && dst[c] < drawCap {
					dst[c] += diff * dst[c] / slack
				}
			}
		}
	}
}

// cappedLevelSorted solves Y(λ) = Σ_c min([λ − o_c]^+, cap) = total on
// a sorted background by walking the 2C breakpoints {o_i} ∪ {o_i+cap}
// with two pointers — exact and allocation-free, where
// PerDrawWaterFill bisects. Between breakpoints Y is linear:
// Y(λ) = cap·j + (k−j)·λ − (prefix_k − prefix_j) with k sections
// entered (λ > o_i) and j of them capped (λ ≥ o_i + cap).
func cappedLevelSorted(sorted, prefix []float64, cap, total float64) float64 {
	c := len(sorted)
	if total <= 0 {
		return sorted[0]
	}
	if maxAlloc := float64(c) * cap; total >= maxAlloc {
		// Every section saturates; mirror PerDrawWaterFill's convention
		// for the shortfall-carrying level.
		return sorted[0] + cap + (total-maxAlloc)/float64(c)
	}
	k, j := 0, 0
	for {
		// The next breakpoint is the smaller of "section k enters" and
		// "section j caps out".
		var bp float64
		switch {
		case k < c && (j >= k || sorted[k] <= sorted[j]+cap):
			bp = sorted[k]
		default:
			bp = sorted[j] + cap
		}
		// Y at the candidate breakpoint with the current (k, j).
		y := cap*float64(j) + float64(k-j)*bp - (prefix[k] - prefix[j])
		if y >= total {
			if k == j { // flat segment; cannot happen with y rising past total
				return bp
			}
			return (total - cap*float64(j) + prefix[k] - prefix[j]) / float64(k-j)
		}
		if k < c && (j >= k || sorted[k] <= sorted[j]+cap) {
			k++
		} else {
			j++
		}
		if j >= c {
			// All capped before absorbing total — excluded by the
			// maxAlloc clamp above, but keep the walk total.
			return sorted[c-1] + cap
		}
	}
}

// commitBlock installs the block's proposals in stable player order,
// maintaining every aggregate incrementally, then checks the welfare
// guard. It returns the block's maximum |Δp_n|.
func (e *roundEngine) commitBlock(lo, hi int) float64 {
	welfareBefore := e.welfare()
	copy(e.savedTotals, e.totals)
	copy(e.savedCostAt, e.costAt)
	savedCostSum, savedSatSum, savedPower := e.costSum, e.satSum, e.totalPower
	for i := lo; i < hi; i++ {
		slot := i - lo
		n := e.order[i]
		copy(e.savedRows[slot], e.rowRef(n))
		e.savedSat[slot] = e.satAt[n]
		e.savedPTotal[slot] = e.playerTotal[n]
		e.before[slot] = e.playerTotal[n]
	}

	var maxDelta float64
	for i := lo; i < hi; i++ {
		slot := i - lo
		if d := e.install(e.order[i], &e.props[slot]); d > maxDelta {
			maxDelta = d
		}
	}
	e.refreshCosts(e.savedTotals)

	// Replay when the block is harmful (welfare dropped beyond float
	// noise) or stalled (players moved at least the convergence
	// tolerance yet welfare gained nothing — a Jacobi cycle signature).
	noise := welfareGuardRelEps * (1 + math.Abs(welfareBefore))
	gain := e.welfare() - welfareBefore
	if gain < -noise || (gain <= noise && maxDelta >= e.tol && e.tol > 0) {
		// Roll back and replay sequentially — exact Gauss–Seidel,
		// monotone in the potential.
		e.costSum, e.satSum, e.totalPower = savedCostSum, savedSatSum, savedPower
		copy(e.totals, e.savedTotals)
		copy(e.costAt, e.savedCostAt)
		for i := lo; i < hi; i++ {
			slot := i - lo
			n := e.order[i]
			copy(e.rowRef(n), e.savedRows[slot])
			e.satAt[n] = e.savedSat[slot]
			e.playerTotal[n] = e.savedPTotal[slot]
		}
		e.replayed++
		maxDelta = 0
		for i := lo; i < hi; i++ {
			slot := i - lo
			n := e.order[i]
			e.propose(n, slot, e.scratch[0]) // against the *current* state
			copy(e.savedTotals, e.totals)
			if d := e.install(n, &e.props[slot]); d > maxDelta {
				maxDelta = d
			}
			e.refreshCosts(e.savedTotals)
		}
	}
	return maxDelta
}

// install writes one proposal into the schedule, updating totals,
// player totals, satisfaction caches and total power; section costs
// are refreshed separately (refreshCosts) so a block's cost evaluation
// is amortized. Returns |Δp_n| against the pre-block total.
func (e *roundEngine) install(n int, prop *proposal) float64 {
	row := e.rowRef(n)
	var sum float64
	for c, v := range prop.row {
		if d := v - row[c]; d != 0 {
			e.totals[c] += d
			if e.totals[c] < 0 {
				e.totals[c] = 0
			}
			row[c] = v
		}
		sum += v
	}
	delta := math.Abs(prop.target - e.playerTotal[n])
	e.totalPower += sum - e.playerTotal[n]
	e.playerTotal[n] = sum
	sat := e.g.cfg.Players[n].Satisfaction.Value(sum)
	e.satSum += sat - e.satAt[n]
	e.satAt[n] = sat
	return delta
}

// refreshCosts re-evaluates Z only on sections whose total moved since
// the reference snapshot — the per-(section, load) cost cache.
func (e *roundEngine) refreshCosts(ref []float64) {
	for c, t := range e.totals {
		if t == ref[c] {
			continue
		}
		z := e.cost.Cost(t)
		e.costSum += z - e.costAt[c]
		e.costAt[c] = z
	}
}
