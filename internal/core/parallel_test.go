package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"olevgrid/internal/obs"
)

// parallelTestGame builds a moderately heterogeneous game for the
// round-engine tests.
func parallelTestGame(t *testing.T, n, c int) *Game {
	t.Helper()
	g, err := NewGame(testConfig(t, n, c))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunParallelConvergesToEquilibrium(t *testing.T) {
	// The equilibrium is unique (strictly concave U, strictly convex
	// Z), so the block engine and the asynchronous reference must land
	// on the same section totals and player totals.
	gSeq := parallelTestGame(t, 20, 12)
	gPar := parallelTestGame(t, 20, 12)

	resSeq := gSeq.Run(RunOptions{Tolerance: 1e-10, MaxUpdates: 200000})
	if !resSeq.Converged {
		t.Fatal("asynchronous reference did not converge")
	}
	resPar := gPar.RunParallel(ParallelOptions{Tolerance: 1e-10, MaxRounds: 20000, Parallelism: 4})
	if !resPar.Converged {
		t.Fatal("parallel engine did not converge")
	}

	seqTotals := gSeq.SectionTotals()
	parTotals := gPar.SectionTotals()
	for c := range seqTotals {
		if d := math.Abs(seqTotals[c] - parTotals[c]); d > 1e-6 {
			t.Errorf("section %d totals diverge: %v vs %v", c, seqTotals[c], parTotals[c])
		}
	}
	sSeq, sPar := gSeq.Schedule(), gPar.Schedule()
	for n := 0; n < gSeq.NumPlayers(); n++ {
		if d := math.Abs(sSeq.OLEVTotal(n) - sPar.OLEVTotal(n)); d > 1e-6 {
			t.Errorf("player %d totals diverge: %v vs %v", n, sSeq.OLEVTotal(n), sPar.OLEVTotal(n))
		}
	}
	if d := math.Abs(gSeq.Welfare() - gPar.Welfare()); d > 1e-6 {
		t.Errorf("welfare diverges: %v vs %v", gSeq.Welfare(), gPar.Welfare())
	}
}

func TestRunParallelWelfareMonotonePerRound(t *testing.T) {
	g := parallelTestGame(t, 24, 16)
	res := g.RunParallel(ParallelOptions{Parallelism: 3, BatchSize: 6})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	guard := 0.0
	for i := 1; i < len(res.Welfare); i++ {
		slack := welfareGuardRelEps * (1 + math.Abs(res.Welfare[i-1]))
		if res.Welfare[i] < res.Welfare[i-1]-slack {
			t.Errorf("round %d welfare regressed: %v -> %v", i+1, res.Welfare[i-1], res.Welfare[i])
		}
		guard = math.Max(guard, res.Welfare[i-1]-res.Welfare[i])
	}
	t.Logf("rounds=%d replayed=%d worst per-round dip=%g", res.Rounds, res.Replayed, guard)
}

func TestRunParallelBatchOneMatchesGaussSeidelEquilibrium(t *testing.T) {
	// BatchSize 1 degenerates to exact per-player Gauss–Seidel in
	// round-robin order — the same dynamics as Run(OrderRoundRobin) up
	// to incremental-vs-rebuilt float summation, so the converged
	// schedules must agree to well below any physical scale.
	gSeq := parallelTestGame(t, 15, 10)
	gPar := parallelTestGame(t, 15, 10)
	if res := gSeq.Run(RunOptions{Tolerance: 1e-11, MaxUpdates: 300000, Order: OrderRoundRobin}); !res.Converged {
		t.Fatal("reference did not converge")
	}
	if res := gPar.RunParallel(ParallelOptions{Tolerance: 1e-11, MaxRounds: 20000, BatchSize: 1}); !res.Converged {
		t.Fatal("engine did not converge")
	}
	sSeq, sPar := gSeq.Schedule(), gPar.Schedule()
	for n := 0; n < gSeq.NumPlayers(); n++ {
		for c := 0; c < gSeq.NumSections(); c++ {
			if d := math.Abs(sSeq.At(n, c) - sPar.At(n, c)); d > 1e-7 {
				t.Fatalf("entry (%d,%d) diverges: %v vs %v", n, c, sSeq.At(n, c), sPar.At(n, c))
			}
		}
	}
}

func TestRunParallelHonorsDrawCaps(t *testing.T) {
	cfg := testConfig(t, 12, 8)
	for i := range cfg.Players {
		cfg.Players[i].MaxSectionDrawKW = 3.5
	}
	g, err := NewGame(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := g.RunParallel(ParallelOptions{Parallelism: 2})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	s := g.Schedule()
	for n := 0; n < g.NumPlayers(); n++ {
		for c := 0; c < g.NumSections(); c++ {
			if s.At(n, c) > 3.5+1e-9 {
				t.Fatalf("player %d section %d draw %v exceeds cap", n, c, s.At(n, c))
			}
		}
	}
	// The capped equilibrium must match the asynchronous solver's.
	g2, err := NewGame(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := g2.Run(RunOptions{Tolerance: 1e-9, MaxUpdates: 100000}); !r.Converged {
		t.Fatal("reference did not converge")
	}
	tseq, tpar := g2.SectionTotals(), g.SectionTotals()
	for c := range tseq {
		if d := math.Abs(tseq[c] - tpar[c]); d > 1e-4 {
			t.Errorf("capped section %d totals diverge: %v vs %v", c, tseq[c], tpar[c])
		}
	}
}

func TestRunParallelGuardReplaysHarmfulBlocks(t *testing.T) {
	// Identical players all chasing the same sections is the classic
	// Jacobi failure mode (see RunSynchronous); with a full-fleet batch
	// the guard must catch any harmful block, keep welfare monotone,
	// and still converge.
	n := 16
	players := make([]Player, n)
	for i := range players {
		players[i] = Player{
			ID:           fmt.Sprintf("twin-%d", i),
			MaxPowerKW:   80,
			Satisfaction: LogSatisfaction{Weight: 2},
		}
	}
	v, err := NewQuadraticCharging(0.02, 0.875, 45)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGame(Config{
		Players: players, NumSections: 6, LineCapacityKW: 50, Eta: 0.9, Cost: v,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := g.RunParallel(ParallelOptions{BatchSize: n, Parallelism: 4, MaxRounds: 5000})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for i := 1; i < len(res.Welfare); i++ {
		slack := welfareGuardRelEps * (1 + math.Abs(res.Welfare[i-1]))
		if res.Welfare[i] < res.Welfare[i-1]-slack {
			t.Fatalf("welfare regressed at round %d despite guard", i+1)
		}
	}
	t.Logf("full-batch twins: rounds=%d replayed=%d", res.Rounds, res.Replayed)
}

func TestRunParallelRecordsPerRoundTrajectories(t *testing.T) {
	g := parallelTestGame(t, 10, 6)
	var observed int
	res := g.RunParallel(ParallelOptions{OnRound: func(round int, g *Game) { observed = round }})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if len(res.Welfare) != res.Rounds || len(res.Congestion) != res.Rounds {
		t.Fatalf("trajectory lengths %d/%d != rounds %d", len(res.Welfare), len(res.Congestion), res.Rounds)
	}
	if observed != res.Rounds {
		t.Fatalf("OnRound saw %d rounds, result says %d", observed, res.Rounds)
	}
	if res.Updates != res.Rounds*g.NumPlayers() {
		t.Fatalf("updates %d != rounds*N %d", res.Updates, res.Rounds*g.NumPlayers())
	}
	// The final recorded welfare/congestion must match the game's own
	// accessors — the incremental caches cannot drift from the truth.
	if d := math.Abs(res.Welfare[len(res.Welfare)-1] - g.Welfare()); d > 1e-9 {
		t.Errorf("cached welfare drifted from recomputed by %g", d)
	}
	if d := math.Abs(res.Congestion[len(res.Congestion)-1] - g.CongestionDegree()); d > 1e-12 {
		t.Errorf("cached congestion drifted from recomputed by %g", d)
	}
}

func TestRoundEngineSteadyStateZeroAllocs(t *testing.T) {
	g := parallelTestGame(t, 20, 16)
	e := newRoundEngine(g, 2, DefaultBatchSize, 1e-6)
	defer e.stop()
	// Converge first: steady-state turns then re-propose the same
	// targets and install no-op rows.
	for i := 0; i < 2000; i++ {
		if e.round() < 1e-9 {
			break
		}
	}
	allocs := testing.AllocsPerRun(50, func() { e.round() })
	if allocs != 0 {
		t.Fatalf("steady-state round allocates %v times, want 0", allocs)
	}

	// The OrderRandom shuffle must not reintroduce allocations: the
	// swap closure is bound once when the order is armed.
	e.setOrder(OrderRandom, 3)
	for i := 0; i < 2000; i++ {
		if e.round() < 1e-9 {
			break
		}
	}
	allocs = testing.AllocsPerRun(50, func() { e.round() })
	if allocs != 0 {
		t.Fatalf("steady-state shuffled round allocates %v times, want 0", allocs)
	}
}

// TestInstrumentedRoundZeroAllocs is the "free" half of the
// observability conformance harness: a steady-state round observed
// through the metrics bundle must stay allocation-free both with the
// nil off switch and with every instrument armed (registry + event
// sink), exactly like the bare engine guard above.
func TestInstrumentedRoundZeroAllocs(t *testing.T) {
	g := parallelTestGame(t, 20, 16)
	e := newRoundEngine(g, 2, DefaultBatchSize, 1e-6)
	defer e.stop()
	for i := 0; i < 2000; i++ {
		if e.round() < 1e-9 {
			break
		}
	}

	// Nil-sink fast path: the off switch costs one predictable branch.
	var off *Metrics
	allocs := testing.AllocsPerRun(50, func() {
		d := e.round()
		off.observeRound(1, d, e.welfare(), e.congestion())
	})
	if allocs != 0 {
		t.Fatalf("nil-metrics round allocates %v times, want 0", allocs)
	}

	// Armed path: counters, gauges, histogram, and ring emission are
	// all atomic writes into preallocated state.
	reg := obs.NewRegistry()
	sink := obs.NewEventSink(1024)
	m := NewMetrics(reg, sink)
	allocs = testing.AllocsPerRun(50, func() {
		d := e.round()
		m.observeRound(1, d, e.welfare(), e.congestion())
	})
	if allocs != 0 {
		t.Fatalf("armed-metrics round allocates %v times, want 0", allocs)
	}
	if m.Rounds.Value() == 0 || sink.Emitted() == 0 {
		t.Fatal("armed instruments saw no traffic — the guard measured nothing")
	}
}

// TestLevelSortedMatchesWaterFill: the shared breakpoint search
// returns exactly the level of the linear-scan reference WaterFill
// was built on.
func TestLevelSortedMatchesWaterFill(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		c := 1 + rng.Intn(40)
		others := make([]float64, c)
		for i := range others {
			others[i] = rng.Float64() * 30
		}
		total := rng.Float64() * 100
		want := linearScanLevel(others, total)

		ws := newFillScratch(c)
		sortBreakpoints(ws.sorted, ws.prefix, others)
		got := levelSorted(ws.sorted, ws.prefix, total)
		if got != want {
			t.Fatalf("trial %d: levelSorted %v != WaterFill %v (c=%d total=%v)", trial, got, want, c, total)
		}
	}
}

func TestCappedLevelSortedMatchesPerDrawWaterFill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		c := 1 + rng.Intn(30)
		others := make([]float64, c)
		for i := range others {
			others[i] = rng.Float64() * 20
		}
		cap := 0.5 + rng.Float64()*8
		total := rng.Float64() * cap * float64(c) * 0.99
		_, want := PerDrawWaterFill(others, cap, total)

		ws := newFillScratch(c)
		sortBreakpoints(ws.sorted, ws.prefix, others)
		got := cappedLevelSorted(ws.sorted, ws.prefix, cap, total)
		if math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
			t.Fatalf("trial %d: cappedLevelSorted %v != PerDrawWaterFill %v (c=%d cap=%v total=%v)",
				trial, got, want, c, cap, total)
		}
		// The exact-breakpoint level must reproduce the requested total.
		var y float64
		for _, o := range others {
			a := got - o
			if a <= 0 {
				continue
			}
			if a > cap {
				a = cap
			}
			y += a
		}
		if math.Abs(y-total) > 1e-9*(1+total) {
			t.Fatalf("trial %d: level %v allocates %v, want %v", trial, got, y, total)
		}
	}
}
