package core

import (
	"runtime"
	"time"
)

// SteadyStateBench is one solver's measurement from BenchSteadyState;
// cmd/bench-core serializes a set of these into BENCH_core.json.
type SteadyStateBench struct {
	// Parallelism is the worker count the engine ran with.
	Parallelism int `json:"parallelism"`
	// ConvergeRounds is how many engine rounds equilibrium took.
	ConvergeRounds int `json:"converge_rounds"`
	// Converged reports whether the tolerance was met before the cap.
	Converged bool `json:"converged"`
	// SteadyRounds is how many post-convergence rounds were timed.
	SteadyRounds int `json:"steady_rounds"`
	// NsPerTurn is wall time per player turn in the steady state.
	NsPerTurn float64 `json:"ns_per_turn"`
	// AllocsPerTurn is heap allocations per player turn; the engine's
	// design target — and the zero-alloc test's assertion — is 0.
	AllocsPerTurn float64 `json:"allocs_per_turn"`
	// Welfare is the converged social welfare W(p) in $/h.
	Welfare float64 `json:"welfare"`
}

// BenchSteadyState drives g to equilibrium with the round engine, then
// forces steadyRounds extra rounds on the converged state and measures
// the hot path: wall time and heap allocations per player turn. The
// extra rounds are game-theoretic no-ops (every best response
// reproduces the current schedule, so the welfare guard never trips),
// which is exactly what makes them a clean probe of the engine's
// per-turn cost: every cache hits, no block ever replays, and a
// correct implementation allocates nothing.
//
// The allocation count comes from runtime.MemStats.Mallocs deltas, so
// unrelated runtime activity can leak in; the hard zero assertion
// lives in the core test suite via testing.AllocsPerRun.
func BenchSteadyState(g *Game, parallelism, maxRounds, steadyRounds int, tol float64) SteadyStateBench {
	if maxRounds <= 0 {
		maxRounds = 2000
	}
	if steadyRounds <= 0 {
		steadyRounds = 50
	}
	if tol <= 0 {
		tol = 1e-6
	}
	e := newRoundEngine(g, parallelism, DefaultBatchSize, tol)
	defer e.stop()

	rep := SteadyStateBench{Parallelism: e.workers, SteadyRounds: steadyRounds}
	for round := 1; round <= maxRounds; round++ {
		rep.ConvergeRounds = round
		if e.round() < tol {
			rep.Converged = true
			break
		}
	}

	// One warm-up round after convergence, then measure.
	e.round()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	startT := time.Now()
	for i := 0; i < steadyRounds; i++ {
		e.round()
	}
	elapsed := time.Since(startT)
	runtime.ReadMemStats(&after)

	turns := float64(steadyRounds * e.n)
	rep.NsPerTurn = float64(elapsed.Nanoseconds()) / turns
	rep.AllocsPerTurn = float64(after.Mallocs-before.Mallocs) / turns
	rep.Welfare = e.welfare()
	return rep
}

// MetricsOverheadBench quantifies what arming the obs bundle costs the
// steady-state hot path; cmd/bench-core gates it at ≤ 3% under -check.
type MetricsOverheadBench struct {
	// Parallelism is the engine's worker count during the probe.
	Parallelism int `json:"parallelism"`
	// SteadyRounds is rounds timed per trial, Trials the best-of count.
	SteadyRounds int `json:"steady_rounds"`
	Trials       int `json:"trials"`
	// BareNsPerTurn and ArmedNsPerTurn are best-of-trials ns per player
	// turn with the bundle nil versus armed.
	BareNsPerTurn  float64 `json:"bare_ns_per_turn"`
	ArmedNsPerTurn float64 `json:"armed_ns_per_turn"`
	// Overhead is armed/bare − 1; negative readings are noise and mean
	// the instrumentation cost is below the measurement floor.
	Overhead float64 `json:"overhead"`
	// ArmedAllocsPerTurn must stay 0: the instruments are atomics on
	// preallocated state (the hard assertion is AllocsPerRun in the
	// core test suite; this is the same contract read off MemStats).
	ArmedAllocsPerTurn float64 `json:"armed_allocs_per_turn"`
}

// BenchMetricsOverhead interleaves bare and armed steady-state trials
// on one converged engine and reports best-of-k ns/turn for each. Both
// loops run the identical per-round work the solver itself performs —
// round, welfare, congestion — and differ only in the Metrics receiver
// (nil versus armed), so the ratio isolates exactly the off-switch
// branch versus the atomic-store path. Interleaving plus best-of-k is
// the noise defense: thermal drift and scheduler luck hit both sides
// alike, and the minimum discards the outliers.
func BenchMetricsOverhead(g *Game, parallelism, steadyRounds, trials int, m *Metrics) MetricsOverheadBench {
	if steadyRounds <= 0 {
		steadyRounds = 50
	}
	if trials <= 0 {
		trials = 5
	}
	e := newRoundEngine(g, parallelism, DefaultBatchSize, 1e-6)
	defer e.stop()
	for round := 1; round <= 2000; round++ {
		if e.round() < 1e-6 {
			break
		}
	}
	e.round() // warm-up on the converged state

	turns := float64(steadyRounds * e.n)
	trial := func(m *Metrics) float64 {
		start := time.Now()
		for i := 0; i < steadyRounds; i++ {
			d := e.round()
			m.observeRound(i+1, d, e.welfare(), e.congestion())
		}
		return float64(time.Since(start).Nanoseconds()) / turns
	}

	rep := MetricsOverheadBench{
		Parallelism:  e.workers,
		SteadyRounds: steadyRounds,
		Trials:       trials,
		// Seed the minima with one throwaway pair so best-of-k never
		// reads an uninitialized zero.
		BareNsPerTurn:  trial(nil),
		ArmedNsPerTurn: trial(m),
	}
	// Both sides of a pair start from the same heap state: a fresh GC
	// and a ReadMemStats right before the timed rounds.
	var before, after runtime.MemStats
	prepared := func(m *Metrics) (ns, allocs float64) {
		runtime.GC()
		runtime.ReadMemStats(&before)
		ns = trial(m)
		runtime.ReadMemStats(&after)
		return ns, float64(after.Mallocs-before.Mallocs) / turns
	}
	for t := 0; t < trials; t++ {
		if ns, _ := prepared(nil); ns < rep.BareNsPerTurn {
			rep.BareNsPerTurn = ns
		}
		ns, allocs := prepared(m)
		if ns < rep.ArmedNsPerTurn {
			rep.ArmedNsPerTurn = ns
		}
		if t == 0 || allocs < rep.ArmedAllocsPerTurn {
			rep.ArmedAllocsPerTurn = allocs
		}
	}
	if rep.BareNsPerTurn > 0 {
		rep.Overhead = rep.ArmedNsPerTurn/rep.BareNsPerTurn - 1
	}
	return rep
}
