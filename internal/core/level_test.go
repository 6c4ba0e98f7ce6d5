package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// linearScanLevel is an independent reference for the water level, the
// plain breakpoint scan: sort a copy, then walk k = 1, 2, …
// accumulating the prefix sum until filling the k lowest sections
// absorbs the request before reaching section k+1. levelSorted must
// reproduce it bit for bit.
func linearScanLevel(others []float64, total float64) float64 {
	if len(others) == 0 {
		return 0
	}
	sorted := append([]float64(nil), others...)
	sort.Float64s(sorted)
	if total <= 0 {
		return sorted[0]
	}
	var prefix float64
	for k := 1; ; k++ {
		prefix += sorted[k-1]
		candidate := (total + prefix) / float64(k)
		if k == len(sorted) || candidate <= sorted[k] {
			return candidate
		}
	}
}

// referenceAlloc is the allocation [λ − others_c]^+ at the reference
// level, zero for a non-positive total.
func referenceAlloc(others []float64, total float64) []float64 {
	alloc := make([]float64, len(others))
	if total <= 0 {
		return alloc
	}
	level := linearScanLevel(others, total)
	for c, o := range others {
		if level > o {
			alloc[c] = level - o
		}
	}
	return alloc
}

// levelCase is one background load with the totals to probe it at.
type levelCase struct {
	name   string
	others []float64
	totals []float64
}

// levelEdgeCases are the shapes where a breakpoint search is easiest
// to get wrong: one section, tied and duplicate loads (including totals
// landing exactly on a tie), an all-zero background, non-positive
// requests, and requests that flood every section.
func levelEdgeCases() []levelCase {
	return []levelCase{
		{"C=1", []float64{7.25}, []float64{-1, 0, 1e-300, 0.5, 3, 1e6}},
		{"all tied", []float64{5, 5, 5, 5}, []float64{0, 1, 4, 20}},
		{"duplicates", []float64{1, 3, 3, 3, 7}, []float64{1, 2, 2 + 1e-12, 6, 14, 30}},
		{"duplicate decimals", []float64{0.1, 0.3, 0.3, 0.7, 0.7, 0.7, 1.1},
			[]float64{0.2, 0.2 + 0.4 + 0.4, 1.8, 3.3, 0.1 + 0.3 + 0.3}},
		{"all zero", []float64{0, 0, 0, 0, 0, 0}, []float64{0, 1e-9, 1, 600}},
		{"non-positive p", []float64{4, 2, 9, 2}, []float64{0, -1, math.Copysign(0, -1), -1e9}},
		{"above every breakpoint", []float64{12, 3, 40, 8}, []float64{1e3, 1e9, 40*4 - 63}},
	}
}

// randomLevelCases draws random backgrounds, half of them from a small
// decimal grid so ties and exact-breakpoint totals are common.
func randomLevelCases(rng *rand.Rand, n int) []levelCase {
	var cases []levelCase
	for i := 0; i < n; i++ {
		c := 1 + rng.Intn(40)
		others := make([]float64, c)
		for j := range others {
			if i%2 == 0 {
				others[j] = rng.Float64() * 30
			} else {
				others[j] = 0.1 * float64(rng.Intn(8))
			}
		}
		sorted := append([]float64(nil), others...)
		sort.Float64s(sorted)
		// A total that lands exactly on breakpoint k: Σ_{i<k} (s_k − s_i).
		k := rng.Intn(c)
		var onBreakpoint float64
		for _, s := range sorted[:k] {
			onBreakpoint += sorted[k] - s
		}
		cases = append(cases, levelCase{"random", others,
			[]float64{rng.Float64() * 100, rng.Float64(), onBreakpoint}})
	}
	return cases
}

// TestLevelKernelsMatchLinearScan: WaterFill, the payment function's
// Marginal, Schedule and At, and levelSorted itself are bit-equal to
// the linear-scan reference on random instances and on the edge cases.
func TestLevelKernelsMatchLinearScan(t *testing.T) {
	cost := testCost(t)
	cases := append(levelEdgeCases(), randomLevelCases(rand.New(rand.NewSource(17)), 400)...)
	for i, tc := range cases {
		psi := NewPaymentFunction(cost, tc.others)
		sorted := make([]float64, len(tc.others))
		prefix := make([]float64, len(tc.others)+1)
		sortBreakpoints(sorted, prefix, tc.others)
		for _, p := range tc.totals {
			want := linearScanLevel(tc.others, p)
			wantAlloc := referenceAlloc(tc.others, p)

			if got := levelSorted(sorted, prefix, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d (%s) p=%v: levelSorted %v, reference %v", i, tc.name, p, got, want)
			}
			alloc, level := WaterFill(tc.others, p)
			if math.Float64bits(level) != math.Float64bits(want) {
				t.Fatalf("case %d (%s) p=%v: WaterFill level %v, reference %v", i, tc.name, p, level, want)
			}
			assertBitsEqual(t, "WaterFill alloc", alloc, wantAlloc)
			assertBitsEqual(t, "Schedule", psi.Schedule(p), wantAlloc)

			wantMarginal := cost.Marginal(linearScanLevel(tc.others, math.Max(p, 0)))
			if got := psi.Marginal(p); math.Float64bits(got) != math.Float64bits(wantMarginal) {
				t.Fatalf("case %d (%s) p=%v: Marginal %v, reference %v", i, tc.name, p, got, wantMarginal)
			}
			var wantAt float64
			if p > 0 {
				wantAt = Payment(costSlice(cost, len(tc.others)), tc.others, wantAlloc)
			}
			if got := psi.At(p); math.Float64bits(got) != math.Float64bits(wantAt) {
				t.Fatalf("case %d (%s) p=%v: At %v, reference %v", i, tc.name, p, got, wantAt)
			}
		}
	}
}

func assertBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sections, want %d", what, len(got), len(want))
	}
	for c := range got {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			t.Fatalf("%s: section %d = %v, reference %v", what, c, got[c], want[c])
		}
	}
}

func costSlice(cost CostFunction, n int) []CostFunction {
	out := make([]CostFunction, n)
	for i := range out {
		out[i] = cost
	}
	return out
}

// TestUncappedMarginalAllocFree: an uncapped Ψ'_n probe — the inner
// step of every best-response bisection — allocates nothing, and the
// round engine's propose keeps its zero-alloc steady state on the
// shared breakpoint kernel.
func TestUncappedMarginalAllocFree(t *testing.T) {
	psi := NewPaymentFunction(testCost(t), []float64{12, 3, 40, 8, 8, 0, 17})
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += psi.Marginal(23.5) }); allocs != 0 {
		t.Fatalf("uncapped Marginal allocates %v times, want 0", allocs)
	}

	e := newRoundEngine(parallelTestGame(t, 12, 10), 1, DefaultBatchSize, 1e-6)
	defer e.stop()
	if allocs := testing.AllocsPerRun(100, func() { e.propose(3, 0, e.scratch[0]) }); allocs != 0 {
		t.Fatalf("propose allocates %v times, want 0", allocs)
	}
	_ = sink
}
