package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceBestResponse is the plain Lemma IV.3 bisection: all 64
// halvings, every probe pricing Ψ'_n through the payment function's
// own level search. BestResponse must reproduce it bit for bit.
func referenceBestResponse(sat Satisfaction, psi *PaymentFunction, pmax float64) float64 {
	if ceiling := psi.MaxAllocatable(); pmax > ceiling {
		pmax = ceiling
	}
	if pmax <= 0 {
		return 0
	}
	deriv := func(p float64) float64 { return sat.Marginal(p) - psi.Marginal(p) }
	if deriv(0) <= 0 {
		return 0
	}
	if deriv(pmax) >= 0 {
		return pmax
	}
	lo, hi := 0.0, pmax
	for i := 0; i < 64; i++ {
		mid := lo + (hi-lo)/2
		if deriv(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// countingSat counts the satisfaction probes a solve makes, one per
// derivative evaluation.
type countingSat struct {
	Satisfaction
	probes *int
}

func (s countingSat) Marginal(p float64) float64 {
	*s.probes++
	return s.Satisfaction.Marginal(p)
}

// bisectCase is one best-response instance.
type bisectCase struct {
	name    string
	others  []float64
	sat     Satisfaction
	pmax    float64
	drawCap float64
}

// bisectEdgeCases are the shapes where a bracket or an early exit is
// easiest to get wrong: one section, tied loads whose level lands on
// the tie (where levelIndex's rounding walk runs), corners at zero and
// at pmax, and requests far below and far above the loads.
func bisectEdgeCases() []bisectCase {
	log := func(w float64) Satisfaction { return LogSatisfaction{Weight: w} }
	return []bisectCase{
		{"C=1", []float64{7.25}, log(1), 60, 0},
		{"C=1 capped", []float64{7.25}, log(1), 60, 20},
		{"all tied", []float64{5, 5, 5, 5}, log(1), 60, 0},
		{"tied decimals", []float64{0.1, 0.3, 0.3, 0.7, 0.7, 0.7, 1.1}, log(0.6), 5, 0},
		{"all zero", []float64{0, 0, 0, 0, 0, 0}, log(0.3), 80, 0},
		{"p*=0", []float64{500, 500}, log(0.001), 100, 0},
		{"p*=0 capped", []float64{500, 500}, log(0.001), 100, 10},
		{"p*=pmax", []float64{0, 0, 0, 0}, log(1000), 50, 0},
		{"p*=pmax capped", []float64{0, 0, 0, 0}, log(1000), 50, 5},
		{"tiny pmax", []float64{12, 3, 40, 8}, log(1), 1e-300, 0},
		{"subnormal pmax", []float64{12, 3, 40, 8}, log(1), 5e-324, 0},
		{"huge pmax", []float64{12, 3, 40, 8}, log(1), 1e300, 0},
		{"huge pmax capped", []float64{12, 3, 40, 8}, log(1), 1e300, 30},
		{"sqrt", []float64{2, 4}, SqrtSatisfaction{Weight: 0.5}, 300, 0},
	}
}

// randomBisectCases draws instances at the daemon's scale, half of them
// on a small decimal grid so tied loads and levels landing on a tie
// are common; every fourth is draw-capped.
func randomBisectCases(rng *rand.Rand, n int) []bisectCase {
	cases := make([]bisectCase, 0, n)
	for i := 0; i < n; i++ {
		c := 1 + rng.Intn(40)
		others := make([]float64, c)
		for j := range others {
			if i%2 == 0 {
				others[j] = rng.Float64() * 60
			} else {
				others[j] = 0.1 * float64(rng.Intn(8))
			}
		}
		var sat Satisfaction = LogSatisfaction{Weight: 0.05 + 3*rng.Float64()}
		if i%5 == 0 {
			sat = SqrtSatisfaction{Weight: 0.05 + rng.Float64()}
		}
		tc := bisectCase{fmt.Sprintf("random-%d", i), others, sat, 150 * rng.Float64(), 0}
		if i%4 == 3 {
			tc.drawCap = 1 + 30*rng.Float64()
		}
		cases = append(cases, tc)
	}
	return cases
}

// TestBestResponseMatchesReferenceBisection: the bracketed, early-exit
// BestResponse returns the 64-halving reference's request bit for bit
// on the edge cases and 2000 seeded instances, capped and uncapped,
// and the uncapped path spends fewer probes doing it.
func TestBestResponseMatchesReferenceBisection(t *testing.T) {
	cost := testCost(t)
	cases := append(bisectEdgeCases(), randomBisectCases(rand.New(rand.NewSource(24)), 2000)...)
	var probes, refProbes, interior int
	for _, tc := range cases {
		psi := NewPaymentFunction(cost, tc.others).WithDrawCap(tc.drawCap)
		var n, refN int
		got := BestResponse(countingSat{tc.sat, &n}, psi, tc.pmax)
		want := referenceBestResponse(countingSat{tc.sat, &refN}, psi, tc.pmax)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: BestResponse %v (%#x), reference %v (%#x)",
				tc.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if n > refN {
			t.Fatalf("%s: %d probes, more than the reference's %d", tc.name, n, refN)
		}
		if tc.drawCap <= 0 && refN == 66 {
			probes, refProbes, interior = probes+n, refProbes+refN, interior+1
		}
	}
	if interior == 0 || probes >= refProbes {
		t.Fatalf("interior uncapped solves: %d probes against the reference's %d", probes, refProbes)
	}
	t.Logf("interior uncapped solves: %.1f probes per call, reference %.1f (%d calls)",
		float64(probes)/float64(interior), float64(refProbes)/float64(interior), interior)
}

// TestLevelIndexBracket: a bracket taken from the scan's k at a smaller
// and a larger total yields the scan's k at every total between them,
// tied loads included.
func TestLevelIndexBracket(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range append(levelEdgeCases(), randomLevelCases(rng, 400)...) {
		c := len(tc.others)
		sorted, prefix := make([]float64, c), make([]float64, c+1)
		sortBreakpoints(sorted, prefix, tc.others)
		for _, total := range tc.totals {
			if total <= 0 {
				continue
			}
			lo, hi := total*rng.Float64(), total*(1+rng.Float64())
			klo := 1
			if lo > 0 {
				klo = levelIndex(sorted, prefix, lo, 1, c)
			}
			khi := levelIndex(sorted, prefix, hi, 1, c)
			want := levelIndex(sorted, prefix, total, 1, c)
			if got := levelIndex(sorted, prefix, total, klo, khi); got != want {
				t.Fatalf("%s total=%v bracket [%d, %d]: k=%d, full search %d", tc.name, total, klo, khi, got, want)
			}
			if lvl := (total + prefix[want]) / float64(want); math.Float64bits(lvl) != math.Float64bits(linearScanLevel(tc.others, total)) {
				t.Fatalf("%s total=%v: level %v, linear scan %v", tc.name, total, lvl, linearScanLevel(tc.others, total))
			}
		}
	}
}

// TestWaterFillIntoMatchesWaterFill: the in-place water-fill writes
// WaterFill's allocation and level bit for bit into a dirty row, and
// allocates nothing.
func TestWaterFillIntoMatchesWaterFill(t *testing.T) {
	for _, tc := range append(levelEdgeCases(), randomLevelCases(rand.New(rand.NewSource(9)), 200)...) {
		c := len(tc.others)
		alloc, scratch := make([]float64, c), make([]float64, 2*c+1)
		for _, total := range tc.totals {
			for i := range alloc {
				alloc[i] = math.NaN() // a dirty row must come back clean
			}
			level := WaterFillInto(alloc, scratch, tc.others, total)
			wantAlloc, wantLevel := WaterFill(tc.others, total)
			if math.Float64bits(level) != math.Float64bits(wantLevel) {
				t.Fatalf("%s total=%v: level %v, WaterFill %v", tc.name, total, level, wantLevel)
			}
			assertBitsEqual(t, tc.name, alloc, wantAlloc)
		}
	}
	others := []float64{12, 3, 40, 8, 8, 0, 17}
	alloc, scratch := make([]float64, len(others)), make([]float64, 2*len(others)+1)
	if allocs := testing.AllocsPerRun(100, func() { WaterFillInto(alloc, scratch, others, 23.5) }); allocs != 0 {
		t.Fatalf("WaterFillInto allocates %v times, want 0", allocs)
	}
}
