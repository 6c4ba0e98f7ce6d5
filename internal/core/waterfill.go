package core

import (
	"math"
	"sort"
)

// Bisection controls for the λ-search variants. They were inline magic
// numbers; naming them makes the solver's precision contract explicit
// and testable (see the saturated-boundary regression tests).
const (
	// defaultLevelTol is the absolute error bound on the allocated
	// total when WaterFillBisect's caller passes no tolerance.
	defaultLevelTol = 1e-9
	// maxLevelIterations caps the λ bisection; 200 halvings shrink any
	// physically meaningful bracket far below defaultLevelTol, so the
	// cap only guards against non-finite inputs stalling the loop.
	maxLevelIterations = 200
	// perDrawLevelRelTol is PerDrawWaterFill's relative bracket width
	// target; the residual repair afterwards makes the row sum exact.
	perDrawLevelRelTol = 1e-12
)

// WaterFill solves Lemma IV.1: split an OLEV's total power request
// across charging sections so post-allocation section totals equalize
// at a water level λ*,
//
//	alloc_c = [λ* − others_c]^+  with  Σ_c alloc_c = total,
//
// which is the unique minimum-cost schedule when every section shares
// the same strictly convex cost. others_c is P_−n,c, the load already
// scheduled by the other OLEVs on section c.
//
// It returns the per-section allocation and the level λ*. A
// non-positive total yields a zero allocation with λ* equal to the
// smallest entry of others (the level at which water would first
// start to pool). The input slice is not modified.
//
// The exact breakpoint algorithm is used (sortBreakpoints, then
// levelSorted); WaterFillBisect provides the paper's bisection
// formulation and the tests cross-check the two.
func WaterFill(others []float64, total float64) (alloc []float64, level float64) {
	alloc = make([]float64, len(others))
	var scratch []float64
	if len(others) > 0 && total > 0 {
		scratch = make([]float64, 2*len(others)+1)
	}
	return alloc, WaterFillInto(alloc, scratch, others, total)
}

// WaterFillInto is WaterFill writing the allocation into alloc (the
// length of others) and sorting in scratch (at least 2·len(others)+1
// floats, unused for a non-positive total): the same float operations,
// so the same bits, and no allocation. It returns the level λ*.
func WaterFillInto(alloc, scratch, others []float64, total float64) float64 {
	clear(alloc)
	if len(others) == 0 {
		return 0
	}
	if total <= 0 {
		min := others[0]
		for _, o := range others[1:] {
			if o < min {
				min = o
			}
		}
		return min
	}
	c := len(others)
	sorted, prefix := scratch[:c:c], scratch[c:2*c+1]
	sortBreakpoints(sorted, prefix, others)
	level := levelSorted(sorted, prefix, total)
	pourTo(alloc, others, level)
	return level
}

// pourTo writes the allocation at a water level, [level − others_c]^+,
// into alloc.
func pourTo(alloc, others []float64, level float64) {
	for c, o := range others {
		if level > o {
			alloc[c] = level - o
		}
	}
}

// sortBreakpoints prepares a background load for the level searches:
// sorted receives others in ascending order and prefix (one longer)
// its running sums, prefix[k] = Σ_{i<k} sorted[i]. It is the one
// O(C log C) step of a water-fill; every level evaluation after it is
// O(log C) (levelSorted) or O(C) (cappedLevelSorted), so a caller that
// probes many totals against one background — a frozen quote — sorts
// once.
func sortBreakpoints(sorted, prefix, others []float64) {
	copy(sorted, others)
	sort.Float64s(sorted)
	prefix[0] = 0
	for k, v := range sorted {
		prefix[k+1] = prefix[k] + v
	}
}

// levelSorted returns the water level λ*(total) on a background
// prepared by sortBreakpoints. The active set is the smallest k such
// that filling the k lowest sections to a common level absorbs the
// whole request before the level reaches section k+1's load, and the
// level is (total + prefix_k)/k — the breakpoint scan
//
//	for k := 1; k < C && (total+prefix[k])/k > sorted[k]; k++ {}
//
// evaluated with the same float operations, so the result is that
// scan's bit for bit (levelIndex finds the scan's k). A non-positive
// total returns the lowest load, the level at which water would first
// start to pool.
func levelSorted(sorted, prefix []float64, total float64) float64 {
	if total <= 0 {
		return sorted[0]
	}
	k := levelIndex(sorted, prefix, total, 1, len(sorted))
	return (total + prefix[k]) / float64(k)
}

// levelIndex returns the breakpoint scan's k for a positive total,
// given that it lies in [kmin, kmax]: every index below kmin is known
// to pass the scan's test and index kmax to fail it (or kmax = C). The
// full range is [1, C]; a caller that knows the scan's k at a smaller
// and a larger total passes those as the bracket, because each test
// fl(fl(total+prefix_m)/m) > sorted_m only turns from false to true as
// total grows, so k never decreases with total.
//
// The test is monotone in m in exact arithmetic, so a binary search
// finds the candidate in O(log(kmax−kmin)) probes. Rounding can break
// that monotonicity only where the level sits within a few ulps of a
// run of (near-)tied loads, so unless the search's last passing probe
// cleared its load by more than the rounding error, a downward pass
// re-checks that run and stops at the first index that does, below
// which every index provably passes too (see levelRoundingSlack).
func levelIndex(sorted, prefix []float64, total float64, kmin, kmax int) int {
	// Inline sort.Search: this runs in the hottest loops of both
	// solvers. The search ends on a failing index i+1 whose
	// predecessor i passed, by gap, or on i = kmin−1.
	i, j := kmin-1, kmax-1
	var gap float64
	for i < j {
		h := int(uint(i+j) >> 1)
		k := h + 1
		if lvl := (total + prefix[k]) / float64(k); lvl > sorted[k] {
			i = h + 1
			gap = lvl - sorted[k]
		} else {
			j = h
		}
	}
	k := i + 1
	if i >= kmin && !levelClearlyAbove(sorted, prefix, total, i, gap) {
		// Rare: the level is within rounding of the load at index i, so
		// an earlier index may fail; walk down to the scan's first.
		for m := i; m >= kmin; m-- {
			lvl := (total + prefix[m]) / float64(m)
			if lvl <= sorted[m] {
				k = m
			} else if levelClearlyAbove(sorted, prefix, total, m, lvl-sorted[m]) {
				break
			}
		}
	}
	return k
}

// levelClearlyAbove reports whether the computed level for m active
// sections exceeds sorted[m] by gap by more than rounding can explain,
// which makes index m and every index below it false.
func levelClearlyAbove(sorted, prefix []float64, total float64, m int, gap float64) bool {
	bound := total + math.Abs(prefix[m]) // Σ|load| bound; negatives add below
	if sorted[0] < 0 {
		bound -= 2 * float64(m) * sorted[0]
	}
	return gap*float64(m) > levelRoundingSlack*float64(m+2)*bound
}

// levelRoundingSlack scales levelClearlyAbove's margin. The
// computed level (total + prefix_m)/m differs from the exact one by at
// most (m+2)·u·(total + Σ_{i<m}|sorted_i|)/m, u = 2^-53. If the exact
// level exceeds sorted_m by g, then for every j < m the exact level
// exceeds sorted_j by at least (m/j)·g (it averages in loads no larger
// than sorted_m); a computed gap of eight error bounds therefore leaves
// every lower index false even after rounding, with room for the
// rounding of the check itself.
const levelRoundingSlack = 8 * 0x1p-53

// WaterFillBisect solves the same problem by bisecting on the root of
// Y(λ) = Σ_c [λ − others_c]^+ − total, the method the paper's
// Section IV-F prescribes. It exists as an independently derived
// implementation for cross-checking and for the benches that compare
// the two. tol bounds the absolute error on the allocated total.
func WaterFillBisect(others []float64, total float64, tol float64) (alloc []float64, level float64) {
	alloc = make([]float64, len(others))
	if len(others) == 0 {
		return alloc, 0
	}
	if tol <= 0 {
		tol = defaultLevelTol
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, o := range others {
		lo = math.Min(lo, o)
		hi = math.Max(hi, o)
	}
	if total <= 0 {
		return alloc, lo
	}
	hi += total // Y(hi) >= total with equality only if all others equal

	yOf := func(lambda float64) float64 {
		var sum float64
		for _, o := range others {
			if lambda > o {
				sum += lambda - o
			}
		}
		return sum
	}
	for i := 0; i < maxLevelIterations && hi-lo > tol/float64(len(others)+1); i++ {
		mid := lo + (hi-lo)/2
		if yOf(mid) < total {
			lo = mid
		} else {
			hi = mid
		}
	}
	level = lo + (hi-lo)/2

	// Distribute, then repair the rounding residual proportionally so the
	// allocation sums exactly to total.
	var sum float64
	for i, o := range others {
		if level > o {
			alloc[i] = level - o
			sum += alloc[i]
		}
	}
	if sum > 0 {
		scale := total / sum
		for i := range alloc {
			alloc[i] *= scale
		}
	}
	return alloc, level
}
