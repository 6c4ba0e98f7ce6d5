package core

// bestResponseIterations halvings of [0, pmax] resolve p* to
// pmax·2^-64 — below float64 resolution for any physical power level.
// The parallel round engine's proposal bisection uses the same count
// so the two solvers stay bit-compatible.
const bestResponseIterations = 64

// BestResponse solves Lemma IV.3: the total power request p* that
// maximizes F_n(p) = U_n(p) − Ψ_n(p) over [0, pmax].
//
// F_n is strictly concave (U strictly concave, Ψ convex), so
// F'_n(p) = U'_n(p) − Z'(λ*(p)) is strictly decreasing and the
// three-case structure of Eq. (22) reduces to a bisection on the sign
// of F'_n:
//
//	F'_n(0)    ≤ 0  →  p* = 0
//	F'_n(pmax) ≥ 0  →  p* = pmax
//	otherwise       →  the unique root of F'_n in (0, pmax)
//
// The request is additionally clamped to what the quoted schedule can
// physically place (MaxAllocatable, finite under an Eq. (3) draw cap).
func BestResponse(sat Satisfaction, psi *PaymentFunction, pmax float64) float64 {
	if ceiling := psi.MaxAllocatable(); pmax > ceiling {
		pmax = ceiling
	}
	if pmax <= 0 {
		return 0
	}
	if psi.drawCap <= 0 && len(psi.sorted) > 0 {
		cost := psi.cost
		return bisectUncapped(psi.sorted, psi.prefix, pmax, func(p, level float64) float64 {
			return sat.Marginal(p) - cost.Marginal(level)
		})
	}
	return bisectCapped(pmax, func(p float64) float64 { return sat.Marginal(p) - psi.Marginal(p) })
}

// bisectCapped is the three-case solve for any decreasing derivative:
// the draw-capped path, whose level has no cheap bracket.
func bisectCapped(pmax float64, deriv func(p float64) float64) float64 {
	if deriv(0) <= 0 {
		return 0
	}
	if deriv(pmax) >= 0 {
		return pmax
	}
	lo, hi := 0.0, pmax
	for i := 0; i < bestResponseIterations; i++ {
		mid := lo + (hi-lo)/2
		if deriv(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// bisectUncapped is the three-case solve when the section cost is
// priced at the uncapped water level of a background prepared by
// sortBreakpoints; deriv(p, level) is F'_n(p) given λ*(p). It returns
// bisectCapped's result for deriv(p, levelSorted(p)) bit for bit, with
// fewer and cheaper probes:
//
//   - The scan's active-set size k(p) (levelIndex) never decreases
//     with p, so k(mid) lies between the k already found at lo and at
//     hi. The search runs only over that bracket, and once the two ends
//     agree a probe is the single division (mid+prefix_k)/k — the very
//     float operations levelSorted would perform.
//   - Once mid rounds onto lo or hi, every remaining halving maps
//     (lo, hi) to itself or collapses it onto mid, and the final
//     midpoint is mid either way, so the loop stops there.
func bisectUncapped(sorted, prefix []float64, pmax float64, deriv func(p, level float64) float64) float64 {
	if deriv(0, sorted[0]) <= 0 {
		return 0
	}
	khi := levelIndex(sorted, prefix, pmax, 1, len(sorted))
	if deriv(pmax, (pmax+prefix[khi])/float64(khi)) >= 0 {
		return pmax
	}
	lo, hi, klo := 0.0, pmax, 1
	for i := 0; i < bestResponseIterations; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			return mid
		}
		k := klo
		if klo != khi {
			k = levelIndex(sorted, prefix, mid, klo, khi)
		}
		if deriv(mid, (mid+prefix[k])/float64(k)) > 0 {
			lo, klo = mid, k
		} else {
			hi, khi = mid, k
		}
	}
	return lo + (hi-lo)/2
}
