package core

import "math"

// PerDrawWaterFill solves the Lemma IV.1 schedule under Eq. (3)'s
// per-vehicle coupling constraint: no single section may supply this
// vehicle more than drawCap kW (its own line capacity P_line(vel_n)),
// so the allocation is
//
//	alloc_c = min([λ − others_c]^+, drawCap)  with  Σ_c alloc_c = total.
//
// Y(λ) is still non-decreasing and piecewise linear, so λ is found by
// bisection with an exact residual repair. A non-positive drawCap
// means "uncapped" and defers to the plain WaterFill. When total
// exceeds the allocatable C·drawCap, the allocation saturates at the
// cap everywhere and the shortfall is the caller's to handle (the
// best response never requests it — see MaxAllocatable).
func PerDrawWaterFill(others []float64, drawCap, total float64) (alloc []float64, level float64) {
	if drawCap <= 0 {
		return WaterFill(others, total)
	}
	alloc = make([]float64, len(others))
	if len(others) == 0 {
		return alloc, 0
	}
	if total <= 0 {
		_, level = WaterFill(others, 0)
		return alloc, level
	}
	maxAllocatable := float64(len(others)) * drawCap
	if total >= maxAllocatable {
		lo := math.Inf(1)
		for i, o := range others {
			alloc[i] = drawCap
			lo = math.Min(lo, o)
		}
		return alloc, lo + drawCap + (total-maxAllocatable)/float64(len(others))
	}

	yOf := func(lambda float64) float64 {
		var sum float64
		for _, o := range others {
			a := lambda - o
			if a <= 0 {
				continue
			}
			if a > drawCap {
				a = drawCap
			}
			sum += a
		}
		return sum
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, o := range others {
		lo = math.Min(lo, o)
		hi = math.Max(hi, o)
	}
	hi += drawCap // Y(hi) = C·drawCap > total
	for i := 0; i < maxLevelIterations && hi-lo > perDrawLevelRelTol*(1+math.Abs(hi)); i++ {
		mid := lo + (hi-lo)/2
		if yOf(mid) < total {
			lo = mid
		} else {
			hi = mid
		}
	}
	level = lo + (hi-lo)/2

	var sum float64
	for i, o := range others {
		a := level - o
		if a <= 0 {
			continue
		}
		if a > drawCap {
			a = drawCap
		}
		alloc[i] = a
		sum += a
	}
	// Repair bisection residue proportionally over the uncapped,
	// active sections so the total is exact.
	if diff := total - sum; math.Abs(diff) > 1e-15 {
		var slack float64
		for i := range alloc {
			if alloc[i] > 0 && alloc[i] < drawCap {
				slack += alloc[i]
			}
		}
		if slack > 0 {
			for i := range alloc {
				if alloc[i] > 0 && alloc[i] < drawCap {
					alloc[i] += diff * alloc[i] / slack
				}
			}
		}
	}
	return alloc, level
}

// WithDrawCap returns a copy of the payment function that schedules
// under the Eq. (3) per-section draw cap. The copy shares the
// immutable background snapshot instead of sorting it again.
func (f *PaymentFunction) WithDrawCap(drawCap float64) *PaymentFunction {
	out := *f
	out.drawCap = drawCap
	return &out
}

// MaxAllocatable returns the most power the quoted schedule can place
// for this vehicle: unbounded without a draw cap, C·drawCap with one.
func (f *PaymentFunction) MaxAllocatable() float64 {
	if f.drawCap <= 0 {
		return math.Inf(1)
	}
	return float64(len(f.others)) * f.drawCap
}
