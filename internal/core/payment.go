package core

// Payment computes ξ_n of Eq. (9): the cost-difference payment an
// OLEV owes for the allocation alloc against the background load
// others, summed across sections:
//
//	ξ_n = Σ_c [ Z(P_−n,c + p_n,c) − Z(P_−n,c) ]
//
// costs[c] is section c's Z. The function is unbiased — a zero
// allocation pays zero — which tests assert. It panics on length
// mismatches, which are programming errors.
func Payment(costs []CostFunction, others, alloc []float64) float64 {
	if len(costs) != len(others) || len(others) != len(alloc) {
		panic("core: Payment length mismatch")
	}
	var total float64
	for c := range costs {
		if alloc[c] == 0 {
			continue
		}
		total += costs[c].Cost(others[c]+alloc[c]) - costs[c].Cost(others[c])
	}
	return total
}

// PaymentFunction is Ψ_n of Eq. (16): the payment the smart grid
// quotes OLEV n for any total request p_n, assuming the grid schedules
// the request at minimum cost (water-filling, Lemma IV.1) against the
// frozen background load of the other OLEVs.
//
// A PaymentFunction is immutable once built; the smart grid rebuilds
// it (Eq. 20) after every best-response update. Because the background
// is frozen, its breakpoints are sorted once at construction, and every
// uncapped evaluation — the dozens of probes a best response makes —
// finds λ*(p) by an O(log C), allocation-free search.
type PaymentFunction struct {
	cost   CostFunction // shared section cost Z
	others []float64    // P_−n snapshot, in section order
	// sorted and prefix are others prepared by sortBreakpoints.
	sorted, prefix []float64
	// drawCap is the Eq. (3) per-section coupling limit for this
	// vehicle; non-positive means uncapped. Set via WithDrawCap or
	// Rebuild.
	drawCap float64
	// buf backs others, sorted and prefix: 3C+1 floats.
	buf []float64
}

// NewPaymentFunction captures the payment function for one OLEV given
// the shared section cost and the other OLEVs' current per-section
// totals. The slice is copied.
func NewPaymentFunction(cost CostFunction, others []float64) *PaymentFunction {
	f := new(PaymentFunction)
	f.Rebuild(cost, others, 0)
	return f
}

// Rebuild re-captures f in place for a new quote, exactly as
// NewPaymentFunction(cost, others).WithDrawCap(drawCap) would (a
// non-positive drawCap means uncapped), reusing f's 3C+1 buffer when
// it is large enough: an agent pricing one quote after another
// allocates nothing. The slice is copied. Copies made by WithDrawCap
// share the buffer, so Rebuild invalidates them.
func (f *PaymentFunction) Rebuild(cost CostFunction, others []float64, drawCap float64) {
	c := len(others)
	if cap(f.buf) < 3*c+1 {
		f.buf = make([]float64, 3*c+1)
	}
	buf := f.buf[: 3*c+1 : 3*c+1]
	f.cost, f.drawCap = cost, drawCap
	f.others, f.sorted, f.prefix = buf[:c:c], buf[c:2*c:2*c], buf[2*c:]
	copy(f.others, others)
	sortBreakpoints(f.sorted, f.prefix, others)
}

// At evaluates Ψ_n(p): the total payment for requesting p kW.
func (f *PaymentFunction) At(p float64) float64 {
	if p <= 0 {
		return 0
	}
	alloc := f.Schedule(p)
	var total float64
	for c, a := range alloc {
		if a == 0 {
			continue
		}
		total += f.cost.Cost(f.others[c]+a) - f.cost.Cost(f.others[c])
	}
	return total
}

// Marginal evaluates Ψ'_n(p). By the envelope theorem the derivative
// of the minimum-cost schedule's payment is the marginal section cost
// at the water level: Ψ'_n(p) = Z'(λ*(p)). With an Eq. (3) draw cap
// the marginal power still lands on sections below their cap at the
// level, so the identity carries over. Uncapped, it allocates nothing.
func (f *PaymentFunction) Marginal(p float64) float64 {
	if p < 0 {
		p = 0
	}
	if f.drawCap > 0 {
		_, level := PerDrawWaterFill(f.others, f.drawCap, p)
		return f.cost.Marginal(level)
	}
	return f.cost.Marginal(f.level(p))
}

// Schedule returns the water-filled allocation p̂_n(p) the quote is
// based on.
func (f *PaymentFunction) Schedule(p float64) []float64 {
	if f.drawCap > 0 {
		alloc, _ := PerDrawWaterFill(f.others, f.drawCap, p)
		return alloc
	}
	alloc := make([]float64, len(f.others))
	if p > 0 {
		pourTo(alloc, f.others, f.level(p))
	}
	return alloc
}

// level is the uncapped water level λ*(p) — exactly WaterFill's, from
// the presorted breakpoints.
func (f *PaymentFunction) level(p float64) float64 {
	if len(f.sorted) == 0 {
		return 0
	}
	return levelSorted(f.sorted, f.prefix, p)
}
