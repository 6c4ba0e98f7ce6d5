package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"olevgrid/internal/stats"
)

func TestWaterFillEqualBackground(t *testing.T) {
	others := []float64{10, 10, 10, 10}
	alloc, level := WaterFill(others, 8)
	for c, a := range alloc {
		if math.Abs(a-2) > 1e-12 {
			t.Errorf("alloc[%d] = %v, want 2", c, a)
		}
	}
	if math.Abs(level-12) > 1e-12 {
		t.Errorf("level = %v, want 12", level)
	}
}

func TestWaterFillFillsValleysFirst(t *testing.T) {
	// Background 0, 5, 20. A request of 10 should pool in the two low
	// sections: level = (10 + 0 + 5)/2 = 7.5 → alloc 7.5, 2.5, 0.
	others := []float64{0, 5, 20}
	alloc, level := WaterFill(others, 10)
	want := []float64{7.5, 2.5, 0}
	for c := range want {
		if math.Abs(alloc[c]-want[c]) > 1e-12 {
			t.Errorf("alloc[%d] = %v, want %v", c, alloc[c], want[c])
		}
	}
	if math.Abs(level-7.5) > 1e-12 {
		t.Errorf("level = %v, want 7.5", level)
	}
}

func TestWaterFillFloodsAll(t *testing.T) {
	// A request above Y(max(others)) = 35 floods every section:
	// level = (40 + 0 + 5 + 20)/3.
	others := []float64{0, 5, 20}
	alloc, level := WaterFill(others, 40)
	wantLevel := 65.0 / 3
	if math.Abs(level-wantLevel) > 1e-12 {
		t.Errorf("level = %v, want %v", level, wantLevel)
	}
	var sum float64
	for c, a := range alloc {
		if a <= 0 {
			t.Errorf("alloc[%d] = %v, want positive", c, a)
		}
		sum += a
	}
	if math.Abs(sum-40) > 1e-9 {
		t.Errorf("sum = %v, want 40", sum)
	}
}

func TestWaterFillZeroAndNegativeTotal(t *testing.T) {
	others := []float64{3, 1, 2}
	for _, total := range []float64{0, -5} {
		alloc, level := WaterFill(others, total)
		for c, a := range alloc {
			if a != 0 {
				t.Errorf("total=%v alloc[%d] = %v, want 0", total, c, a)
			}
		}
		if level != 1 {
			t.Errorf("total=%v level = %v, want min(others)=1", total, level)
		}
	}
}

func TestWaterFillEmpty(t *testing.T) {
	alloc, level := WaterFill(nil, 10)
	if len(alloc) != 0 || level != 0 {
		t.Errorf("empty input: alloc=%v level=%v", alloc, level)
	}
}

func TestWaterFillDoesNotMutateInput(t *testing.T) {
	others := []float64{9, 1, 5}
	WaterFill(others, 7)
	if others[0] != 9 || others[1] != 1 || others[2] != 5 {
		t.Errorf("input mutated: %v", others)
	}
}

// waterFillInvariants checks the KKT structure of Lemma IV.1 on an
// arbitrary instance: allocations are non-negative, sum to the
// request, sections receiving power sit exactly at the level, and
// sections above the level receive nothing.
func waterFillInvariants(t *testing.T, others []float64, total float64, alloc []float64, level float64) {
	t.Helper()
	var sum float64
	for c, a := range alloc {
		if a < 0 {
			t.Fatalf("alloc[%d] = %v negative", c, a)
		}
		sum += a
		if a > 1e-9 {
			if got := others[c] + a; math.Abs(got-level) > 1e-6*(1+math.Abs(level)) {
				t.Fatalf("active section %d lands at %v, level %v", c, got, level)
			}
		} else if others[c] < level-1e-6 {
			t.Fatalf("inactive section %d sits below level: %v < %v", c, others[c], level)
		}
	}
	if math.Abs(sum-total) > 1e-6*(1+total) {
		t.Fatalf("alloc sums to %v, want %v", sum, total)
	}
}

func TestWaterFillInvariantsRandom(t *testing.T) {
	r := stats.NewRand(42)
	for trial := 0; trial < 500; trial++ {
		c := 1 + r.Intn(40)
		others := make([]float64, c)
		for i := range others {
			others[i] = r.Float64() * 100
		}
		total := r.Float64() * 300
		alloc, level := WaterFill(others, total)
		waterFillInvariants(t, others, total, alloc, level)
	}
}

func TestWaterFillMatchesBisection(t *testing.T) {
	r := stats.NewRand(7)
	for trial := 0; trial < 300; trial++ {
		c := 1 + r.Intn(30)
		others := make([]float64, c)
		for i := range others {
			others[i] = r.Float64() * 50
		}
		total := r.Float64() * 200
		exact, exactLevel := WaterFill(others, total)
		bis, bisLevel := WaterFillBisect(others, total, 1e-10)
		if math.Abs(exactLevel-bisLevel) > 1e-5*(1+exactLevel) {
			t.Fatalf("levels differ: exact %v bisect %v", exactLevel, bisLevel)
		}
		for i := range exact {
			if math.Abs(exact[i]-bis[i]) > 1e-4*(1+exact[i]) {
				t.Fatalf("alloc[%d] differs: exact %v bisect %v", i, exact[i], bis[i])
			}
		}
	}
}

func TestWaterFillBisectEdgeCases(t *testing.T) {
	if alloc, level := WaterFillBisect(nil, 5, 1e-9); len(alloc) != 0 || level != 0 {
		t.Error("empty input mishandled")
	}
	alloc, level := WaterFillBisect([]float64{4, 2}, 0, 1e-9)
	if alloc[0] != 0 || alloc[1] != 0 || level != 2 {
		t.Errorf("zero total: alloc=%v level=%v", alloc, level)
	}
	// Non-positive tolerance falls back to a sane default.
	alloc, _ = WaterFillBisect([]float64{0, 0}, 10, -1)
	if math.Abs(alloc[0]+alloc[1]-10) > 1e-6 {
		t.Errorf("default tol: sum = %v", alloc[0]+alloc[1])
	}
}

// TestWaterFillIsMinimumCost verifies the substance of Lemma IV.1:
// against any random alternative feasible split, the water-filled
// schedule has no higher total convex cost.
func TestWaterFillIsMinimumCost(t *testing.T) {
	z, err := NewQuadraticCharging(0.02, 0.875, 50)
	if err != nil {
		t.Fatal(err)
	}
	costOf := func(others, alloc []float64) float64 {
		var total float64
		for c := range alloc {
			total += z.Cost(others[c] + alloc[c])
		}
		return total
	}
	r := stats.NewRand(99)
	for trial := 0; trial < 200; trial++ {
		c := 2 + r.Intn(10)
		others := make([]float64, c)
		for i := range others {
			others[i] = r.Float64() * 40
		}
		total := 1 + r.Float64()*80
		alloc, _ := WaterFill(others, total)
		best := costOf(others, alloc)

		// Random feasible alternative: Dirichlet-ish split of total.
		alt := randomSplit(r, c, total)
		if altCost := costOf(others, alt); altCost < best-1e-9 {
			t.Fatalf("alternative split beats water-fill: %v < %v (others=%v total=%v)",
				altCost, best, others, total)
		}
	}
}

func randomSplit(r *rand.Rand, c int, total float64) []float64 {
	weights := make([]float64, c)
	var sum float64
	for i := range weights {
		weights[i] = -math.Log(1 - r.Float64())
		sum += weights[i]
	}
	out := make([]float64, c)
	for i := range out {
		out[i] = total * weights[i] / sum
	}
	return out
}

// TestWaterLevelMonotone: the payment function's λ*(p) must be
// strictly increasing in p once p > 0 — the property the best-response
// bisection relies on.
func TestWaterLevelMonotone(t *testing.T) {
	psi := NewPaymentFunction(testCost(t), []float64{3, 8, 0, 15})
	prev := psi.level(0.1)
	for p := 1.0; p <= 100; p++ {
		cur := psi.level(p)
		if cur <= prev {
			t.Fatalf("level not increasing at p=%v: %v <= %v", p, cur, prev)
		}
		prev = cur
	}
}

func TestWaterFillQuickProperty(t *testing.T) {
	f := func(raw []float64, rawTotal float64) bool {
		others := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				others = append(others, math.Mod(math.Abs(v), 1000))
			}
		}
		if len(others) == 0 || math.IsNaN(rawTotal) || math.IsInf(rawTotal, 0) {
			return true
		}
		total := math.Mod(math.Abs(rawTotal), 5000)
		alloc, level := WaterFill(others, total)
		var sum float64
		for c, a := range alloc {
			if a < 0 {
				return false
			}
			if a > 0 && others[c] > level+1e-6 {
				return false
			}
			sum += a
		}
		return total <= 0 || math.Abs(sum-total) < 1e-6*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
