package core

import (
	"fmt"
	"math"
	"testing"

	"olevgrid/internal/stats"
)

func TestBestResponseInteriorMaximizesUtility(t *testing.T) {
	z := testCost(t)
	others := []float64{5, 15, 0}
	psi := NewPaymentFunction(z, others)
	u := LogSatisfaction{Weight: 1}

	p := BestResponse(u, psi, 500)
	if p <= 0 || p >= 500 {
		t.Fatalf("expected interior optimum, got %v", p)
	}
	// First-order condition at the optimum.
	foc := u.Marginal(p) - psi.Marginal(p)
	if math.Abs(foc) > 1e-6 {
		t.Errorf("F'(p*) = %v, want ~0", foc)
	}
	// No grid point does better.
	best := u.Value(p) - psi.At(p)
	for q := 0.0; q <= 500; q += 0.5 {
		if got := u.Value(q) - psi.At(q); got > best+1e-6 {
			t.Fatalf("F(%v) = %v beats F(p*=%v) = %v", q, got, p, best)
		}
	}
}

func TestBestResponseCornerZero(t *testing.T) {
	// Lemma IV.3 case 1: marginal price at zero already exceeds
	// marginal satisfaction → request nothing.
	z := testCost(t)
	// Extremely loaded sections: Z' at the water level is huge.
	psi := NewPaymentFunction(z, []float64{500, 500})
	u := LogSatisfaction{Weight: 0.001}
	if p := BestResponse(u, psi, 100); p != 0 {
		t.Errorf("BestResponse = %v, want 0", p)
	}
}

func TestBestResponseCornerMax(t *testing.T) {
	// Lemma IV.3 case 2: satisfaction dominates even at pmax → take
	// the ceiling P^OLEV_n.
	z := testCost(t)
	psi := NewPaymentFunction(z, []float64{0, 0, 0, 0})
	u := LogSatisfaction{Weight: 1000}
	if p := BestResponse(u, psi, 50); p != 50 {
		t.Errorf("BestResponse = %v, want pmax 50", p)
	}
}

func TestBestResponseZeroPmax(t *testing.T) {
	psi := NewPaymentFunction(testCost(t), []float64{1})
	if p := BestResponse(LogSatisfaction{Weight: 1}, psi, 0); p != 0 {
		t.Errorf("BestResponse with pmax=0 = %v", p)
	}
	if p := BestResponse(LogSatisfaction{Weight: 1}, psi, -3); p != 0 {
		t.Errorf("BestResponse with negative pmax = %v", p)
	}
}

func TestBestResponseSqrtSatisfaction(t *testing.T) {
	// The machinery must work for any strictly concave U.
	z := testCost(t)
	psi := NewPaymentFunction(z, []float64{2, 4})
	u := SqrtSatisfaction{Weight: 0.5}
	p := BestResponse(u, psi, 300)
	if p <= 0 {
		t.Fatal("expected positive request")
	}
	best := u.Value(p) - psi.At(p)
	for q := 0.5; q <= 300; q += 0.5 {
		if got := u.Value(q) - psi.At(q); got > best+1e-6 {
			t.Fatalf("F(%v) = %v beats optimum %v at %v", q, got, best, p)
		}
	}
}

func TestBestResponseRandomInstancesNeverBeaten(t *testing.T) {
	r := stats.NewRand(31)
	z := testCost(t)
	for trial := 0; trial < 100; trial++ {
		c := 1 + r.Intn(15)
		others := make([]float64, c)
		for i := range others {
			others[i] = r.Float64() * 60
		}
		psi := NewPaymentFunction(z, others)
		u := LogSatisfaction{Weight: 0.1 + r.Float64()*3}
		pmax := 1 + r.Float64()*150
		p := BestResponse(u, psi, pmax)
		if p < 0 || p > pmax {
			t.Fatalf("BestResponse %v outside [0, %v]", p, pmax)
		}
		best := u.Value(p) - psi.At(p)
		for i := 0; i < 50; i++ {
			q := r.Float64() * pmax
			if got := u.Value(q) - psi.At(q); got > best+1e-5 {
				t.Fatalf("random q=%v beats optimum: %v > %v", q, got, best)
			}
		}
	}
}

// BenchmarkBestResponse measures one vehicle's work per quote: build
// Ψ_n from the quoted background load, then solve Lemma IV.3 against
// it — the daemon's section cost, a log satisfaction and an interior
// optimum, so the bisection runs all its probes.
//
//	go test ./internal/core -run '^$' -bench BestResponse -benchmem
func BenchmarkBestResponse(b *testing.B) {
	charging, err := NewQuadraticCharging(0.02, 0.875, 53.55)
	if err != nil {
		b.Fatal(err)
	}
	cost := SectionCost{Charging: charging, Overload: OverloadPenalty{Kappa: 10, Capacity: 0.9 * 53.55}}
	sat := LogSatisfaction{Weight: 1}
	for _, c := range []int{16, 24} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			rng := stats.NewRand(int64(c))
			others := make([]float64, c)
			for i := range others {
				others[i] = 20 + 20*rng.Float64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRequest = BestResponse(sat, NewPaymentFunction(cost, others), 60)
			}
		})
	}
}

// benchRequest keeps BenchmarkBestResponse's result live.
var benchRequest float64
