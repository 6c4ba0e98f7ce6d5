package scenario

// Cross-seed property tests: an archetype's envelope pins the
// workload's character, not one seed's decimals, so every gate must
// hold when the scenario is re-seeded. Each registered archetype runs
// at its declared seed and the four following it; the
// blackout-recovery archetype additionally holds its coupled day
// within the declared bound of the fault-stripped clean twin across
// the same seed window.

import (
	"testing"

	"olevgrid/internal/coupling"
	"olevgrid/internal/pricing"
)

const seedWindow = 5

func TestEnvelopeAcrossSeeds(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, _ := Get(name)
			for off := int64(0); off < seedWindow; off++ {
				rs := s
				rs.Seed = s.Seed + off
				game, err := rs.GameScenario()
				if err != nil {
					t.Fatal(err)
				}
				out, err := pricing.Nonlinear{}.Run(game)
				if err != nil {
					t.Fatalf("seed %d: %v", rs.Seed, err)
				}
				c := rs.CheckOutcome(out)
				if !c.Pass {
					t.Errorf("seed %d breaks the envelope: welfare=%.2f band=%v rounds=%d(%v) congestion=%v payments=%v converged=%v",
						rs.Seed, c.Welfare, c.GateWelfareBand, c.Rounds, c.GateRounds,
						c.GateCongestion, c.GatePayments, c.GateConverged)
				}
			}
		})
	}
}

// TestBlackoutRecoveryVsCleanAcrossSeeds runs the degraded day against
// its clean twin at each seed in the window and asserts the declared
// welfare-drop bound — the scenario-level mirror of the control
// plane's 1% chaos bound. Short mode checks the declared seed only;
// the full window is ten coupled-day runs.
func TestBlackoutRecoveryVsCleanAcrossSeeds(t *testing.T) {
	s, _ := Get(BlackoutRecovery)
	bound := s.Expect.MaxWelfareDropVsClean
	if bound <= 0 {
		t.Fatal("blackout-recovery declares no vs-clean bound")
	}
	window := int64(seedWindow)
	if testing.Short() {
		window = 1
	}
	for off := int64(0); off < window; off++ {
		rs := s
		rs.Seed = s.Seed + off
		faulted := runDay(t, rs)
		clean := runDay(t, rs.CleanTwin())
		drop := welfareDrop(clean, faulted)
		if drop > bound {
			t.Errorf("seed %d: welfare drop %.4f exceeds %.4f (faulted %.2f, clean %.2f)",
				rs.Seed, drop, bound, faulted, clean)
		}
	}
}

func runDay(t *testing.T, s Spec) float64 {
	t.Helper()
	cfg, err := s.DayConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := coupling.RunDay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return DayWelfare(res)
}

// TestConformRegisteredArchetypes is the scenario library's acceptance
// gate: every registered archetype passes every declared gate end to
// end (welfare band, rounds ceiling, congestion within η, nonnegative
// payments, convergence, and blackout-recovery's vs-clean day bound).
// It skips under -short, so CI runs it without that flag.
func TestConformRegisteredArchetypes(t *testing.T) {
	if testing.Short() {
		t.Skip("covered per-gate by the cross-seed tests; full Conform runs coupled days")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, _ := Get(name)
			c, err := Conform(s)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Pass {
				t.Errorf("conformance failed: %+v", c)
			}
		})
	}
}
