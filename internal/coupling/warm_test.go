package coupling

import (
	"math"
	"testing"
)

// TestRunDayWarmStartMatchesCold is the coupled-day half of the
// warm-start guard: hour-chaining must change round counts, never the
// equilibria. Cold and warm days run the same solver at the same tight
// tolerance; every hour's schedules must agree to 1e-9 per entry, all
// 24 hourly welfares (empty hours included) to 1e-6, and the warm day
// must spend strictly fewer total rounds.
func TestRunDayWarmStartMatchesCold(t *testing.T) {
	base := DayConfig{
		Seed:          3,
		Parallelism:   1,
		Tolerance:     1e-11,
		KeepSchedules: true,
	}
	cold, err := RunDay(base)
	if err != nil {
		t.Fatal(err)
	}
	warm := base
	warm.WarmStart = true
	warmRes, err := RunDay(warm)
	if err != nil {
		t.Fatal(err)
	}

	var maxDiff float64
	for h := 0; h < 24; h++ {
		hc, hw := cold.Hours[h], warmRes.Hours[h]
		if hc.OLEVs != hw.OLEVs {
			t.Fatalf("hour %d: fleet size changed under warm start (%d vs %d)", h, hc.OLEVs, hw.OLEVs)
		}
		if d := math.Abs(hc.Welfare - hw.Welfare); d > 1e-6 {
			t.Errorf("hour %d: welfare diverges by %g", h, d)
		}
		if hc.OLEVs == 0 {
			continue
		}
		sc, sw := hc.Schedule, hw.Schedule
		if sc == nil || sw == nil {
			t.Fatalf("hour %d: KeepSchedules did not retain schedules", h)
		}
		for n := 0; n < sc.NumOLEVs(); n++ {
			for c := 0; c < sc.NumSections(); c++ {
				if d := math.Abs(sc.At(n, c) - sw.At(n, c)); d > maxDiff {
					maxDiff = d
				}
			}
		}
	}
	if maxDiff > 1e-9 {
		t.Errorf("max per-hour schedule divergence %g exceeds 1e-9", maxDiff)
	}
	if cold.TotalRounds <= 0 || warmRes.TotalRounds <= 0 {
		t.Fatal("round accounting missing")
	}
	if warmRes.TotalRounds >= cold.TotalRounds {
		t.Errorf("warm day took %d rounds, cold %d — chaining saved nothing",
			warmRes.TotalRounds, cold.TotalRounds)
	}
	t.Logf("day rounds: cold=%d warm=%d, max schedule divergence=%g",
		cold.TotalRounds, warmRes.TotalRounds, maxDiff)
}

// TestRunDayColdDefaultsUnchanged pins that the new knobs are opt-in:
// a zero-config day must not record schedules, and the asynchronous
// path must fill the new round columns from its update counts.
func TestRunDayColdDefaultsUnchanged(t *testing.T) {
	res, err := RunDay(DayConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for h, out := range res.Hours {
		if out.Schedule != nil {
			t.Fatalf("hour %d retained a schedule without KeepSchedules", h)
		}
		if out.OLEVs > 0 && out.Rounds == 0 {
			t.Fatalf("hour %d has %d OLEVs but zero rounds", h, out.OLEVs)
		}
	}
	if res.TotalRounds == 0 {
		t.Error("day total rounds not accumulated")
	}
}
