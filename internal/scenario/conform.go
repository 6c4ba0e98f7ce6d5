package scenario

import (
	"fmt"

	"olevgrid/internal/coupling"
	"olevgrid/internal/pricing"
)

// Conformance is one archetype's measured outcome against its
// declared envelope, the row TestConformRegisteredArchetypes gates.
// Each gate is reported individually so a failure says which promise
// broke, not just that one did.
type Conformance struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`

	// The single-hour game's measurements.
	Welfare             float64 `json:"welfare"`
	Rounds              int     `json:"rounds"`
	Converged           bool    `json:"converged"`
	CongestionDegree    float64 `json:"congestion_degree"`
	MaxSectionLoadRatio float64 `json:"max_section_load_ratio"` // max live P_c / (η·P_line)
	TotalPaymentPerHour float64 `json:"total_payment_per_hour"`
	MinPlayerKW         float64 `json:"min_player_kw"`

	// The coupled-day welfare comparison, present only when the
	// envelope declares a vs-clean bound.
	DayWelfare         float64 `json:"day_welfare,omitempty"`
	CleanDayWelfare    float64 `json:"clean_day_welfare,omitempty"`
	WelfareDropVsClean float64 `json:"welfare_drop_vs_clean,omitempty"`

	// The envelope's gates.
	GateWelfareBand bool `json:"gate_welfare_band"`
	GateRounds      bool `json:"gate_rounds"`
	GateCongestion  bool `json:"gate_congestion"`
	GatePayments    bool `json:"gate_payments"`
	GateConverged   bool `json:"gate_converged"`
	GateVsClean     bool `json:"gate_vs_clean"`
	Pass            bool `json:"pass"`
}

// paymentSlackKW tolerates float drift below zero in per-player
// schedule totals; anything more negative is a real violation.
const paymentSlackKW = 1e-9

// CheckOutcome scores one game outcome against the spec's envelope,
// filling every game-level gate (the vs-clean day gate is Conform's
// job; here it passes vacuously). The cross-seed property suite
// calls this directly with re-seeded runs.
func (s Spec) CheckOutcome(out pricing.Outcome) Conformance {
	s = s.withDefaults()
	e := s.Expect
	c := Conformance{
		Name:                s.Name,
		Seed:                s.Seed,
		Welfare:             out.Welfare,
		Rounds:              out.Rounds,
		Converged:           out.Converged,
		CongestionDegree:    out.CongestionDegree,
		TotalPaymentPerHour: out.TotalPaymentPerHour,
		GateVsClean:         true,
	}

	// Congestion within the safety factor on live sections: both the
	// aggregate degree (whose denominator is surviving capacity when
	// sections are dead) and every live section's own total against
	// its η·P_line guard, with the envelope's soft-wall slack.
	dead := make(map[int]bool, len(s.DeadSections))
	for _, d := range s.DeadSections {
		dead[d] = true
	}
	usable := s.Eta * s.LineCapacityKW()
	for sec, total := range out.SectionTotalsKW {
		if dead[sec] {
			continue
		}
		if ratio := total / usable; ratio > c.MaxSectionLoadRatio {
			c.MaxSectionLoadRatio = ratio
		}
	}

	c.MinPlayerKW = 0
	for i, kw := range out.PlayerTotalsKW {
		if i == 0 || kw < c.MinPlayerKW {
			c.MinPlayerKW = kw
		}
	}

	c.GateWelfareBand = out.Welfare >= e.MinWelfare && out.Welfare <= e.MaxWelfare
	c.GateRounds = out.Rounds <= e.MaxRounds
	c.GateCongestion = out.CongestionDegree <= s.Eta*(1+e.MaxSectionOverload) &&
		c.MaxSectionLoadRatio <= 1+e.MaxSectionOverload
	c.GatePayments = out.TotalPaymentPerHour >= 0 && out.UnitPaymentPerMWh >= 0 &&
		c.MinPlayerKW >= -paymentSlackKW
	c.GateConverged = !e.RequireConverged || out.Converged
	c.Pass = c.GateWelfareBand && c.GateRounds && c.GateCongestion &&
		c.GatePayments && c.GateConverged && c.GateVsClean
	return c
}

// Conform runs the archetype and asserts its envelope: the
// single-hour game for every gate, plus — when the envelope declares
// a vs-clean bound — the coupled day against its fault-stripped twin.
func Conform(s Spec) (Conformance, error) {
	game, err := s.GameScenario()
	if err != nil {
		return Conformance{}, err
	}
	out, err := pricing.Nonlinear{}.Run(game)
	if err != nil {
		return Conformance{}, fmt.Errorf("scenario %s: game: %w", s.Name, err)
	}
	c := s.CheckOutcome(out)

	if bound := s.Expect.MaxWelfareDropVsClean; bound > 0 {
		faulted, err := runDayWelfare(s)
		if err != nil {
			return c, err
		}
		clean, err := runDayWelfare(s.CleanTwin())
		if err != nil {
			return c, err
		}
		c.DayWelfare = faulted
		c.CleanDayWelfare = clean
		c.WelfareDropVsClean = welfareDrop(clean, faulted)
		c.GateVsClean = c.WelfareDropVsClean <= bound
		c.Pass = c.Pass && c.GateVsClean
	}
	return c, nil
}

// runDayWelfare runs the archetype's coupled day and returns its
// total welfare (the per-hour game welfare summed over the day).
func runDayWelfare(s Spec) (float64, error) {
	cfg, err := s.DayConfig()
	if err != nil {
		return 0, err
	}
	res, err := coupling.RunDay(cfg)
	if err != nil {
		return 0, fmt.Errorf("scenario %s: day: %w", s.Name, err)
	}
	return DayWelfare(res), nil
}

// DayWelfare sums a coupled day's hourly welfare.
func DayWelfare(res *coupling.DayResult) float64 {
	var sum float64
	for _, h := range res.Hours {
		sum += h.Welfare
	}
	return sum
}

// welfareDrop is the relative welfare lost to the faults, clamped at
// zero: a degraded day that happens to price *better* than clean is
// not a violation.
func welfareDrop(clean, faulted float64) float64 {
	if clean <= 0 {
		return 0
	}
	drop := (clean - faulted) / clean
	if drop < 0 {
		return 0
	}
	return drop
}
