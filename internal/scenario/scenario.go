// Package scenario is the repo's library of named city archetypes: a
// registry of seeded, JSON-config-loadable workload descriptions (a
// rush-hour surge, a stadium egress, a blackout recovery, a depot
// fleet overnight, a heat-wave price spike) that each compile
// deterministically into the engine's existing configuration types —
// a single-hour pricing.Scenario, a coupled coupling.DayConfig, and
// the daemon's per-session parameters — together with a declared
// expected-outcome envelope (welfare band, rounds ceiling, congestion
// within the safety factor on live sections, payment nonnegativity,
// convergence) that Conform asserts.
//
// The point is regression surface: "the pricing policy flattens a
// rush-hour surge" stops being an anecdote from ad-hoc CLI flags and
// becomes a named, machine-checked claim — the test
// TestConformRegisteredArchetypes runs every registered archetype and
// gates its envelope, the same move that makes the demand-shaping
// results of the source paper's evaluation falsifiable here.
package scenario

import (
	"fmt"
	"math"
	"sort"
)

// Bounds on what a scenario file may ask for. The loader is an
// untrusted boundary (a -scenario file can come from anywhere), so
// every numeric field is range-checked before anything is built on
// its behalf.
const (
	// MaxSpecBytes bounds one scenario file.
	MaxSpecBytes = 1 << 20
	// MaxVehicles bounds a scenario's fleet — aligned with the
	// daemon's per-vehicle admission ceiling so every archetype is
	// admittable as a session.
	MaxVehicles = 1024
	// MaxSections bounds the arterial's charging-section count.
	MaxSections = 4096
	// MaxNameLen bounds a scenario name.
	MaxNameLen = 64
	// MaxRoundsCeiling bounds the envelope's rounds gate and any
	// outage round number.
	MaxRoundsCeiling = 100_000
)

// Spec is one city archetype: everything needed to reproduce the
// workload — fleet, arterial, price level, faults, and the traffic
// day it rides on — plus the outcome envelope it promises. The zero
// value of every optional field means "engine default", so a spec
// describes only what makes its archetype distinctive.
type Spec struct {
	// Name identifies the archetype; registered names and the IDs the
	// daemon derives from them are path segments, so the charset is
	// restricted to [a-z0-9-].
	Name string `json:"name"`
	// Description says what city moment the archetype models.
	Description string `json:"description,omitempty"`
	// Seed drives every stochastic choice: fleet SOC draws, update
	// order, traffic arrivals, feed dropouts.
	Seed int64 `json:"seed"`

	// Vehicles is the fleet size N of the single-hour game (required,
	// 1..MaxVehicles). The coupled day sizes its hourly games from
	// traffic instead, capped by Day.MaxOLEVs.
	Vehicles int `json:"vehicles"`
	// VelocityMPH is the fleet's common cruising speed; zero means 60.
	// It feeds Eq. (1)'s line capacity (slower traffic spends longer
	// over each section, so capacity rises) and the fleet's SOC
	// headroom draws.
	VelocityMPH float64 `json:"velocity_mph,omitempty"`
	// SatisfactionWeight is w in U_n = w·log(1+p); zero means 1.
	SatisfactionWeight float64 `json:"satisfaction_weight,omitempty"`

	// Sections is the arterial's charging-section count C (required,
	// 1..MaxSections).
	Sections int `json:"sections"`
	// SectionLengthM is each section's length in meters; zero means 15.
	SectionLengthM float64 `json:"section_length_m,omitempty"`
	// Eta is the safety factor η; zero means 0.9.
	Eta float64 `json:"eta,omitempty"`

	// BetaPerMWh is the LBMP β pricing the single-hour game; zero
	// means 20. The coupled day prices each hour from its ISO curve
	// instead (scaled by Day.LBMPScale).
	BetaPerMWh float64 `json:"beta_per_mwh,omitempty"`

	// DeadSections lists sections de-energized for the whole game —
	// the blackout's steady state, solved on the survivors
	// (pricing.Scenario.DeadSections).
	DeadSections []int `json:"dead_sections,omitempty"`
	// Outages scripts mid-session section failures and restorations
	// by round number for the control-plane runs (the coordinator's
	// CoordinatorConfig.Outages): the blackout *recovery*, live.
	Outages []RoundOutage `json:"outages,omitempty"`

	// Day shapes the archetype's coupled 24-hour run; nil means the
	// default weekday (the embedded Flatlands profile, clean feed).
	Day *DaySpec `json:"day,omitempty"`

	// Expect is the archetype's declared outcome envelope.
	Expect Envelope `json:"expect"`
}

// RoundOutage is one scripted section failure by round number,
// mirroring sched.SectionOutage without importing the control plane.
type RoundOutage struct {
	// Section is the dying section's index.
	Section int `json:"section"`
	// DownRound is the 1-based round at whose top the section dies.
	DownRound int `json:"down_round"`
	// UpRound restores it; zero means never.
	UpRound int `json:"up_round,omitempty"`
}

// HourOutage is one scripted section failure by hour span for the
// coupled day, mirroring coupling.SectionOutage.
type HourOutage struct {
	Section  int `json:"section"`
	FromHour int `json:"from_hour"`
	// ToHour zero means the rest of the day.
	ToHour int `json:"to_hour,omitempty"`
}

// DaySpec shapes the archetype's coupled day: which traffic profile
// the arterial sees, how the ISO day prices it, and which exogenous
// faults degrade it.
type DaySpec struct {
	// Profile names the hourly traffic shape: "weekday" (default, the
	// embedded Flatlands counts), "weekend", "overnight" (a depot
	// arterial: deep daytime trough, busy night), or "event" (weekday
	// base with a sharp egress pulse at EventHour).
	Profile string `json:"profile,omitempty"`
	// TrafficScale multiplies every hourly count; zero means 1.
	TrafficScale float64 `json:"traffic_scale,omitempty"`
	// EventHour places the "event" profile's egress pulse; only
	// meaningful for that profile. Zero means 22 (a night game
	// letting out).
	EventHour int `json:"event_hour,omitempty"`
	// Participation is the OLEV fraction of traffic; zero means 0.3.
	Participation float64 `json:"participation,omitempty"`
	// MaxOLEVs caps an hour's game size; zero means 50 (the paper's
	// evaluation ceiling).
	MaxOLEVs int `json:"max_olevs,omitempty"`
	// LBMPScale multiplies the ISO day's price bounds — the heat-wave
	// knob; zero means 1.
	LBMPScale float64 `json:"lbmp_scale,omitempty"`
	// FeedDropRate loses each hourly LBMP sample with this
	// probability; the day holds the last-known-good price.
	FeedDropRate float64 `json:"feed_drop_rate,omitempty"`
	// FeedCeiling bounds how many hours a held price stays
	// trustworthy; zero means forever.
	FeedCeiling int `json:"feed_ceiling,omitempty"`
	// SectionOutages takes sections down for hour spans; those hours
	// solve on the survivors.
	SectionOutages []HourOutage `json:"section_outages,omitempty"`
}

// Envelope is an archetype's declared expected outcome: the band the
// conformance harness asserts every time the scenario runs. The
// bounds are deliberately loose enough to hold across seeds — they
// pin the workload's *character* (a depot night is cheap and calm, a
// heat wave is expensive and tight), not one seed's decimals.
type Envelope struct {
	// MinWelfare and MaxWelfare band the single-hour game's social
	// welfare W(p) in $/h.
	MinWelfare float64 `json:"min_welfare"`
	MaxWelfare float64 `json:"max_welfare"`
	// MaxRounds ceilings the full best-response cycles to
	// convergence.
	MaxRounds int `json:"max_rounds"`
	// MaxSectionOverload tolerates this relative overshoot of a live
	// section's total above η·P_line (the overload wall is soft);
	// zero means 0.05.
	MaxSectionOverload float64 `json:"max_section_overload,omitempty"`
	// RequireConverged demands the dynamics settle within the
	// engine's budget.
	RequireConverged bool `json:"require_converged"`
	// MaxWelfareDropVsClean, when positive, additionally runs the
	// archetype's coupled day against its fault-stripped twin and
	// bounds the relative day-welfare drop — the blackout-recovery
	// archetype declares 0.01, mirroring the control plane's 1%
	// chaos bound.
	MaxWelfareDropVsClean float64 `json:"max_welfare_drop_vs_clean,omitempty"`
}

// Validate reports the first problem with the spec. It is the single
// gate behind the loader and the registry: a spec that validates can
// be compiled into every target without panicking.
func (s Spec) Validate() error {
	if err := ValidateName(s.Name); err != nil {
		return err
	}
	if s.Vehicles < 1 || s.Vehicles > MaxVehicles {
		return fmt.Errorf("scenario %s: vehicles %d outside [1, %d]", s.Name, s.Vehicles, MaxVehicles)
	}
	if s.Sections < 1 || s.Sections > MaxSections {
		return fmt.Errorf("scenario %s: sections %d outside [1, %d]", s.Name, s.Sections, MaxSections)
	}
	for name, v := range map[string]float64{
		"velocity_mph":         s.VelocityMPH,
		"satisfaction_weight":  s.SatisfactionWeight,
		"section_length_m":     s.SectionLengthM,
		"eta":                  s.Eta,
		"beta_per_mwh":         s.BetaPerMWh,
		"max_section_overload": s.Expect.MaxSectionOverload,
	} {
		if v < 0 || !finite(v) {
			return fmt.Errorf("scenario %s: %s %v invalid", s.Name, name, v)
		}
	}
	if s.VelocityMPH > 200 {
		return fmt.Errorf("scenario %s: velocity %v mph implausible", s.Name, s.VelocityMPH)
	}
	if s.SectionLengthM > 1000 {
		return fmt.Errorf("scenario %s: section length %v m implausible", s.Name, s.SectionLengthM)
	}
	if s.Eta > 1 {
		return fmt.Errorf("scenario %s: eta %v outside (0, 1]", s.Name, s.Eta)
	}
	if s.BetaPerMWh > 10_000 {
		return fmt.Errorf("scenario %s: beta %v $/MWh implausible", s.Name, s.BetaPerMWh)
	}
	seen := make(map[int]bool, len(s.DeadSections))
	for _, d := range s.DeadSections {
		if d < 0 || d >= s.Sections {
			return fmt.Errorf("scenario %s: dead section %d outside [0, %d)", s.Name, d, s.Sections)
		}
		if seen[d] {
			return fmt.Errorf("scenario %s: dead section %d listed twice", s.Name, d)
		}
		seen[d] = true
	}
	if len(seen) > 0 && len(seen) == s.Sections {
		return fmt.Errorf("scenario %s: all %d sections dead", s.Name, s.Sections)
	}
	for i, o := range s.Outages {
		if o.Section < 0 || o.Section >= s.Sections {
			return fmt.Errorf("scenario %s: outage %d section %d outside [0, %d)", s.Name, i, o.Section, s.Sections)
		}
		if o.DownRound < 1 || o.DownRound > MaxRoundsCeiling {
			return fmt.Errorf("scenario %s: outage %d down round %d outside [1, %d]", s.Name, i, o.DownRound, MaxRoundsCeiling)
		}
		if o.UpRound != 0 && (o.UpRound <= o.DownRound || o.UpRound > MaxRoundsCeiling) {
			return fmt.Errorf("scenario %s: outage %d rounds [%d, %d) invalid", s.Name, i, o.DownRound, o.UpRound)
		}
	}
	if s.Day != nil {
		if err := s.Day.validate(s.Name, s.Sections); err != nil {
			return err
		}
	}
	return s.Expect.validate(s.Name)
}

func (d DaySpec) validate(name string, sections int) error {
	switch d.Profile {
	case "", ProfileWeekday, ProfileWeekend, ProfileOvernight, ProfileEvent:
	default:
		return fmt.Errorf("scenario %s: unknown day profile %q", name, d.Profile)
	}
	for field, v := range map[string]float64{
		"traffic_scale":  d.TrafficScale,
		"participation":  d.Participation,
		"lbmp_scale":     d.LBMPScale,
		"feed_drop_rate": d.FeedDropRate,
	} {
		if v < 0 || !finite(v) {
			return fmt.Errorf("scenario %s: day %s %v invalid", name, field, v)
		}
	}
	if d.TrafficScale > 100 {
		return fmt.Errorf("scenario %s: traffic scale %v implausible", name, d.TrafficScale)
	}
	if d.Participation > 1 {
		return fmt.Errorf("scenario %s: participation %v outside [0, 1]", name, d.Participation)
	}
	if d.LBMPScale > 100 {
		return fmt.Errorf("scenario %s: LBMP scale %v implausible", name, d.LBMPScale)
	}
	if d.FeedDropRate >= 1 {
		return fmt.Errorf("scenario %s: feed drop rate %v outside [0, 1)", name, d.FeedDropRate)
	}
	if d.FeedCeiling < 0 || d.FeedCeiling > 24 {
		return fmt.Errorf("scenario %s: feed ceiling %d outside [0, 24]", name, d.FeedCeiling)
	}
	if d.EventHour < 0 || d.EventHour > 23 {
		return fmt.Errorf("scenario %s: event hour %d outside [0, 24)", name, d.EventHour)
	}
	if d.MaxOLEVs < 0 || d.MaxOLEVs > MaxVehicles {
		return fmt.Errorf("scenario %s: max OLEVs %d outside [0, %d]", name, d.MaxOLEVs, MaxVehicles)
	}
	for i, o := range d.SectionOutages {
		if o.Section < 0 || o.Section >= sections {
			return fmt.Errorf("scenario %s: day outage %d section %d outside [0, %d)", name, i, o.Section, sections)
		}
		if o.FromHour < 0 || o.FromHour > 23 {
			return fmt.Errorf("scenario %s: day outage %d from hour %d outside [0, 24)", name, i, o.FromHour)
		}
		if o.ToHour != 0 && (o.ToHour <= o.FromHour || o.ToHour > 24) {
			return fmt.Errorf("scenario %s: day outage %d hours [%d, %d) invalid", name, i, o.FromHour, o.ToHour)
		}
	}
	return nil
}

func (e Envelope) validate(name string) error {
	for field, v := range map[string]float64{
		"min_welfare":               e.MinWelfare,
		"max_welfare":               e.MaxWelfare,
		"max_welfare_drop_vs_clean": e.MaxWelfareDropVsClean,
	} {
		if !finite(v) {
			return fmt.Errorf("scenario %s: expect %s %v invalid", name, field, v)
		}
	}
	if e.MaxWelfare <= e.MinWelfare {
		return fmt.Errorf("scenario %s: welfare band [%v, %v] empty", name, e.MinWelfare, e.MaxWelfare)
	}
	if e.MaxRounds < 1 || e.MaxRounds > MaxRoundsCeiling {
		return fmt.Errorf("scenario %s: rounds ceiling %d outside [1, %d]", name, e.MaxRounds, MaxRoundsCeiling)
	}
	if e.MaxSectionOverload < 0 || e.MaxSectionOverload > 1 {
		return fmt.Errorf("scenario %s: section overload slack %v outside [0, 1]", name, e.MaxSectionOverload)
	}
	if e.MaxWelfareDropVsClean < 0 || e.MaxWelfareDropVsClean > 1 {
		return fmt.Errorf("scenario %s: welfare drop bound %v outside [0, 1]", name, e.MaxWelfareDropVsClean)
	}
	return nil
}

// ValidateName checks that a scenario name is a safe path segment:
// lower-case letters, digits and dashes only, bounded length, never
// "."/".." — the same discipline the daemon applies to session IDs,
// because scenario names flow into them.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("scenario: name required")
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("scenario: name %d chars exceeds %d", len(name), MaxNameLen)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
		default:
			return fmt.Errorf("scenario: name contains %q; use [a-z0-9-]", r)
		}
	}
	return nil
}

// Day traffic profile names for DaySpec.Profile.
const (
	ProfileWeekday   = "weekday"
	ProfileWeekend   = "weekend"
	ProfileOvernight = "overnight"
	ProfileEvent     = "event"
)

// withDefaults fills engine defaults into zero optional fields; the
// compilers all start from it so a spec's zero values and the engine
// defaults can never drift apart.
func (s Spec) withDefaults() Spec {
	if s.VelocityMPH == 0 {
		s.VelocityMPH = 60
	}
	if s.SatisfactionWeight == 0 {
		s.SatisfactionWeight = 1
	}
	if s.SectionLengthM == 0 {
		s.SectionLengthM = 15
	}
	if s.Eta == 0 {
		s.Eta = 0.9
	}
	if s.BetaPerMWh == 0 {
		s.BetaPerMWh = 20
	}
	if s.Expect.MaxSectionOverload == 0 {
		s.Expect.MaxSectionOverload = 0.05
	}
	if s.Day != nil {
		d := s.Day.withDefaults()
		s.Day = &d
	}
	return s
}

func (d DaySpec) withDefaults() DaySpec {
	if d.Profile == "" {
		d.Profile = ProfileWeekday
	}
	if d.TrafficScale == 0 {
		d.TrafficScale = 1
	}
	if d.EventHour == 0 {
		d.EventHour = 22
	}
	if d.Participation == 0 {
		d.Participation = 0.3
	}
	if d.MaxOLEVs == 0 {
		d.MaxOLEVs = 50
	}
	if d.LBMPScale == 0 {
		d.LBMPScale = 1
	}
	return d
}

// Faulty reports whether the spec injects any exogenous fault — dead
// or failing sections, or a degraded day. The clean twin the
// vs-clean welfare bound compares against is the spec with all of
// these stripped.
func (s Spec) Faulty() bool {
	if len(s.DeadSections) > 0 || len(s.Outages) > 0 {
		return true
	}
	if s.Day == nil {
		return false
	}
	return s.Day.FeedDropRate > 0 || s.Day.FeedCeiling > 0 || len(s.Day.SectionOutages) > 0
}

// CleanTwin returns the spec with every fault stripped: the
// counterfactual healthy city the degraded archetype is measured
// against.
func (s Spec) CleanTwin() Spec {
	s.DeadSections = nil
	s.Outages = nil
	if s.Day != nil {
		d := *s.Day
		d.FeedDropRate = 0
		d.FeedCeiling = 0
		d.SectionOutages = nil
		s.Day = &d
	}
	return s
}

// sortedDead returns the dead sections in ascending order (the spec
// may list them in any order; compiled output is canonical).
func (s Spec) sortedDead() []int {
	if len(s.DeadSections) == 0 {
		return nil
	}
	dead := append([]int(nil), s.DeadSections...)
	sort.Ints(dead)
	return dead
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
