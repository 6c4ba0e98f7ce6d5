package serve

// The admin boundary's scenario surface: the "scenario" field on a
// create request is a registered archetype name — never a path — that
// the server expands into a fully explicit spec at create. These
// tests pin the reject table at the decode gate, the expansion's
// field mapping, and one end-to-end session admitted from an
// archetype.

import (
	"strings"
	"testing"
	"time"

	"olevgrid/internal/obs"
	"olevgrid/internal/scenario"
)

// TestDecodeSessionSpecScenarioRejects is the reject table for the
// scenario field: unknown names, spec/scenario conflicts, and anything
// path-shaped must fail at DecodeSessionSpec, before a session exists.
func TestDecodeSessionSpecScenarioRejects(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want string // substring the error must carry
	}{
		{"unknown name", `{"scenario":"no-such-city"}`, "unknown scenario"},
		{"path traversal", `{"scenario":"../rush-hour-surge"}`, "use [a-z0-9-]"},
		{"path segment", `{"scenario":"scenarios/rush-hour-surge"}`, "use [a-z0-9-]"},
		{"windows separator", `{"scenario":"..\\rush-hour-surge"}`, "use [a-z0-9-]"},
		{"json file reference", `{"scenario":"custom.json"}`, "use [a-z0-9-]"},
		{"uppercase", `{"scenario":"Rush-Hour-Surge"}`, "use [a-z0-9-]"},
		{"dot dot", `{"scenario":".."}`, "use [a-z0-9-]"},
		{"overlong", `{"scenario":"` + strings.Repeat("a", 80) + `"}`, "exceeds"},
		{"conflict vehicles", `{"scenario":"rush-hour-surge","vehicles":3}`, "conflicts"},
		{"conflict sections", `{"scenario":"rush-hour-surge","sections":9}`, "conflicts"},
		{"conflict capacity", `{"scenario":"rush-hour-surge","line_capacity_kw":50}`, "conflicts"},
		{"conflict beta", `{"scenario":"rush-hour-surge","beta_per_kwh":0.03}`, "conflicts"},
		{"conflict outages", `{"scenario":"rush-hour-surge","outages":[{"section":1,"down_round":2}]}`, "conflicts"},
		{"meanfield solver", `{"scenario":"rush-hour-surge","solver":"meanfield"}`, "per-vehicle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSessionSpec([]byte(tc.raw))
			if err == nil {
				t.Fatalf("DecodeSessionSpec accepted %s", tc.raw)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// A scenario-named spec with only runtime knobs decodes cleanly: the
// knobs are overrides, not conflicts.
func TestDecodeSessionSpecScenarioAccepts(t *testing.T) {
	for _, raw := range []string{
		`{"scenario":"rush-hour-surge"}`,
		`{"scenario":"blackout-recovery","seed":99,"tolerance":0.001,"max_rounds":500}`,
		`{"scenario":"depot-overnight","parallelism":4}`,
	} {
		if _, err := DecodeSessionSpec([]byte(raw)); err != nil {
			t.Errorf("DecodeSessionSpec(%s): %v", raw, err)
		}
	}
}

// TestExpandScenario pins the expansion's field mapping: sizing,
// capacity and price come from the archetype's session compilation
// ($/kWh units), dead sections arrive as immediate unrestored outages,
// the archetype's seed fills an unset one, and the result records
// from_scenario with the scenario field cleared — a manifest that
// resumes without the registry.
func TestExpandScenario(t *testing.T) {
	spec, err := SessionSpec{Scenario: scenario.BlackoutRecovery}.expandScenario()
	if err != nil {
		t.Fatal(err)
	}
	src, _ := scenario.Get(scenario.BlackoutRecovery)
	p, err := src.SessionParams()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Scenario != "" || spec.FromScenario != scenario.BlackoutRecovery {
		t.Fatalf("expansion bookkeeping wrong: scenario=%q from=%q", spec.Scenario, spec.FromScenario)
	}
	if spec.Vehicles != p.Vehicles || spec.Sections != p.Sections ||
		spec.LineCapacityKW != p.LineCapacityKW || spec.BetaPerKWh != p.BetaPerKWh {
		t.Fatalf("expansion sizing wrong: %+v vs %+v", spec, p)
	}
	if spec.Seed != p.Seed {
		t.Fatalf("unset seed should take the archetype's %d, got %d", p.Seed, spec.Seed)
	}
	if len(spec.Outages) != len(p.Outages) {
		t.Fatalf("%d outages, want %d", len(spec.Outages), len(p.Outages))
	}
	deadDown := 0
	for _, o := range spec.Outages {
		if o.DownRound == 1 && o.UpRound == 0 {
			deadDown++
		}
	}
	if deadDown == 0 {
		t.Fatal("dead sections did not map to immediate unrestored outages")
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("expanded spec invalid: %v", err)
	}

	// A caller seed survives expansion.
	seeded, err := SessionSpec{Scenario: scenario.DepotOvernight, Seed: 777}.expandScenario()
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Seed != 777 {
		t.Fatalf("caller seed overridden: %d", seeded.Seed)
	}

	// No scenario, no change.
	plain := SessionSpec{Vehicles: 3, Sections: 4}
	got, err := plain.expandScenario()
	if err != nil || got.Vehicles != 3 || got.Sections != 4 || got.FromScenario != "" || len(got.Outages) != 0 {
		t.Fatalf("plain spec changed by expandScenario: %+v, %v", got, err)
	}
}

// TestCreateFromScenario admits a session by archetype name and runs
// it to convergence: the expansion, the outage mapping onto the
// coordinator, and the View's scenario attribution, end to end.
func TestCreateFromScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full archetype-sized session")
	}
	s := NewServer(Config{MaxSessions: 4, Registry: obs.NewRegistry()})
	defer s.Close()
	sess, err := s.Create(SessionSpec{Scenario: scenario.BlackoutRecovery})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sess, StateDone, 60*time.Second)
	v := sess.View()
	if !v.Converged {
		t.Fatalf("scenario session did not converge: %+v", v)
	}
	if v.Scenario != scenario.BlackoutRecovery {
		t.Fatalf("View scenario %q, want %q", v.Scenario, scenario.BlackoutRecovery)
	}
	src, _ := scenario.Get(scenario.BlackoutRecovery)
	if v.Vehicles != src.Vehicles {
		t.Fatalf("session fleet %d, want the archetype's %d", v.Vehicles, src.Vehicles)
	}

	// The unknown-name reject also fires at Create, for callers that
	// bypass DecodeSessionSpec.
	if _, err := s.Create(SessionSpec{Scenario: "no-such-city"}); err == nil {
		t.Fatal("Create accepted an unknown scenario")
	}
}
