package serve

// TestSessionBitsGolden pins the exact floating-point outcome of a
// whole distributed session per archetype: the same spec expansion,
// in-process fleet and coordinator configuration the daemon uses, run
// with a round timeout long enough that no retry can fire, so the
// trajectory is a pure function of the seed. Any change to the agent's
// best response, the coordinator's water-fill or its section-totals
// arithmetic that moves a single bit shows up here. blackout-recovery
// covers the dead-section compaction path. Regenerate with:
//
//	go test ./internal/serve -run SessionBitsGolden -update

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"olevgrid/internal/scenario"
	"olevgrid/internal/sched"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sessionBitsSeeds are the two fixed seeds every archetype runs at.
var sessionBitsSeeds = []int64{3, 11}

func TestSessionBitsGolden(t *testing.T) {
	var sb strings.Builder
	for _, name := range scenario.Names() {
		for _, seed := range sessionBitsSeeds {
			sb.WriteString(retryFreeBits(t, name, seed))
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "session_bits.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("session bits drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// retryFreeBits runs one archetype session at seed and renders its
// outcome as exact bit patterns. The run must need no retry: a retry
// makes the trajectory timing-dependent.
func retryFreeBits(t *testing.T, name string, seed int64) string {
	t.Helper()
	spec, err := SessionSpec{Scenario: name, Seed: seed}.expandScenario()
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.withDefaults(time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f, err := newFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	cfg := coordinatorConfig(spec, nil, nil)
	cfg.RoundTimeout = 10 * time.Second
	coord, err := sched.NewCoordinator(cfg, f.links)
	if err != nil {
		t.Fatal(err)
	}
	report, err := coord.Run(ctx)
	_ = coord.Close()
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if report.Retries != 0 {
		t.Fatalf("%s seed %d: %d retries — the run is not retry-free, so its bits are timing-dependent",
			name, seed, report.Retries)
	}

	ids := make([]string, 0, len(report.Schedule))
	for id := range report.Schedule {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := fnv.New64()
	var buf [8]byte
	for _, id := range ids {
		for _, v := range report.Schedule[id] {
			b := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%s seed %d: rounds %d epoch %d retries %d power %016x welfare %016x schedule %016x\n",
		name, seed, report.Rounds, report.FinalEpoch, report.Retries,
		math.Float64bits(report.TotalPowerKW), math.Float64bits(report.WelfareCost), h.Sum64())
}
