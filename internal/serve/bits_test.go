package serve

// TestSessionBitsGolden pins the exact floating-point outcome of a
// whole distributed session per archetype: the same spec expansion,
// in-process fleet and coordinator configuration the daemon uses, run
// with a round timeout long enough that no retry can fire, so the
// trajectory is a pure function of the seed. Any change to the agent's
// best response, the coordinator's water-fill or its section-totals
// arithmetic that moves a single bit shows up here. blackout-recovery
// covers the dead-section compaction path. Every session runs on both
// wires — JSON-body envelopes over channels and binary frames over
// pipes — and both must print the golden line. Regenerate with:
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
	var sb, bin strings.Builder
	for _, name := range scenario.Names() {
		for _, seed := range sessionBitsSeeds {
			sb.WriteString(retryFreeBits(t, name, seed, ""))
			bin.WriteString(retryFreeBits(t, name, seed, "binary"))
		}
	}
	got := sb.String()
	if bin.String() != got {
		t.Errorf("binary-wire session bits differ from JSON:\n--- binary ---\n%s--- json ---\n%s", bin.String(), got)
	}
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

// sessionBitsSweepSeeds is how many seeds TestSessionBitsWireSweep
// runs per archetype on each wire.
const sessionBitsSweepSeeds = 6

// TestSessionBitsWireSweep is the cross-wire stress gate beyond the
// golden's two seeds: for every archetype over a seed range, a session
// on binary pipe links must end bit for bit where the same session on
// JSON channel links does, whenever neither run needed a retry (a
// retry makes the trajectory timing-dependent).
func TestSessionBitsWireSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep runs dozens of sessions")
	}
	compared := 0
	for _, name := range scenario.Names() {
		for seed := int64(1); seed <= sessionBitsSweepSeeds; seed++ {
			jline, jretries := sessionBits(t, name, seed, "")
			bline, bretries := sessionBits(t, name, seed, "binary")
			if jretries != 0 || bretries != 0 {
				t.Logf("%s seed %d: retries json %d binary %d; bits not compared", name, seed, jretries, bretries)
				continue
			}
			compared++
			if jline != bline {
				t.Errorf("%s seed %d: wires diverged\n json   %s binary %s", name, seed, jline, bline)
			}
		}
	}
	if total := len(scenario.Names()) * sessionBitsSweepSeeds; 2*compared < total {
		t.Fatalf("only %d of %d seed pairs ran retry-free; the sweep proves too little", compared, total)
	}
}

// retryFreeBits is sessionBits for a run that must need no retry.
func retryFreeBits(t *testing.T, name string, seed int64, wire string) string {
	t.Helper()
	line, retries := sessionBits(t, name, seed, wire)
	if retries != 0 {
		t.Fatalf("%s seed %d wire %q: %d retries — the run is not retry-free, so its bits are timing-dependent",
			name, seed, wire, retries)
	}
	return line
}

// sessionBits runs one archetype session at seed on the given spec
// wire and renders its outcome as exact bit patterns, with the
// session's retry count.
func sessionBits(t *testing.T, name string, seed int64, wire string) (string, int) {
	t.Helper()
	spec, err := SessionSpec{Scenario: name, Seed: seed, Wire: wire}.expandScenario()
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.withDefaults(time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f, err := newFleet(ctx, spec)
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
		t.Fatalf("%s seed %d wire %q: %v", name, seed, wire, err)
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
		math.Float64bits(report.TotalPowerKW), math.Float64bits(report.WelfareCost), h.Sum64()), report.Retries
}
