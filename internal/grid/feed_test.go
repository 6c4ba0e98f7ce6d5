package grid

import (
	"math"
	"testing"
)

func mustFeed(t *testing.T, src func(int) float64, cfg FeedConfig) *LBMPFeed {
	t.Helper()
	f, err := NewLBMPFeed(src, cfg)
	if err != nil {
		t.Fatalf("NewLBMPFeed: %v", err)
	}
	return f
}

// A clean feed is a transparent pass-through.
func TestFeedCleanPassThrough(t *testing.T) {
	f := mustFeed(t, func(i int) float64 { return 10 + float64(i) }, FeedConfig{})
	for i := 0; i < 5; i++ {
		got, ok := f.Sample(i)
		if !ok || got != 10+float64(i) {
			t.Fatalf("Sample(%d) = %v, %v; want %v, true", i, got, ok, 10+float64(i))
		}
	}
	if f.Dropouts() != 0 || f.Held() != 0 || f.MaxAge() != 0 {
		t.Fatalf("clean feed recorded faults: drop=%d held=%d age=%d",
			f.Dropouts(), f.Held(), f.MaxAge())
	}
}

// A scripted window serves last-known-good, decaying toward the floor.
func TestFeedWindowDecay(t *testing.T) {
	cfg := FeedConfig{
		Windows:   []FeedWindow{{From: 1, To: 4}},
		Decay:     0.5,
		FloorBeta: 10,
	}
	f := mustFeed(t, func(int) float64 { return 90 }, cfg)
	if got, ok := f.Sample(0); !ok || got != 90 {
		t.Fatalf("step 0 = %v, %v", got, ok)
	}
	want := []float64{50, 30, 20} // 10 + (cur-10)*0.5 each dark step
	for i, w := range want {
		got, ok := f.Sample(1 + i)
		if !ok || math.Abs(got-w) > 1e-12 {
			t.Fatalf("dark step %d = %v, %v; want %v, true", 1+i, got, ok, w)
		}
	}
	// Recovery: the next sample is a fresh source read.
	if got, ok := f.Sample(4); !ok || got != 90 {
		t.Fatalf("recovered step = %v, %v; want 90, true", got, ok)
	}
	if f.Dropouts() != 3 || f.MaxAge() != 3 {
		t.Fatalf("counters: drop=%d age=%d; want 3, 3", f.Dropouts(), f.MaxAge())
	}
}

// Beyond the staleness ceiling, Sample reports ok=false so the consumer
// holds its last applied price instead of trusting a fossil.
func TestFeedStalenessCeiling(t *testing.T) {
	cfg := FeedConfig{
		Windows:          []FeedWindow{{From: 1, To: 10}},
		StalenessCeiling: 2,
	}
	f := mustFeed(t, func(int) float64 { return 42 }, cfg)
	if _, ok := f.Sample(0); !ok {
		t.Fatal("first sample should be good")
	}
	for i := 1; i <= 2; i++ {
		if got, ok := f.Sample(i); !ok || got != 42 {
			t.Fatalf("within ceiling step %d = %v, %v; want 42, true", i, got, ok)
		}
	}
	for i := 3; i < 6; i++ {
		if _, ok := f.Sample(i); ok {
			t.Fatalf("step %d beyond ceiling should report !ok", i)
		}
	}
	if f.Held() != 3 {
		t.Fatalf("Held = %d, want 3", f.Held())
	}
}

// A feed that has never delivered a good sample serves nothing.
func TestFeedNeverGood(t *testing.T) {
	f := mustFeed(t, func(int) float64 { return 1 }, FeedConfig{
		Windows: []FeedWindow{{From: 0, To: 3}},
	})
	for i := 0; i < 3; i++ {
		if _, ok := f.Sample(i); ok {
			t.Fatalf("step %d with no good sample yet should report !ok", i)
		}
	}
}

// Random dropouts are seeded and reproducible, and the drop fraction
// lands near the configured rate.
func TestFeedSeededDropouts(t *testing.T) {
	const n = 2000
	run := func() int {
		f := mustFeed(t, func(int) float64 { return 50 }, FeedConfig{DropRate: 0.2, Seed: 7})
		for i := 0; i < n; i++ {
			f.Sample(i)
		}
		return f.Dropouts()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced %d then %d dropouts", a, b)
	}
	if frac := float64(a) / n; frac < 0.15 || frac > 0.25 {
		t.Fatalf("drop fraction %v far from 0.2", frac)
	}
}

func TestFeedConfigValidate(t *testing.T) {
	bad := []FeedConfig{
		{DropRate: -0.1},
		{DropRate: 1},
		{Decay: 1.5},
		{FloorBeta: -1},
		{StalenessCeiling: -1},
		{Windows: []FeedWindow{{From: 5, To: 2}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
	if _, err := NewLBMPFeed(nil, FeedConfig{}); err == nil {
		t.Fatal("nil source accepted")
	}
}
