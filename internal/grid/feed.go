package grid

import (
	"fmt"
	"math/rand"
	"sync"

	"olevgrid/internal/stats"
)

// This file models the one exogenous input the pricing game cannot
// function without: the LBMP feed that sets β. The paper's Section III
// motivation is that supply and price are volatile; a production
// control plane additionally has to survive the feed itself going
// dark. LBMPFeed wraps any β source with a seeded dropout plan and a
// last-known-good fallback: during a dropout the served price decays
// geometrically from the last good sample toward a configured floor,
// and a staleness ceiling bounds how long a stale price may be served
// at all. Consumers (sched.Coordinator per round, coupling.RunDay per
// hour) treat a !ok sample as "hold the last applied price" — the
// conservative operating point when the market is unreachable.

// FeedWindow is a half-open interval [From, To) of sample steps during
// which the feed is dark — a scripted outage, the exogenous analogue
// of v2i.SendWindow.
type FeedWindow struct {
	From int
	To   int
}

// Contains reports whether step i falls inside the window.
func (w FeedWindow) Contains(i int) bool { return i >= w.From && i < w.To }

// FeedConfig is a seeded fault plan for an LBMP feed. The zero value
// injects nothing: every sample passes through untouched.
type FeedConfig struct {
	// DropRate is the probability any one sample is lost.
	DropRate float64
	// Windows scripts deterministic dark stretches by sample step.
	Windows []FeedWindow
	// Decay multiplies the served price's distance to FloorBeta once
	// per dark step, modelling the grid's fading confidence in a stale
	// price. Zero (or 1) holds the last-known-good flat.
	Decay float64
	// FloorBeta is the decay target in the feed's own unit ($/MWh for
	// LBMP); ignored when Decay is off.
	FloorBeta float64
	// StalenessCeiling is the maximum age, in steps, a stale sample may
	// be served; beyond it Sample reports ok=false and the consumer
	// must hold its last applied price. Zero means no ceiling.
	StalenessCeiling int
	// Seed drives the random dropouts.
	Seed int64
}

// Validate reports the first problem with the configuration.
func (c FeedConfig) Validate() error {
	if c.DropRate < 0 || c.DropRate >= 1 {
		return fmt.Errorf("grid: feed drop rate %v outside [0, 1)", c.DropRate)
	}
	if c.Decay < 0 || c.Decay > 1 {
		return fmt.Errorf("grid: feed decay %v outside [0, 1]", c.Decay)
	}
	if c.FloorBeta < 0 {
		return fmt.Errorf("grid: feed floor %v negative", c.FloorBeta)
	}
	if c.StalenessCeiling < 0 {
		return fmt.Errorf("grid: staleness ceiling %d negative", c.StalenessCeiling)
	}
	for _, w := range c.Windows {
		if w.From < 0 || w.To < w.From {
			return fmt.Errorf("grid: feed window [%d, %d) invalid", w.From, w.To)
		}
	}
	return nil
}

// LBMPFeed serves β samples from a source through a seeded fault plan.
// It is safe for concurrent use, though consumers normally sample from
// one goroutine; each Sample call is one feed step.
type LBMPFeed struct {
	src func(step int) float64
	cfg FeedConfig

	mu       sync.Mutex
	rng      *rand.Rand
	cur      float64 // the price currently served (decays while dark)
	haveGood bool
	age      int // steps since the last good sample

	dropouts int
	held     int
	maxAge   int
}

// NewLBMPFeed wraps a β source (step → price) with a fault plan.
func NewLBMPFeed(src func(step int) float64, cfg FeedConfig) (*LBMPFeed, error) {
	if src == nil {
		return nil, fmt.Errorf("grid: feed needs a source")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &LBMPFeed{src: src, cfg: cfg, rng: stats.NewRand(cfg.Seed)}, nil
}

// Sample returns the β to apply at the given step. ok=false means the
// feed has been dark longer than the staleness ceiling (or has never
// delivered a sample): the caller must hold whatever price it last
// applied rather than trust the returned value.
func (f *LBMPFeed) Sample(step int) (float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dark := f.cfg.DropRate > 0 && f.rng.Float64() < f.cfg.DropRate
	if !dark {
		for _, w := range f.cfg.Windows {
			if w.Contains(step) {
				dark = true
				break
			}
		}
	}
	if !dark {
		f.cur = f.src(step)
		f.haveGood = true
		f.age = 0
		return f.cur, true
	}
	f.dropouts++
	f.age++
	if f.age > f.maxAge {
		f.maxAge = f.age
	}
	if !f.haveGood {
		f.held++
		return 0, false
	}
	if f.cfg.Decay > 0 && f.cfg.Decay < 1 {
		f.cur = f.cfg.FloorBeta + (f.cur-f.cfg.FloorBeta)*f.cfg.Decay
	}
	if f.cfg.StalenessCeiling > 0 && f.age > f.cfg.StalenessCeiling {
		f.held++
		return f.cur, false
	}
	return f.cur, true
}

// Dropouts reports how many samples were lost to the fault plan.
func (f *LBMPFeed) Dropouts() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropouts
}

// Held reports how many samples breached the staleness ceiling (the
// consumer had to hold its last applied price).
func (f *LBMPFeed) Held() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.held
}

// MaxAge reports the longest dark stretch observed, in steps.
func (f *LBMPFeed) MaxAge() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.maxAge
}
