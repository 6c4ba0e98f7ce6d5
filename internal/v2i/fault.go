package v2i

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"olevgrid/internal/stats"
)

// SendWindow is a half-open interval [From, To) of per-link send
// indices (counted from zero). It scripts a partition: every send
// whose index falls inside the window is swallowed, modelling a V2I
// link that goes dark for a stretch of road.
type SendWindow struct {
	From int
	To   int
}

// Contains reports whether send index i falls inside the window.
func (w SendWindow) Contains(i int) bool { return i >= w.From && i < w.To }

// FaultConfig is a scriptable, seeded fault plan for one link. All
// faults are drawn from a single deterministic stream, so a (config,
// seed) pair replays the exact same chaos every run.
type FaultConfig struct {
	// DropRate is the probability a Send is silently dropped.
	DropRate float64
	// DuplicateRate is the probability a delivered Send is delivered
	// twice — the replayed-frame case the coordinator's sequence
	// validation exists for.
	DuplicateRate float64
	// ReorderRate is the probability a delivered Send is held back and
	// delivered after the next delivered frame instead, swapping the
	// order the receiver observes.
	ReorderRate float64
	// MaxDelay delays each delivered Send uniformly in [0, MaxDelay].
	MaxDelay time.Duration
	// Partitions scripts link blackouts by send index; sends inside
	// any window are dropped (and counted as dropped).
	Partitions []SendWindow
	// Seed drives the fault stream.
	Seed int64
}

// Faulty injects drops, duplicates, reorders, delays, and scripted
// partitions in front of another transport — the test double for
// flaky 802.11p links.
type Faulty struct {
	inner Transport
	cfg   FaultConfig

	mu   sync.Mutex
	rng  *rand.Rand
	held *Envelope // frame held back by a pending reorder

	sends      int
	dropped    int
	duplicated int
	reordered  int
}

var _ Transport = (*Faulty)(nil)

// NewFaulty wraps a transport with fault injection.
func NewFaulty(inner Transport, cfg FaultConfig) *Faulty {
	return &Faulty{inner: inner, cfg: cfg, rng: stats.NewRand(cfg.Seed)}
}

// Send implements Transport, applying the fault plan: the frame may be
// dropped (randomly or by a partition window), held back to reorder
// behind the next frame, duplicated, or delayed before delivery.
func (f *Faulty) Send(ctx context.Context, env Envelope) error {
	f.mu.Lock()
	idx := f.sends
	f.sends++

	drop := f.cfg.DropRate > 0 && f.rng.Float64() < f.cfg.DropRate
	for _, w := range f.cfg.Partitions {
		if w.Contains(idx) {
			drop = true
			break
		}
	}
	if drop {
		f.dropped++
		f.mu.Unlock()
		return nil // a dropped frame looks like success to the sender
	}

	// Hold at most one frame back; it rides out behind the next
	// delivered frame.
	if f.cfg.ReorderRate > 0 && f.held == nil && f.rng.Float64() < f.cfg.ReorderRate {
		e := env
		f.held = &e
		f.mu.Unlock()
		return nil
	}
	dup := f.cfg.DuplicateRate > 0 && f.rng.Float64() < f.cfg.DuplicateRate
	if dup {
		f.duplicated++
	}
	var delay time.Duration
	if f.cfg.MaxDelay > 0 {
		delay = time.Duration(f.rng.Int63n(int64(f.cfg.MaxDelay)))
	}
	var flush *Envelope
	if f.held != nil {
		flush = f.held
		f.held = nil
		f.reordered++
	}
	f.mu.Unlock()

	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := f.inner.Send(ctx, env); err != nil {
		return err
	}
	if dup {
		if err := f.inner.Send(ctx, env); err != nil {
			return err
		}
	}
	if flush != nil {
		return f.inner.Send(ctx, *flush)
	}
	return nil
}

// Recv implements Transport.
func (f *Faulty) Recv(ctx context.Context) (Envelope, error) {
	return f.inner.Recv(ctx)
}

// Unwrap exposes the wrapped transport, so an Instrumented stacked
// above a Faulty still finds the connection's byte counters. Faulty deliberately
// does NOT implement TypedSender: every send must pass through Send
// so the fault plan (drop/dup/reorder/partition) applies identically
// on every link — SendMsg through a Faulty falls back to Seal+Send,
// and over a connection the sealed typed-binary body is forwarded
// into the frame verbatim.
func (f *Faulty) Unwrap() Transport { return f.inner }

// Close implements Transport. A frame still held by a pending reorder
// dies with the link, exactly like a real connection tearing down.
func (f *Faulty) Close() error {
	f.mu.Lock()
	f.held = nil
	f.mu.Unlock()
	return f.inner.Close()
}

// Dropped reports how many sends were dropped, including those inside
// partition windows (for test assertions).
func (f *Faulty) Dropped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Duplicated reports how many sends were delivered twice.
func (f *Faulty) Duplicated() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.duplicated
}

// Reordered reports how many held-back frames were delivered out of
// order.
func (f *Faulty) Reordered() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reordered
}

// Sends reports how many frames the sender attempted, fired or not —
// the index space Partitions windows refer to.
func (f *Faulty) Sends() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sends
}
