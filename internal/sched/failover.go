package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/v2i"
)

// This file makes the coordinator itself survivable. The paper's
// Section IV iteration assumes the smart grid stays alive for the
// whole session; here a standby tails the primary's Journal and lease,
// takes over when the lease lapses, and warm-starts the game from the
// last checkpoint. Correctness rests on two fences plus Theorem IV.1:
//
//   - the takeover epoch is fenced strictly above anything the old
//     primary could have quoted, so the PR-1 epoch check makes agents'
//     answers to a partitioned primary's stale quotes uninstallable;
//   - the standby's outbound sequence counter is fenced above the old
//     primary's, so the agents' monotonic gridSeq filter accepts the
//     new incarnation's frames and silently drops the old one's;
//   - the potential-game structure guarantees the warm-started
//     iteration converges to the same unique social optimum as an
//     uninterrupted run — a crash changes round counts, never the
//     destination (the failover differential suite pins this to 1e-9).
//
// All lease operations take an explicit `now` so failover logic is
// deterministic under test; production callers pass time.Now().

// ErrLeaseLost is returned by a coordinator run when its lease renewal
// is refused: another instance holds the lease and this one must stop
// quoting immediately rather than split-brain the schedule.
var ErrLeaseLost = errors.New("sched: coordinator lease lost")

// Fencing gaps. The epoch gap exceeds any plausible number of
// schedule installs between two checkpoints; the sequence gap exceeds
// any plausible number of frames a primary sends in one session. Both
// are gaps, not exact successors, because the standby fences off the
// *checkpoint* — the lagging durable view — while the dead primary's
// live counters had moved on past it.
const (
	epochFenceGap uint64 = 1 << 20
	seqFenceGap   uint64 = 1 << 32
)

// LeaseState is one observation of the coordination lease.
type LeaseState struct {
	// Holder is the instance ID currently holding the lease.
	Holder string
	// Epoch is the schedule epoch the holder last advertised.
	Epoch uint64
	// ExpiresAt is when the lease lapses unless renewed.
	ExpiresAt time.Time
}

// Expired reports whether the lease has lapsed at the given instant.
func (s LeaseState) Expired(now time.Time) bool { return !now.Before(s.ExpiresAt) }

// Lease is the mutual-exclusion primitive between coordinator
// incarnations: at most one instance renews successfully at a time.
// Implementations must be safe for concurrent use.
type Lease interface {
	// Renew extends (or acquires) the lease for holder until now+ttl,
	// advertising the holder's current epoch. It reports false when a
	// different holder's unexpired lease exists — the caller has lost
	// the election and must stand down.
	Renew(holder string, epoch uint64, ttl time.Duration, now time.Time) (bool, error)
	// Observe returns the last granted lease state; ok is false when no
	// lease has ever been granted.
	Observe(now time.Time) (LeaseState, bool, error)
}

// MemLease is an in-process Lease for tests and single-process
// simulations; a deployment would back this with etcd or similar.
type MemLease struct {
	mu    sync.Mutex
	state LeaseState
	held  bool
}

var _ Lease = (*MemLease)(nil)

// NewMemLease returns an unheld lease.
func NewMemLease() *MemLease { return &MemLease{} }

// Renew implements Lease: the grant succeeds when the lease is free,
// expired, or already held by this holder.
func (l *MemLease) Renew(holder string, epoch uint64, ttl time.Duration, now time.Time) (bool, error) {
	if holder == "" {
		return false, errors.New("sched: lease holder must be named")
	}
	if ttl <= 0 {
		return false, fmt.Errorf("sched: lease ttl %v must be positive", ttl)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held && l.state.Holder != holder && !l.state.Expired(now) {
		return false, nil
	}
	l.state = LeaseState{Holder: holder, Epoch: epoch, ExpiresAt: now.Add(ttl)}
	l.held = true
	return true, nil
}

// Observe implements Lease.
func (l *MemLease) Observe(now time.Time) (LeaseState, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state, l.held, nil
}

// Takeover is everything a standby needs to resume the game as the new
// primary: a fenced epoch and sequence counter, and the last durable
// checkpoint to warm-start from.
type Takeover struct {
	// Epoch is the new incarnation's starting schedule epoch, fenced
	// strictly above anything the old primary could have quoted.
	Epoch uint64
	// InitialSeq seeds the outbound sequence counter above the old
	// primary's, so agents' monotonic filters accept the new frames.
	InitialSeq uint64
	// Checkpoint is the journaled last-known-good schedule.
	Checkpoint Checkpoint
	// HasCheckpoint reports whether the journal held one; without it
	// the takeover cold-starts from zero.
	HasCheckpoint bool
}

// StandbyConfig configures a warm standby.
type StandbyConfig struct {
	// InstanceID names this standby in lease records.
	InstanceID string
	// Journal is the shared checkpoint journal the primary writes.
	Journal Journal
	// Lease is the shared election primitive.
	Lease Lease
	// LeaseTTL is the term the standby acquires on takeover; zero means
	// 1 s.
	LeaseTTL time.Duration
}

// Standby tails a primary coordinator's journal and lease, ready to
// take over when the lease lapses.
type Standby struct {
	cfg StandbyConfig

	mu       sync.Mutex
	observed bool // a live primary's lease has been seen at least once
}

// NewStandby validates the configuration and builds a standby.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.InstanceID == "" {
		return nil, errors.New("sched: standby needs an instance ID")
	}
	if cfg.Lease == nil {
		return nil, errors.New("sched: standby needs a lease")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = time.Second
	}
	return &Standby{cfg: cfg}, nil
}

// TryTakeover attempts one failover step at the given instant. It
// reports false while the primary is healthy (its lease is live) or
// has never been seen: a standby that boots into an empty lease table
// must not steal a session it has no evidence ever existed — it waits
// to observe a primary first, then reacts to that primary's silence.
func (s *Standby) TryTakeover(now time.Time) (Takeover, bool, error) {
	state, held, err := s.cfg.Lease.Observe(now)
	if err != nil {
		return Takeover{}, false, fmt.Errorf("sched: observe lease: %w", err)
	}
	if !held {
		return Takeover{}, false, nil
	}
	if state.Holder != s.cfg.InstanceID {
		s.mu.Lock()
		s.observed = true
		s.mu.Unlock()
		if !state.Expired(now) {
			return Takeover{}, false, nil
		}
	}
	s.mu.Lock()
	seen := s.observed
	s.mu.Unlock()
	if !seen {
		return Takeover{}, false, nil
	}

	t := Takeover{Epoch: state.Epoch}
	if s.cfg.Journal != nil {
		cp, ok, err := s.cfg.Journal.Load()
		if err != nil {
			return Takeover{}, false, fmt.Errorf("sched: load checkpoint: %w", err)
		}
		if ok {
			t.Checkpoint = cp
			t.HasCheckpoint = true
			if cp.Epoch > t.Epoch {
				t.Epoch = cp.Epoch
			}
			t.InitialSeq = cp.Seq
		}
	}
	t.Epoch += epochFenceGap
	t.InitialSeq += seqFenceGap

	won, err := s.cfg.Lease.Renew(s.cfg.InstanceID, t.Epoch, s.cfg.LeaseTTL, now)
	if err != nil {
		return Takeover{}, false, fmt.Errorf("sched: acquire lease: %w", err)
	}
	if !won {
		return Takeover{}, false, nil // lost the race to another standby
	}
	return t, true, nil
}

// Failover promotes instanceID to primary over a primary the caller
// knows has stopped: it claims the lease in cfg.Lease at the later of
// now and the dead primary's observed expiry, loads the last
// checkpoint from cfg.Journal, and resumes through ResumeCoordinator
// with cfg's OnRound hook cleared. The standby's no-boot-steal rule
// still holds: with no primary lease on record the takeover is
// refused. Failover never sleeps; a caller that wants its agents to
// see a silence waits before calling.
func Failover(cfg CoordinatorConfig, links map[string]v2i.Transport, instanceID string, now time.Time) (*Coordinator, Takeover, error) {
	sb, err := NewStandby(StandbyConfig{
		InstanceID: instanceID, Journal: cfg.Journal, Lease: cfg.Lease, LeaseTTL: cfg.LeaseTTL,
	})
	if err != nil {
		return nil, Takeover{}, err
	}
	state, _, err := cfg.Lease.Observe(now)
	if err != nil {
		return nil, Takeover{}, fmt.Errorf("sched: observe lease: %w", err)
	}
	if state.ExpiresAt.After(now) {
		now = state.ExpiresAt
	}
	take, ok, err := sb.TryTakeover(now)
	if err != nil {
		return nil, Takeover{}, err
	}
	if !ok {
		return nil, Takeover{}, fmt.Errorf("sched: takeover by %q refused", instanceID)
	}
	cfg.OnRound = nil
	cfg.InstanceID = instanceID
	c, err := ResumeCoordinator(cfg, links, take)
	if err != nil {
		return nil, Takeover{}, err
	}
	return c, take, nil
}

// ResumeCoordinator builds the new primary after a takeover: a
// coordinator over the surviving links whose epoch and sequence
// counters start above the fences and whose schedule warm-starts from
// the checkpoint via the core warm-start projection (rows travel by
// vehicle ID; vehicles absent from the checkpoint seed at zero).
// cfg.Lease/InstanceID should carry the standby's identity so the new
// primary keeps renewing the lease it just won.
func ResumeCoordinator(cfg CoordinatorConfig, links map[string]v2i.Transport, t Takeover) (*Coordinator, error) {
	c, err := NewCoordinator(cfg, links)
	if err != nil {
		return nil, err
	}
	if t.HasCheckpoint && t.Checkpoint.NumSections == cfg.NumSections {
		ids := make([]string, 0, len(t.Checkpoint.Schedule))
		for id := range t.Checkpoint.Schedule {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		prev, err := core.NewSchedule(len(ids), cfg.NumSections)
		if err != nil {
			return nil, err
		}
		for i, id := range ids {
			row := t.Checkpoint.Schedule[id]
			if len(row) != cfg.NumSections {
				return nil, fmt.Errorf("sched: resume row %q has %d sections, want %d",
					id, len(row), cfg.NumSections)
			}
			prev.SetRow(i, row)
		}
		// The coordinator holds no private vehicle constraints — the
		// first best response re-imposes them — so project with
		// unbounded players.
		players := make([]core.Player, 0, len(links))
		for id := range links {
			players = append(players, core.Player{ID: id, MaxPowerKW: math.Inf(1)})
		}
		sort.Slice(players, func(i, j int) bool { return players[i].ID < players[j].ID })
		proj, err := core.ProjectSchedule(prev, ids, players, cfg.NumSections)
		if err != nil {
			return nil, fmt.Errorf("sched: resume projection: %w", err)
		}
		for i, p := range players {
			copy(c.index[p.ID].row, proj.Row(i))
		}
		c.tree.rebuild()
		c.restored = true
	}
	if t.Epoch > c.epoch {
		c.epoch = t.Epoch
	}
	if t.InitialSeq > c.seq {
		c.seq = t.InitialSeq
	}
	cfg.Metrics.observeFailover(cfg.InstanceID, c.epoch)
	return c, nil
}
