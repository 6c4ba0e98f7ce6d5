package sched

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"olevgrid/internal/store"
)

// Checkpoint is the coordinator's durable state: the last schedule
// that actually converged, stamped with the epoch it was installed
// under. It is what a restarted coordinator warm-starts from and what
// a round that exhausts MaxRounds degrades to.
type Checkpoint struct {
	// Epoch is the schedule version at save time.
	Epoch uint64 `json:"epoch"`
	// Round is the round the schedule converged on.
	Round int `json:"round"`
	// NumSections guards against restoring into a differently shaped
	// roadway.
	NumSections int `json:"num_sections"`
	// Seq is the coordinator's outbound sequence counter at save time.
	// A standby that takes over fences its own counter above it so the
	// agents' monotonic-sequence filter (PR 1) accepts the new
	// incarnation's frames and keeps rejecting the old one's.
	Seq uint64 `json:"seq,omitempty"`
	// Schedule is each vehicle's per-section allocation.
	Schedule map[string][]float64 `json:"schedule"`
}

// clone deep-copies the checkpoint's schedule so journal readers and
// the live coordinator never share rows.
func (cp Checkpoint) clone() Checkpoint {
	out := cp
	out.Schedule = make(map[string][]float64, len(cp.Schedule))
	for id, row := range cp.Schedule {
		r := make([]float64, len(row))
		copy(r, row)
		out.Schedule[id] = r
	}
	return out
}

// MaxCheckpointBytes bounds one serialized checkpoint. A journal file
// is attacker-adjacent state (it survives the process and may cross
// machines on failover), so a reader must reject an oversized record
// before handing it to the JSON decoder.
const MaxCheckpointBytes = 8 << 20

// DecodeCheckpoint parses and validates a serialized checkpoint. It is
// the single untrusted-input gate for every journal reader: truncated,
// corrupt, oversized, or semantically invalid records (negative
// section counts, row-length mismatches, non-finite or negative
// allocations) return an error and never panic.
func DecodeCheckpoint(raw []byte) (Checkpoint, error) {
	if len(raw) > MaxCheckpointBytes {
		return Checkpoint{}, fmt.Errorf("sched: checkpoint %d bytes exceeds %d", len(raw), MaxCheckpointBytes)
	}
	var cp Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return Checkpoint{}, fmt.Errorf("sched: checkpoint decode: %w", err)
	}
	if cp.NumSections < 0 {
		return Checkpoint{}, fmt.Errorf("sched: checkpoint has %d sections", cp.NumSections)
	}
	if cp.Round < 0 {
		return Checkpoint{}, fmt.Errorf("sched: checkpoint round %d negative", cp.Round)
	}
	for id, row := range cp.Schedule {
		if len(row) != cp.NumSections {
			return Checkpoint{}, fmt.Errorf("sched: checkpoint row %q has %d sections, want %d",
				id, len(row), cp.NumSections)
		}
		for c, kw := range row {
			if math.IsNaN(kw) || math.IsInf(kw, 0) || kw < 0 {
				return Checkpoint{}, fmt.Errorf("sched: checkpoint row %q section %d: invalid %v", id, c, kw)
			}
		}
	}
	return cp, nil
}

// Journal persists coordinator checkpoints across crashes.
// Implementations must be safe for concurrent use.
type Journal interface {
	// Save replaces the stored checkpoint.
	Save(cp Checkpoint) error
	// Load returns the stored checkpoint; ok is false when nothing has
	// been saved yet.
	Load() (cp Checkpoint, ok bool, err error)
}

// MemJournal is an in-process Journal for tests and single-process
// simulations.
type MemJournal struct {
	mu sync.Mutex
	cp *Checkpoint
}

var _ Journal = (*MemJournal)(nil)

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *MemJournal { return &MemJournal{} }

// Save implements Journal.
func (j *MemJournal) Save(cp Checkpoint) error {
	c := cp.clone()
	j.mu.Lock()
	j.cp = &c
	j.mu.Unlock()
	return nil
}

// Load implements Journal.
func (j *MemJournal) Load() (Checkpoint, bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cp == nil {
		return Checkpoint{}, false, nil
	}
	return j.cp.clone(), true, nil
}

// StoreJournal adapts a durable segment store (store.SegmentStore or
// any store.Store) to the Journal interface: each Save appends one
// framed checkpoint record, compaction bounds the log, and Load
// decodes whatever the store recovered. This is the on-disk journal:
// every durable daemon session and pricing-game -journal run on it.
type StoreJournal struct {
	s store.Store
}

var _ Journal = (*StoreJournal)(nil)

// NewStoreJournal wraps s; the caller keeps ownership of s's
// lifecycle (Close).
func NewStoreJournal(s store.Store) *StoreJournal { return &StoreJournal{s: s} }

// Save implements Journal. A nil return carries the store's
// durability acknowledgement under its fsync policy.
func (j *StoreJournal) Save(cp Checkpoint) error {
	raw, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("sched: marshal checkpoint: %w", err)
	}
	if err := j.s.Append(raw); err != nil {
		return fmt.Errorf("sched: checkpoint append: %w", err)
	}
	return nil
}

// Load implements Journal.
func (j *StoreJournal) Load() (Checkpoint, bool, error) {
	raw, _, ok := j.s.Last()
	if !ok {
		return Checkpoint{}, false, nil
	}
	cp, err := DecodeCheckpoint(raw)
	if err != nil {
		return Checkpoint{}, false, fmt.Errorf("%w: %v", store.ErrCorrupt, err)
	}
	return cp, true, nil
}
