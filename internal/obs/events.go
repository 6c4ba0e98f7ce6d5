package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// EventKind names the structured span/event types the instrumented
// layers emit. The set is closed on purpose: events are fixed-size
// structs in a preallocated ring, so emission never allocates.
type EventKind uint8

const (
	// EventSolverRound is one best-response round of the equilibrium
	// engine (Value = max schedule delta this round).
	EventSolverRound EventKind = iota + 1
	// EventQuote is a coordinator quote broadcast (Value = fleet size).
	EventQuote
	// EventPropose is an agent proposal applied by the coordinator
	// (Value = proposed total kW).
	EventPropose
	// EventFailover is a fencing-epoch transition: takeover or resume
	// (Value = new epoch).
	EventFailover
	// EventDegraded marks an agent entering degraded-mode autonomy
	// (Value = local fallback kW).
	EventDegraded
	// EventReconnect marks an agent leaving degraded mode.
	EventReconnect
	// EventOutage is a section taken down (Value = section index).
	EventOutage
	// EventRestore is a section brought back (Value = section index).
	EventRestore
	// EventHour is one completed hour of the coupled day
	// (Round = hour, Value = delivered kWh).
	EventHour
)

// String returns the stable wire name of the kind.
func (k EventKind) String() string {
	switch k {
	case EventSolverRound:
		return "solver_round"
	case EventQuote:
		return "quote"
	case EventPropose:
		return "propose"
	case EventFailover:
		return "failover"
	case EventDegraded:
		return "degraded"
	case EventReconnect:
		return "reconnect"
	case EventOutage:
		return "outage"
	case EventRestore:
		return "restore"
	case EventHour:
		return "hour"
	default:
		return "unknown"
	}
}

// Event is one ring slot. All fields are inline scalars (Actor is a
// fixed-size byte array, not a string) so writing a slot copies a
// flat struct and never touches the heap.
type Event struct {
	Seq   uint64    // global emission order, 1-based
	Kind  EventKind //
	Round int32     // solver round / hour / -1 when n/a
	Epoch int32     // fencing epoch / -1 when n/a
	Value float64   // kind-specific payload
	actor [16]byte  // truncated actor id
	alen  uint8
}

// Actor returns the emitting actor's id ("coordinator", a vehicle id,
// a feed name), truncated to the slot's fixed capacity.
func (e Event) Actor() string { return string(e.actor[:e.alen]) }

// EventSink is a fixed-capacity ring buffer of events. Emit is safe
// for concurrent use and lock-free on the hot path (a seq ticket
// picks the slot; a per-slot version stamp keeps Snapshot from
// reading torn slots). A nil *EventSink ignores all emissions — the
// nil-sink fast path the conformance harness proves allocation-free.
type EventSink struct {
	slots []Event
	vers  []atomic.Uint64 // even = stable, odd = being written
	seq   atomic.Uint64

	mu sync.Mutex // serializes Snapshot against itself only
}

// NewEventSink returns a ring holding the last capacity events.
func NewEventSink(capacity int) *EventSink {
	if capacity < 1 {
		capacity = 1
	}
	return &EventSink{
		slots: make([]Event, capacity),
		vers:  make([]atomic.Uint64, capacity),
	}
}

// Emit records one event. Concurrent emitters claim distinct slots via
// the seq ticket; a writer that laps a slower one waits for it to
// finish, then overwrites — the ring keeps the *most recent* capacity
// events, which is the contract the chaos tests rely on.
func (s *EventSink) Emit(kind EventKind, actor string, round, epoch int32, value float64) {
	if s == nil {
		return
	}
	seq := s.seq.Add(1)
	i := int((seq - 1) % uint64(len(s.slots)))
	// Claim the slot (even → odd): two writers never interleave field
	// writes on one slot.
	for {
		v := s.vers[i].Load()
		if v%2 == 0 && s.vers[i].CompareAndSwap(v, v+1) {
			break
		}
		runtime.Gosched()
	}
	ev := &s.slots[i]
	ev.Seq = seq
	ev.Kind = kind
	ev.Round = round
	ev.Epoch = epoch
	ev.Value = value
	n := copy(ev.actor[:], actor)
	ev.alen = uint8(n)
	s.vers[i].Add(1) // even: stable
}

// Emitted returns the total number of events ever emitted (including
// those that have rotated out of the ring).
func (s *EventSink) Emitted() uint64 {
	if s == nil {
		return 0
	}
	return s.seq.Load()
}

// Cap returns the ring capacity.
func (s *EventSink) Cap() int {
	if s == nil {
		return 0
	}
	return len(s.slots)
}

// Snapshot returns the retained events in emission order (oldest
// first). Slots caught mid-write are skipped rather than returned
// torn; under quiescence the snapshot is exact.
func (s *EventSink) Snapshot() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.slots))
	for i := range s.slots {
		v := s.vers[i].Load()
		if v == 0 || v%2 == 1 {
			continue // never written, or being written
		}
		ev := s.slots[i]
		if s.vers[i].Load() != v {
			continue // overwritten while copying
		}
		out = append(out, ev)
	}
	// Insertion sort by seq: the ring is near-ordered already and
	// capacities are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq > out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// CountKind returns how many retained events have the given kind.
func (s *EventSink) CountKind(kind EventKind) int {
	n := 0
	for _, e := range s.Snapshot() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
