package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// FsyncPolicy says when the store makes appended records durable.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs the segment file on every append and the
	// snapshot file plus parent directory on every compaction: a nil
	// Append return means the record survives any crash. The default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs at most once per Options.FsyncInterval,
	// piggybacked on appends: bounded data loss, near-Never latency.
	FsyncInterval
	// FsyncNever issues no fsyncs at all — the pre-store behavior.
	// Appends are atomic on a clean shutdown but a power loss may roll
	// back any number of "acked" records.
	FsyncNever
)

// String names the policy the way the -fsync flags spell it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return "always"
	}
}

// ParseFsyncPolicy maps a -fsync flag value onto a policy; the empty
// string is the default (always).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncAlways, fmt.Errorf(`store: unknown fsync policy %q; use "always", "interval" or "never"`, s)
}

// Store is the durable-store surface: a sequence of record versions
// of which the latest wins (journal semantics). SegmentStore is the
// only on-disk implementation and, through sched.StoreJournal, the
// only on-disk checkpoint journal; sched.MemJournal is the in-memory
// journal above this layer.
type Store interface {
	// Append durably stores the next record version. A nil return is
	// the durability acknowledgement under the store's fsync policy.
	Append(payload []byte) error
	// Last returns the newest recovered or appended record.
	Last() (payload []byte, seq uint64, ok bool)
	// Sync forces pending data to stable storage regardless of policy.
	Sync() error
	// Stats snapshots the store's counters.
	Stats() Stats
	// Close releases the store; with FsyncInterval it flushes first.
	Close() error
}

// Options configures Open.
type Options struct {
	// FS is the filesystem seam; nil means the real one.
	FS FS
	// Fsync is the durability policy; zero value is FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval policy's flush period; zero
	// means 100ms.
	FsyncInterval time.Duration
	// CompactBytes triggers compaction when the active segment grows
	// past it; zero means 1 MiB. Compaction writes the latest record
	// as a snapshot, truncates the log, and only then deletes the
	// previous snapshot — so at most two snapshots plus the active
	// segment ever exist on disk.
	CompactBytes int64
	// Metrics arms telemetry; nil runs dark.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OS
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 1 << 20
	}
	if o.Metrics == nil {
		// A bundle of nil counters: every metric site stays a no-op
		// without nil checks at each increment.
		o.Metrics = NewMetrics(nil)
	}
	return o
}

// Stats is a store's observable state, for ScanJournals decisions and
// the crash harness's reconciliation.
type Stats struct {
	// Appends, Fsyncs, Compactions count this handle's activity.
	Appends     uint64 `json:"appends"`
	Fsyncs      uint64 `json:"fsyncs"`
	Compactions uint64 `json:"compactions"`
	// CompactErrors counts compactions that failed and were rolled
	// back (prior snapshot and log left intact).
	CompactErrors uint64 `json:"compact_errors,omitempty"`
	// Recovered reports whether Open found prior state; RecoveredSeq
	// is its sequence number and SnapshotUsed whether it came from a
	// snapshot rather than the log.
	Recovered    bool   `json:"recovered,omitempty"`
	RecoveredSeq uint64 `json:"recovered_seq,omitempty"`
	SnapshotUsed bool   `json:"snapshot_used,omitempty"`
	// TornTruncated counts torn tails cut off at open; TornBytes the
	// bytes discarded. CorruptSkipped counts CRC-failed records (and
	// unreadable snapshots) skipped during recovery.
	TornTruncated  uint64 `json:"torn_truncated,omitempty"`
	TornBytes      int64  `json:"torn_bytes,omitempty"`
	CorruptSkipped uint64 `json:"corrupt_skipped,omitempty"`
	// Snapshots and SegmentBytes describe the current disk footprint.
	Snapshots    int   `json:"snapshots"`
	SegmentBytes int64 `json:"segment_bytes"`
}

// segmentName is the active log segment inside a store directory.
const segmentName = "segment.log"

// snapshotName formats a snapshot file name; the sequence number in
// the name lets recovery order snapshots without opening them.
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016x.olev", seq) }

// parseSnapshotName inverts snapshotName.
func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".olev") {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".olev"), "%016x", &seq)
	return seq, err == nil
}

// SegmentStore is the on-disk Store: an append-only CRC32C-framed
// segment log plus snapshot compaction in one directory. Safe for
// concurrent use.
type SegmentStore struct {
	mu   sync.Mutex
	dir  string
	opts Options

	active   File // O_APPEND handle on the segment
	size     int64
	lastSeq  uint64
	last     []byte
	haveLast bool

	lastSync    time.Time
	dirtySync   bool // appended since the last fsync (Interval policy)
	snaps       []uint64
	stats       Stats
	closed      bool
	wedged      error // set when the log is in an unknown state
	scratch     []byte
	lastCompact error
}

var _ Store = (*SegmentStore)(nil)

// Open opens (creating if needed) the segment store in dir,
// recovering prior state: it picks the newest decodable snapshot,
// replays the log, truncates any torn tail, and removes leftover
// temp files and superseded snapshots. Recovery never fails on
// corrupt data — corruption shrinks what is recovered; only real I/O
// errors surface.
func Open(dir string, opts Options) (*SegmentStore, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	s := &SegmentStore{dir: dir, opts: opts, lastSync: time.Now()}

	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	var snapSeqs []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			// A crash before rename left a temp file; it was never
			// acknowledged, so it is garbage.
			_ = fsys.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseSnapshotName(name); ok {
			snapSeqs = append(snapSeqs, seq)
		}
	}
	sortSeqs(snapSeqs)

	// Newest decodable snapshot wins; corrupt ones (possible under
	// FsyncNever crashes) are skipped and deleted, falling back to the
	// predecessor — which is exactly why compaction keeps it around
	// until its successor is durable.
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		raw, err := fsys.ReadFile(filepath.Join(dir, snapshotName(snapSeqs[i])))
		if err != nil {
			s.noteCorrupt(1)
			continue
		}
		res := scanSegment(raw)
		if len(res.records) != 1 || res.torn || res.corrupt > 0 {
			s.noteCorrupt(1)
			_ = fsys.Remove(filepath.Join(dir, snapshotName(snapSeqs[i])))
			continue
		}
		s.lastSeq = res.records[0].seq
		s.last = append([]byte(nil), res.records[0].payload...)
		s.haveLast = true
		s.stats.SnapshotUsed = true
		s.snaps = []uint64{snapSeqs[i]}
		// Prune older snapshots: the newest good one is durable state.
		for j := 0; j < i; j++ {
			_ = fsys.Remove(filepath.Join(dir, snapshotName(snapSeqs[j])))
		}
		break
	}

	segPath := filepath.Join(dir, segmentName)
	raw, err := fsys.ReadFile(segPath)
	if err != nil && !isNotExist(err) {
		return nil, fmt.Errorf("store: read segment: %w", err)
	}
	res := scanSegment(raw)
	s.noteCorrupt(res.corrupt)
	if res.torn {
		if err := fsys.Truncate(segPath, int64(res.goodLen)); err != nil {
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
		s.stats.TornTruncated++
		s.stats.TornBytes += int64(len(raw) - res.goodLen)
		opts.Metrics.TornTruncated.Inc()
	}
	s.size = int64(res.goodLen)
	if n := len(res.records); n > 0 {
		// Sequence numbers are append-ordered, so the last valid
		// record is the newest the log holds; it beats the snapshot
		// unless a crash interrupted compaction after the snapshot
		// rename but before the log truncate, in which case the log's
		// tail and the snapshot agree on seq and either wins.
		if rec := res.records[n-1]; !s.haveLast || rec.seq >= s.lastSeq {
			s.lastSeq = rec.seq
			s.last = append(s.last[:0], rec.payload...)
			s.haveLast = true
			s.stats.SnapshotUsed = false
		}
	}
	if s.haveLast {
		s.stats.Recovered = true
		s.stats.RecoveredSeq = s.lastSeq
		opts.Metrics.Recoveries.Inc()
	}

	s.active, err = fsys.OpenFile(segPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open segment: %w", err)
	}
	if opts.Fsync != FsyncNever {
		// The segment's directory entry must be durable before any
		// append can be acknowledged: fsyncing a freshly created file
		// without fsyncing its directory can lose the whole file on
		// power loss (FaultFS models exactly that).
		if err := fsys.SyncDir(dir); err != nil {
			_ = s.active.Close()
			return nil, fmt.Errorf("store: fsync dir: %w", err)
		}
		s.stats.Fsyncs++
		opts.Metrics.Fsyncs.Inc()
	}
	return s, nil
}

// Append implements Store. On error the record is not acknowledged:
// it may or may not survive, and the store rolls the segment back to
// its last good length so later appends stay cleanly framed.
func (s *SegmentStore) Append(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append on closed store")
	}
	if s.wedged != nil {
		return fmt.Errorf("store: wedged by earlier failure: %w", s.wedged)
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("store: record %d bytes exceeds %d", len(payload), MaxRecordBytes)
	}
	seq := s.lastSeq + 1
	s.scratch = appendFrame(s.scratch[:0], seq, payload)
	n, err := s.active.Write(s.scratch)
	if err != nil || n < len(s.scratch) {
		if err == nil {
			err = fmt.Errorf("store: short write: %d of %d bytes", n, len(s.scratch))
		}
		// Roll the partial frame back; if even that fails the handle's
		// offset is unknowable and the store refuses further writes
		// (reopening repairs via torn-tail truncation).
		if terr := s.opts.FS.Truncate(filepath.Join(s.dir, segmentName), s.size); terr != nil {
			s.wedged = terr
		}
		return fmt.Errorf("store: append: %w", err)
	}
	s.size += int64(n)
	s.stats.Appends++
	s.opts.Metrics.Saves.Inc()

	switch s.opts.Fsync {
	case FsyncAlways:
		if err := s.syncLocked(); err != nil {
			// Written but not durable: the caller must not treat this
			// record as acknowledged. State stays consistent — a reopen
			// recovers whatever actually reached the disk.
			s.advance(seq, payload)
			return fmt.Errorf("store: fsync: %w", err)
		}
	case FsyncInterval:
		s.dirtySync = true
		if time.Since(s.lastSync) >= s.opts.FsyncInterval {
			if err := s.syncLocked(); err != nil {
				s.advance(seq, payload)
				return fmt.Errorf("store: fsync: %w", err)
			}
		}
	}
	s.advance(seq, payload)

	if s.size > s.opts.CompactBytes {
		// Best-effort: a failed compaction never loses the append that
		// triggered it — the log still holds the record, the previous
		// snapshot is untouched, and the error is surfaced via Stats.
		if err := s.compactLocked(); err != nil {
			s.stats.CompactErrors++
			s.lastCompact = err
		}
	}
	return nil
}

// advance installs the newest record under the lock.
func (s *SegmentStore) advance(seq uint64, payload []byte) {
	s.lastSeq = seq
	s.last = append(s.last[:0], payload...)
	s.haveLast = true
}

// syncLocked fsyncs the active segment.
func (s *SegmentStore) syncLocked() error {
	if err := s.active.Sync(); err != nil {
		return err
	}
	s.dirtySync = false
	s.lastSync = time.Now()
	s.stats.Fsyncs++
	s.opts.Metrics.Fsyncs.Inc()
	return nil
}

// compactLocked runs the compaction state machine:
//
//  1. write the newest record to snap-<seq>.olev.tmp, fsync it;
//  2. rename it into place, fsync the directory — the successor
//     snapshot is now durable;
//  3. truncate the log to zero and fsync it;
//  4. delete the predecessor snapshot(s).
//
// A crash or error anywhere before step 2 completes leaves the prior
// snapshot and the full log intact. A crash between 2 and 3 leaves a
// log whose records the snapshot already covers — recovery takes the
// max sequence, so either copy wins identically. Step 4 runs only
// after the successor is durable, which is the "last good snapshot is
// never deleted until its successor is durable" invariant.
func (s *SegmentStore) compactLocked() error {
	if !s.haveLast {
		return nil
	}
	if len(s.snaps) > 0 && s.snaps[len(s.snaps)-1] == s.lastSeq {
		return nil // already snapshotted at this seq
	}
	fsys := s.opts.FS
	sync := s.opts.Fsync != FsyncNever
	frame := appendFrame(nil, s.lastSeq, s.last)
	path := filepath.Join(s.dir, snapshotName(s.lastSeq))
	counted := func() { s.stats.Fsyncs++; s.opts.Metrics.Fsyncs.Inc() }
	if err := writeFileAtomic(fsys, path, frame, sync, counted); err != nil {
		return err
	}
	prev := s.snaps
	s.snaps = append([]uint64(nil), s.lastSeq)

	if err := fsys.Truncate(filepath.Join(s.dir, segmentName), 0); err != nil {
		// Snapshot is durable; the oversized log stays until the next
		// compaction retries. Keep the predecessor list accurate.
		s.snaps = append(prev, s.lastSeq)
		return err
	}
	s.size = 0
	if sync {
		if err := s.active.Sync(); err != nil {
			return err
		}
		counted()
	}
	for _, seq := range prev {
		if seq != s.lastSeq {
			_ = fsys.Remove(filepath.Join(s.dir, snapshotName(seq)))
		}
	}
	s.stats.Compactions++
	s.opts.Metrics.Compactions.Inc()
	return nil
}

// Last implements Store.
func (s *SegmentStore) Last() ([]byte, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveLast {
		return nil, 0, false
	}
	return append([]byte(nil), s.last...), s.lastSeq, true
}

// Sync implements Store.
func (s *SegmentStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncLocked()
}

// Stats implements Store.
func (s *SegmentStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Snapshots = len(s.snaps)
	st.SegmentBytes = s.size
	return st
}

// CompactErr returns the most recent compaction failure, if any.
func (s *SegmentStore) CompactErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastCompact
}

// Close implements Store.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.dirtySync && s.opts.Fsync == FsyncInterval {
		err = s.syncLocked()
	}
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// noteCorrupt counts skipped corrupt records into stats and metrics.
func (s *SegmentStore) noteCorrupt(n int) {
	if n <= 0 {
		return
	}
	s.stats.CorruptSkipped += uint64(n)
	s.opts.Metrics.CorruptSkipped.Add(int64(n))
}

func sortSeqs(seqs []uint64) {
	for i := 1; i < len(seqs); i++ {
		for j := i; j > 0 && seqs[j] < seqs[j-1]; j-- {
			seqs[j], seqs[j-1] = seqs[j-1], seqs[j]
		}
	}
}
