package serve

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"olevgrid/internal/sched"
	"olevgrid/internal/store"
)

// validCheckpoint encodes a checkpoint matching spec's section count.
func validCheckpoint(t *testing.T, spec SessionSpec, round int) []byte {
	t.Helper()
	cp := sched.Checkpoint{
		Epoch:       1,
		Round:       round,
		NumSections: spec.Sections,
		Seq:         uint64(round * 10),
		Schedule:    map[string][]float64{"ev-000": make([]float64, spec.Sections)},
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// writeStoreCheckpoints fills a session's checkpoint store with rounds
// 1..n of spec's geometry, then appends tail as raw records: CRC-valid
// frames around whatever bytes the caller plants. The low compaction
// threshold makes longer histories recover through a snapshot.
func writeStoreCheckpoints(t *testing.T, fsys store.FS, dir, id string, spec SessionSpec, n int, tail ...[]byte) {
	t.Helper()
	st, err := store.Open(storeDirPath(dir, id), store.Options{FS: fsys, CompactBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var records [][]byte
	for r := 1; r <= n; r++ {
		records = append(records, validCheckpoint(t, spec, r))
	}
	for _, raw := range append(records, tail...) {
		if err := st.Append(raw); err != nil {
			t.Fatal(err)
		}
	}
}

// The journal-scan decision table over one mixed directory. The boot
// scan must resume what it can (warm from the store's newest
// checkpoint, cold when there is none), leave the finished alone, and
// skip — never crash on — everything unreadable.
func TestScanJournalsDecisionTable(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec(1)
	other := spec
	other.Sections = spec.Sections + 1
	full := validCheckpoint(t, spec, 3)

	withStore := func(s SessionSpec, n int, tail ...[]byte) func(*testing.T, string) {
		return func(t *testing.T, id string) { writeStoreCheckpoints(t, store.OS, dir, id, s, n, tail...) }
	}
	writeFile := func(path string, raw []byte) {
		t.Helper()
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rows := []struct {
		id string
		// manifest, when set, is written verbatim in place of a valid
		// manifest in state.
		manifest string
		state    State
		setup    func(t *testing.T, id string)
		action   Action
		round    int    // warm-resume round; 0 means no checkpoint
		reason   string // substring the decision's reason must contain
	}{
		// Terminal manifests: the store's contents are irrelevant.
		{id: "done-1", state: StateDone, setup: withStore(spec, 40), action: ActionComplete},
		{id: "failed-1", state: StateFailed, action: ActionComplete},
		{id: "canceled-1", state: StateCanceled, action: ActionComplete},

		// Mid-run, many compacted rounds: warm from the newest.
		{id: "midrun-warm", state: StateRunning, setup: withStore(spec, 40),
			action: ActionResume, round: 40, reason: "warm resume from round 40"},
		// Interrupted by a drain, checkpointed.
		{id: "drained-warm", state: StateInterrupted, setup: withStore(spec, 12),
			action: ActionResume, round: 12},
		// Crashed before the store was opened: cold.
		{id: "midrun-cold", state: StateRunning, action: ActionResume, reason: "no checkpoint"},
		// Store opened but never appended to: cold, not a skip.
		{id: "store-empty", state: StateRunning, setup: withStore(spec, 0),
			action: ActionResume, reason: "empty checkpoint store"},
		// A leftover file from the retired single-file journal is not
		// a checkpoint store: cold resume, not a skip or a crash.
		{id: "legacy-leftover", state: StateRunning, action: ActionResume, reason: "no checkpoint",
			setup: func(t *testing.T, id string) {
				writeFile(filepath.Join(dir, id+".checkpoint.json"), validCheckpoint(t, spec, 9))
			}},
		// Torn segment tail: recovery repairs it and says so.
		{id: "torn-tail", state: StateRunning, action: ActionResume, round: 5,
			reason: "store repaired: 1 torn tails truncated",
			setup: func(t *testing.T, id string) {
				writeStoreCheckpoints(t, store.OS, dir, id, spec, 5)
				seg := filepath.Join(storeDirPath(dir, id), "segment.log")
				raw, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				writeFile(seg, append(raw, "torn!"...))
			}},
		// CRC-valid records whose checkpoints fail DecodeCheckpoint: a
		// gate violation (negative round) and a truncated document.
		{id: "corrupt-cp", state: StateRunning, action: ActionSkip, reason: "checkpoint corrupt",
			setup: withStore(spec, 2, []byte(`{"epoch":1,"round":-3,"num_sections":4}`))},
		{id: "truncated-cp", state: StateRunning, action: ActionSkip, reason: "checkpoint corrupt",
			setup: withStore(spec, 2, full[:len(full)/2])},
		// Checkpoint sections disagree with the spec.
		{id: "mismatch-cp", state: StateRunning, setup: withStore(other, 5),
			action: ActionSkip, reason: "sections, spec"},
		// Manifest not JSON at all, and one whose spec no longer
		// validates.
		{id: "bad-manifest", manifest: "not json{{", action: ActionSkip, reason: "manifest unreadable"},
		{id: "bad-spec", manifest: `{"spec":{"vehicles":-1,"sections":4},"state":"running"}`,
			action: ActionSkip, reason: "manifest spec"},
	}
	for _, r := range rows {
		if r.manifest != "" {
			writeFile(manifestPath(dir, r.id), []byte(r.manifest))
		} else {
			s := spec
			s.ID = r.id
			if err := writeManifest(store.OS, dir, r.id, Manifest{Spec: s, State: r.state}); err != nil {
				t.Fatal(err)
			}
		}
		if r.setup != nil {
			r.setup(t, r.id)
		}
	}

	decisions, err := ScanJournals(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]Decision, len(decisions))
	for _, d := range decisions {
		got[d.ID] = d
	}
	if len(got) != len(rows) {
		t.Fatalf("scan saw %d sessions, want %d: %+v", len(got), len(rows), decisions)
	}
	for _, r := range rows {
		t.Run(r.id, func(t *testing.T) {
			d, ok := got[r.id]
			if !ok {
				t.Fatal("no decision")
			}
			if d.Action != r.action {
				t.Errorf("action %s (%s), want %s", d.Action, d.Reason, r.action)
			}
			if d.Transient {
				t.Errorf("skip marked transient: %s", d.Reason)
			}
			if warm := r.round > 0; d.HasCheckpoint != warm || d.Checkpoint.Round != r.round {
				t.Errorf("warm=%v round %d, want warm=%v round %d", d.HasCheckpoint, d.Checkpoint.Round, warm, r.round)
			}
			if r.round > 0 && (!d.Store.Recovered || d.Store.RecoveredSeq != uint64(r.round)) {
				t.Errorf("store stats %+v, want recovered seq %d", d.Store, r.round)
			}
			if !strings.Contains(d.Reason, r.reason) {
				t.Errorf("reason %q, want it to contain %q", d.Reason, r.reason)
			}
			if r.action == ActionSkip && d.Reason == "" {
				t.Error("skip with no reason")
			}
		})
	}
}

// TestScanStoreBackedDecisions: checkpoints written through the
// daemon's own journal adapter recover from the <id>.store directory —
// the newest round, through the store's repair path, with its stats on
// the decision — and a stale legacy JSON file beside it is ignored.
func TestScanStoreBackedDecisions(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec(1)
	manifest := func(id string) {
		s := spec
		s.ID = id
		if err := writeManifest(store.OS, dir, id, Manifest{Spec: s, State: StateRunning}); err != nil {
			t.Fatal(err)
		}
	}
	save := func(id string, s SessionSpec, n int) {
		st, err := store.Open(storeDirPath(dir, id), store.Options{CompactBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		j := sched.NewStoreJournal(st)
		for r := 1; r <= n; r++ {
			cp := sched.Checkpoint{
				Epoch: 1, Round: r, NumSections: s.Sections, Seq: uint64(r),
				Schedule: map[string][]float64{"ev-000": make([]float64, s.Sections)},
			}
			if err := j.Save(cp); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Warm store-backed resume, with many compacted rounds.
	manifest("store-warm")
	save("store-warm", spec, 40)

	// Empty store directory: cold resume, not a skip.
	manifest("store-cold")
	save("store-cold", spec, 0)

	// The store wins over a stale legacy JSON checkpoint beside it.
	manifest("store-over-file")
	save("store-over-file", spec, 9)
	if err := os.WriteFile(filepath.Join(dir, "store-over-file.checkpoint.json"), validCheckpoint(t, spec, 3), 0o644); err != nil {
		t.Fatal(err)
	}

	// Torn segment tail: recovery repairs it and says so.
	manifest("store-torn")
	save("store-torn", spec, 5)
	seg := filepath.Join(storeDirPath(dir, "store-torn"), "segment.log")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(raw, []byte("torn!")...), 0o644); err != nil {
		t.Fatal(err)
	}

	// Geometry mismatch still skips, even via the store path.
	manifest("store-mismatch")
	bad := spec
	bad.Sections = spec.Sections + 3
	save("store-mismatch", bad, 2)

	decisions, err := ScanJournals(dir)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Decision{}
	for _, d := range decisions {
		byID[d.ID] = d
	}

	warm := byID["store-warm"]
	if warm.Action != ActionResume || !warm.HasCheckpoint || warm.Checkpoint.Round != 40 {
		t.Fatalf("store-warm = %+v", warm)
	}
	if !warm.Store.Recovered || warm.Store.RecoveredSeq != 40 {
		t.Fatalf("store-warm stats %+v", warm.Store)
	}

	cold := byID["store-cold"]
	if cold.Action != ActionResume || cold.HasCheckpoint {
		t.Fatalf("store-cold = %+v", cold)
	}

	over := byID["store-over-file"]
	if over.Action != ActionResume || !over.HasCheckpoint || over.Checkpoint.Round != 9 {
		t.Fatalf("store-over-file = %+v (store must beat the JSON file)", over)
	}

	torn := byID["store-torn"]
	if torn.Action != ActionResume || !torn.HasCheckpoint || torn.Checkpoint.Round != 5 {
		t.Fatalf("store-torn = %+v", torn)
	}
	if torn.Store.TornTruncated != 1 || !strings.Contains(torn.Reason, "store repaired") {
		t.Fatalf("store-torn repair not reported: stats %+v reason %q", torn.Store, torn.Reason)
	}

	mismatch := byID["store-mismatch"]
	if mismatch.Action != ActionSkip || mismatch.Transient {
		t.Fatalf("store-mismatch = %+v", mismatch)
	}
}

// An empty directory scans clean; a missing one errors (the daemon
// creates it before scanning).
func TestScanJournalsEdges(t *testing.T) {
	decisions, err := ScanJournals(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 0 {
		t.Fatalf("empty dir produced %d decisions", len(decisions))
	}
	if _, err := ScanJournals("/nonexistent/journal/dir"); err == nil {
		t.Fatal("missing dir scanned without error")
	}
}

// TestScanTransientVsCorruptSkips: a transient read failure and
// corrupt bytes both skip, but the decision says which one happened —
// the operator's "retry" versus "the data is gone" signal.
func TestScanTransientVsCorruptSkips(t *testing.T) {
	fsys := store.NewFaultFS(store.FaultConfig{Seed: 1})
	const dir = "/journal"
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(1)
	manifest := func(id string) {
		s := spec
		s.ID = id
		if err := writeManifest(fsys, dir, id, Manifest{Spec: s, State: StateRunning}); err != nil {
			t.Fatal(err)
		}
	}
	segment := func(id string) string { return filepath.Join(storeDirPath(dir, id), "segment.log") }

	manifest("cp-transient")
	writeStoreCheckpoints(t, fsys, dir, "cp-transient", spec, 4)
	fsys.SetReadError(segment("cp-transient"), errors.New("injected EIO"))

	manifest("cp-corrupt")
	writeStoreCheckpoints(t, fsys, dir, "cp-corrupt", spec, 0, []byte("{torn"))

	manifest("m-transient")
	fsys.SetReadError(manifestPath(dir, "m-transient"), errors.New("injected EACCES"))

	decisions, err := ScanJournalsFS(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Decision{}
	for _, d := range decisions {
		byID[d.ID] = d
	}

	dt := byID["cp-transient"]
	if dt.Action != ActionSkip || !dt.Transient || !strings.Contains(dt.Reason, "transient") {
		t.Fatalf("cp-transient = %+v", dt)
	}
	dc := byID["cp-corrupt"]
	if dc.Action != ActionSkip || dc.Transient {
		t.Fatalf("cp-corrupt = %+v (corrupt must not read as transient)", dc)
	}
	mt := byID["m-transient"]
	if mt.Action != ActionSkip || !mt.Transient {
		t.Fatalf("m-transient = %+v", mt)
	}

	// The transient condition clearing turns the skip into a resume on
	// the next scan — nothing was lost.
	fsys.SetReadError(segment("cp-transient"), nil)
	fsys.SetReadError(manifestPath(dir, "m-transient"), nil)
	decisions, err = ScanJournalsFS(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decisions {
		if d.ID == "cp-transient" {
			if d.Action != ActionResume || !d.HasCheckpoint || d.Checkpoint.Round != 4 {
				t.Fatalf("cp-transient after retry = %+v", d)
			}
		}
	}
}

// TestServerSegmentStoreDrainResume is the end-to-end path through a
// daemon pair: a daemon drains a session mid-run into its checkpoint
// store beside one it already finished, and a fresh daemon over the
// same journal directory recovers through that store, warm-resumes the
// interrupted session and replays the finished one as complete. The os
// row runs on the real filesystem; the faultfs row crashes the fault
// filesystem between the two daemons, so the second boots from what
// was durable.
func TestServerSegmentStoreDrainResume(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault bool
	}{{"os", false}, {"faultfs", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var fsys store.FS = store.OS
			restart := func() store.FS { return fsys }
			if tc.fault {
				ffs := store.NewFaultFS(store.FaultConfig{Seed: 1})
				fsys = ffs
				restart = func() store.FS { return ffs.Restart(store.FaultConfig{}) }
			}
			s := NewServer(Config{
				MaxSessions: 4, DrainGrace: 300 * time.Millisecond,
				JournalDir: dir, FS: fsys,
			})
			done, err := s.Create(smallSpec(20))
			if err != nil {
				t.Fatal(err)
			}
			sess, err := s.Create(slowSpec(21))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, done, StateDone, 5*time.Second)
			waitState(t, sess, StateRunning, 5*time.Second)
			time.Sleep(150 * time.Millisecond) // let rounds checkpoint
			if interrupted := s.Drain(); interrupted != 1 {
				t.Fatalf("interrupted %d, want 1", interrupted)
			}
			if ok, err := fsys.DirExists(storeDirPath(dir, sess.ID)); err != nil || !ok {
				t.Fatalf("no store directory after drain: %v %v", ok, err)
			}

			s2 := NewServer(Config{
				MaxSessions: 4, DrainGrace: 5 * time.Second,
				JournalDir: dir, FS: restart(),
			})
			defer s2.Close()
			decisions, err := s2.ResumeScanned()
			if err != nil {
				t.Fatal(err)
			}
			var resumed, replayed int
			for _, d := range decisions {
				switch {
				case d.Action == ActionResume && d.HasCheckpoint && d.ID == sess.ID:
					if !d.Store.Recovered {
						t.Fatalf("resume did not recover through the store: %+v", d.Store)
					}
					resumed++
				case d.Action == ActionComplete && d.ID == done.ID:
					replayed++
				default:
					t.Fatalf("unexpected restart decision %+v", d)
				}
			}
			if resumed != 1 || replayed != 1 {
				t.Fatalf("restart resumed %d and replayed %d sessions, want 1 and 1", resumed, replayed)
			}
			if again, ok := s2.Get(sess.ID); !ok || !again.Resumed {
				t.Fatal("session not re-admitted after restart")
			}
		})
	}
}
