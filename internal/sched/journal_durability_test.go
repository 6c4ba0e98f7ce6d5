package sched

import (
	"errors"
	"path/filepath"
	"testing"

	"olevgrid/internal/store"
)

// Journal-level durability tests for the segment-store adapter. The
// atomic-write and crash-ladder proofs live in internal/store; these
// pin what the adapter adds on top: the Journal contract across a
// reopen, and the corrupt-payload verdict the boot scan branches on.

func durCheckpoint(round int) Checkpoint {
	return Checkpoint{
		Epoch: 1, Round: round, NumSections: 2, Seq: uint64(round),
		Schedule: map[string][]float64{"ev-000": {1, float64(round)}},
	}
}

// TestStoreJournalLoadCorrupt: a record whose CRC frame is intact but
// whose payload fails DecodeCheckpoint is corrupt data, not an I/O
// blip — Load must wrap store.ErrCorrupt so callers can tell "the data
// is gone" from "retry might work".
func TestStoreJournalLoadCorrupt(t *testing.T) {
	fsys := store.NewFaultFS(store.FaultConfig{Seed: 1})
	st, err := store.Open("/j/cp.store", store.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := NewStoreJournal(st)
	if err := j.Save(durCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]byte(`{"epoch":1,"round":-3,"num_sections":2}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Load(); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("corrupt load err = %v; want ErrCorrupt", err)
	}
}

// TestStoreJournalRoundTrip: the segment-store journal adapter keeps
// the Journal contract — latest save wins, across process restarts.
func TestStoreJournalRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cp.store")
	st, err := store.Open(dir, store.Options{CompactBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	j := NewStoreJournal(st)
	if _, ok, err := j.Load(); ok || err != nil {
		t.Fatalf("empty store journal: ok=%v err=%v", ok, err)
	}
	for r := 1; r <= 50; r++ {
		if err := j.Save(durCheckpoint(r)); err != nil {
			t.Fatalf("save %d: %v", r, err)
		}
	}
	cp, ok, err := j.Load()
	if err != nil || !ok || cp.Round != 50 {
		t.Fatalf("Load = %+v ok=%v err=%v", cp, ok, err)
	}
	if st.Stats().Compactions == 0 {
		t.Fatal("50 saves at 512-byte threshold never compacted")
	}
	_ = st.Close()

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cp, ok, err = NewStoreJournal(st2).Load()
	if err != nil || !ok || cp.Round != 50 {
		t.Fatalf("recovered Load = %+v ok=%v err=%v", cp, ok, err)
	}
}
