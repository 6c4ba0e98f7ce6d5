package sched

import (
	"testing"

	"olevgrid/internal/v2i"
)

// TestAdmitJoinsSeedsRejoinFromJournal: a vehicle re-joining under an
// ID the journal's last-known-good checkpoint knows must warm-start
// from its journaled allocation; a genuinely new vehicle still enters
// at zero, and a checkpoint for a different roadway (section-count
// mismatch) is ignored.
func TestAdmitJoinsSeedsRejoinFromJournal(t *testing.T) {
	journal := NewMemJournal()
	if err := journal.Save(Checkpoint{
		Epoch:       9,
		Round:       2,
		NumSections: 4,
		Schedule: map[string][]float64{
			"ev-rejoin": {1, 2, 3, 4},
			"ev-a":      {5, 5, 5, 5},
		},
	}); err != nil {
		t.Fatal(err)
	}

	gridSide, _ := v2i.NewPair(4)
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    4,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Journal:        journal,
	}, map[string]v2i.Transport{"ev-a": gridSide})
	if err != nil {
		t.Fatal(err)
	}
	epochBefore := coord.Epoch()

	rejoinSide, _ := v2i.NewPair(4)
	newSide, _ := v2i.NewPair(4)
	if err := coord.Join("ev-rejoin", rejoinSide); err != nil {
		t.Fatal(err)
	}
	if err := coord.Join("ev-new", newSide); err != nil {
		t.Fatal(err)
	}
	added := coord.admitJoins()
	if len(added) != 2 || coord.counts.Joined != 2 {
		t.Fatalf("admitted %v (joined=%d), want both pending vehicles", added, coord.counts.Joined)
	}

	want := []float64{1, 2, 3, 4}
	for i, v := range coord.index["ev-rejoin"].row {
		if v != want[i] {
			t.Errorf("rejoin section %d seeded %v, want journaled %v", i, v, want[i])
		}
	}
	for i, v := range coord.index["ev-new"].row {
		if v != 0 {
			t.Errorf("new vehicle section %d seeded %v, want 0", i, v)
		}
	}
	if coord.Epoch() <= epochBefore {
		t.Error("joins did not advance the epoch")
	}

	// A checkpoint for a different roadway must not leak in.
	other, _ := v2i.NewPair(4)
	coord2, err := NewCoordinator(CoordinatorConfig{
		NumSections:    6, // journal holds 4-section rows
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Journal:        journal,
	}, map[string]v2i.Transport{"ev-b": other})
	if err != nil {
		t.Fatal(err)
	}
	mismatchSide, _ := v2i.NewPair(4)
	if err := coord2.Join("ev-rejoin", mismatchSide); err != nil {
		t.Fatal(err)
	}
	coord2.admitJoins()
	for i, v := range coord2.index["ev-rejoin"].row {
		if v != 0 {
			t.Errorf("mismatched checkpoint leaked into section %d: %v", i, v)
		}
	}
}
