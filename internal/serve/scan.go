package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"olevgrid/internal/sched"
	"olevgrid/internal/store"
)

// This file is the crash-restart half of the service layer: every
// durable session leaves its state in the journal directory — a
// manifest (the spec plus the last known lifecycle state, written
// through the store layer's atomic-rename-with-fsync) and the
// coordinator's checkpoint journal, a segment store directory. On boot
// the daemon scans the directory and decides, per session, whether to
// resume it, leave it complete, or skip it as unreadable. The decision
// function is pure and table-tested over mixed directories (complete,
// warm and cold mid-run, torn, corrupt, transient-unreadable).

// Manifest is the durable per-session record beside the checkpoint.
type Manifest struct {
	// Spec is everything needed to re-run the session.
	Spec SessionSpec `json:"spec"`
	// State is the session's last recorded lifecycle state.
	State State `json:"state"`
}

// manifestPath names a session's manifest file and storeDirPath its
// checkpoint store directory.
func manifestPath(dir, id string) string { return filepath.Join(dir, id+".manifest.json") }
func storeDirPath(dir, id string) string { return filepath.Join(dir, id+".store") }

// writeManifest persists the manifest through the store layer's
// crash-consistent write: temp file, fsync, rename, directory fsync.
func writeManifest(fsys store.FS, dir, id string, m Manifest) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("serve: marshal manifest: %w", err)
	}
	if err := store.WriteFileAtomic(fsys, manifestPath(dir, id), raw); err != nil {
		return fmt.Errorf("serve: manifest save: %w", err)
	}
	return nil
}

// readManifest loads and validates one manifest; the spec inside is
// re-validated because the journal directory is attacker-adjacent
// state, same as the checkpoint files. Transient read errors keep
// their os error chain; undecodable bytes are marked store.ErrCorrupt.
func readManifest(fsys store.FS, dir, id string) (Manifest, error) {
	raw, err := fsys.ReadFile(manifestPath(dir, id))
	if err != nil {
		return Manifest{}, err
	}
	if len(raw) > MaxAdminBytes {
		return Manifest{}, fmt.Errorf("%w: manifest %d bytes exceeds %d", store.ErrCorrupt, len(raw), MaxAdminBytes)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest decode: %v", store.ErrCorrupt, err)
	}
	if err := m.Spec.Validate(); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest spec: %v", store.ErrCorrupt, err)
	}
	return m, nil
}

// Action is a journal-scan decision for one session.
type Action string

// The three decisions a boot scan can reach.
const (
	// ActionResume re-admits the session: the manifest says it was
	// mid-run, and the checkpoint (if any) warm-starts it.
	ActionResume Action = "resume"
	// ActionComplete leaves a terminal session alone.
	ActionComplete Action = "complete"
	// ActionSkip refuses an unreadable record: corrupt or truncated
	// manifest/checkpoint, a spec that no longer validates, or a
	// transient I/O failure (Transient distinguishes the last).
	ActionSkip Action = "skip"
)

// Decision is one session's scan outcome.
type Decision struct {
	ID     string
	Action Action
	// Reason explains skips and resumes for the boot log.
	Reason string
	// Transient marks a skip caused by an I/O error that may clear on
	// retry (permissions blip, EIO) rather than by corrupt bytes — so
	// an operator, or a retrying boot loop, can tell "try again" from
	// "the data is gone". A permissions blip used to masquerade as
	// corruption and silently cost the session.
	Transient bool
	// Spec is the manifest's session spec (resume/complete only).
	Spec SessionSpec
	// Checkpoint is the decoded warm-start state; HasCheckpoint is
	// false when the session never checkpointed (cold resume).
	Checkpoint    sched.Checkpoint
	HasCheckpoint bool
	// Store carries the checkpoint store's recovery and compaction
	// stats (zero value when the session has no store): what was
	// recovered, how many torn/corrupt records the open
	// repaired, and the current snapshot/segment footprint.
	Store store.Stats
}

// ScanJournals walks a journal directory and decides each session's
// fate. The scan itself never fails on a bad record — unreadable
// state yields an ActionSkip decision, because a daemon that refuses
// to boot over one corrupt file is worse than one that reports it.
func ScanJournals(dir string) ([]Decision, error) { return ScanJournalsFS(store.OS, dir) }

// ScanJournalsFS is ScanJournals over an injected filesystem — the
// seam cmd/crash-store recovers thousands of FaultFS crash images
// through.
func ScanJournalsFS(fsys store.FS, dir string) ([]Decision, error) {
	if fsys == nil {
		fsys = store.OS
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scan %s: %w", dir, err)
	}
	var out []Decision
	for _, name := range names {
		if !strings.HasSuffix(name, ".manifest.json") {
			continue
		}
		id := strings.TrimSuffix(name, ".manifest.json")
		out = append(out, decide(fsys, dir, id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// decide reaches the resume/complete/skip decision for one session.
func decide(fsys store.FS, dir, id string) Decision {
	d := Decision{ID: id}
	m, err := readManifest(fsys, dir, id)
	if err != nil {
		d.Action = ActionSkip
		d.Transient = !errors.Is(err, store.ErrCorrupt)
		if d.Transient {
			d.Reason = fmt.Sprintf("manifest unreadable (transient, retry may succeed): %v", err)
		} else {
			d.Reason = fmt.Sprintf("manifest unreadable: %v", err)
		}
		return d
	}
	d.Spec = m.Spec
	if m.State.Terminal() && m.State != StateInterrupted {
		d.Action = ActionComplete
		return d
	}
	// Mid-run (pending/running at crash time, or interrupted by a
	// drain): resumable, warm if the store holds a checkpoint that
	// decodes, cold if the session never opened one. A failed stat
	// falls through to the store open, which reports it.
	if ok, err := fsys.DirExists(storeDirPath(dir, id)); err == nil && !ok {
		d.Action = ActionResume
		d.Reason = "no checkpoint; cold resume from spec"
		return d
	}
	return decideStore(fsys, dir, id, d)
}

// decideStore recovers a session's checkpoint from its store and
// applies the geometry gate. Opening the store runs its recovery
// (torn-tail truncation, corrupt-record skipping, snapshot fallback),
// whose stats ride on the decision.
func decideStore(fsys store.FS, dir, id string, d Decision) Decision {
	st, err := store.Open(storeDirPath(dir, id), store.Options{FS: fsys})
	if err != nil {
		d.Action = ActionSkip
		d.Transient = true
		d.Reason = fmt.Sprintf("checkpoint store unreadable (transient, retry may succeed): %v", err)
		return d
	}
	raw, _, ok := st.Last()
	d.Store = st.Stats()
	_ = st.Close()
	if !ok {
		d.Action = ActionResume
		d.Reason = "empty checkpoint store; cold resume from spec"
		return d
	}
	cp, err := sched.DecodeCheckpoint(raw)
	if err != nil {
		d.Action = ActionSkip
		d.Reason = fmt.Sprintf("checkpoint corrupt: %v", err)
		return d
	}
	if cp.NumSections != d.Spec.Sections {
		d.Action = ActionSkip
		d.Reason = fmt.Sprintf("checkpoint has %d sections, spec %d", cp.NumSections, d.Spec.Sections)
		return d
	}
	d.Action = ActionResume
	d.Reason = fmt.Sprintf("warm resume from round %d", cp.Round)
	if d.Store.TornTruncated > 0 || d.Store.CorruptSkipped > 0 {
		d.Reason += fmt.Sprintf(" (store repaired: %d torn tails truncated, %d corrupt records skipped)",
			d.Store.TornTruncated, d.Store.CorruptSkipped)
	}
	d.Checkpoint = cp
	d.HasCheckpoint = true
	return d
}
