package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"olevgrid/internal/obs"
	"olevgrid/internal/store"
)

// smallSpec is a session that converges in well under a second.
func smallSpec(seed int64) SessionSpec {
	return SessionSpec{
		Vehicles:  3,
		Sections:  4,
		Tolerance: 1e-4,
		MaxRounds: 200,
		Seed:      seed,
	}
}

func waitState(t *testing.T, sess *Session, want State, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := sess.StateNow()
		if st == want {
			return
		}
		if st.Terminal() {
			v := sess.View()
			t.Fatalf("session %s reached terminal %s (err=%q), want %s", sess.ID, st, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %s, want %s", sess.ID, sess.StateNow(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A plain session runs pending → running → done and reports a
// converged game.
func TestSessionLifecycleConverges(t *testing.T) {
	s := NewServer(Config{MaxSessions: 4, Registry: obs.NewRegistry()})
	defer s.Close()
	sess, err := s.Create(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sess, StateDone, 10*time.Second)
	v := sess.View()
	if !v.Converged || v.Rounds == 0 {
		t.Fatalf("done session not converged: %+v", v)
	}
	if v.SolveMS <= 0 || v.RoundMS <= 0 {
		t.Fatalf("latency not recorded: %+v", v)
	}
	if got := s.Metrics().Completed.Value(); got != 1 {
		t.Fatalf("completed counter %d, want 1", got)
	}
}

// A session whose quotes go out in parallel blocks walks the same
// lifecycle to a converged state.
func TestSessionParallelConverges(t *testing.T) {
	s := NewServer(Config{MaxSessions: 4, Registry: obs.NewRegistry()})
	defer s.Close()
	spec := smallSpec(1)
	spec.Parallelism = 2
	sess, err := s.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sess, StateDone, 10*time.Second)
	v := sess.View()
	if !v.Converged || v.Rounds == 0 {
		t.Fatalf("parallel session not converged: %+v", v)
	}
}

// A chaotic session with mid-run churn still converges: the service
// layer inherits the control plane's fault tolerance wholesale.
func TestSessionChaosAndChurnConverges(t *testing.T) {
	s := NewServer(Config{MaxSessions: 4})
	defer s.Close()
	spec := smallSpec(7)
	spec.Vehicles = 4
	spec.Chaos = ChaosSpec{DropRate: 0.15, DuplicateRate: 0.05, ReorderRate: 0.05, MaxDelayMS: 1}
	spec.JoinAtRound = 3
	spec.LeaveAtRound = 5
	sess, err := s.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sess, StateDone, 30*time.Second)
	v := sess.View()
	if !v.Converged {
		t.Fatalf("chaotic session did not converge: %+v", v)
	}
	if v.Joined == 0 {
		t.Errorf("join churn never admitted the extra vehicle: %+v", v)
	}
	if v.Departed == 0 && v.Evicted == 0 {
		t.Errorf("leave churn never removed a vehicle: %+v", v)
	}
}

// The bounded session table rejects the (MaxSessions+1)-th concurrent
// session with ErrOverloaded — never queues it — and admits again
// once a slot frees.
func TestAdmissionBoundedTable(t *testing.T) {
	s := NewServer(Config{MaxSessions: 2, Registry: obs.NewRegistry()})
	defer s.Close()
	// Two slow sessions pin both slots.
	hold := smallSpec(2)
	hold.HelloDelayMS = 30_000
	a, err := s.Create(hold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Create(hold)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(smallSpec(3)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third create: %v, want ErrOverloaded", err)
	}
	if got := s.Metrics().RejectedOverload.Value(); got != 1 {
		t.Fatalf("overload rejects %d, want 1", got)
	}
	// Cancel one; its slot comes back and admission resumes.
	a.Cancel()
	deadline := time.Now().Add(5 * time.Second)
	for s.Active() >= 2 {
		if time.Now().After(deadline) {
			t.Fatal("canceled session never released its slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c, err := s.Create(smallSpec(4))
	if err != nil {
		t.Fatalf("create after slot freed: %v", err)
	}
	waitState(t, c, StateDone, 10*time.Second)
	b.Cancel()
}

// The solver semaphore is a second, independent admission bound.
func TestAdmissionSolverSemaphore(t *testing.T) {
	s := NewServer(Config{MaxSessions: 8, MaxConcurrent: 1})
	defer s.Close()
	hold := smallSpec(5)
	hold.HelloDelayMS = 30_000
	if _, err := s.Create(hold); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(smallSpec(6)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second create: %v, want ErrOverloaded (semaphore)", err)
	}
}

// Drain lets in-flight sessions finish inside the grace budget and
// admits nothing new.
func TestDrainGraceful(t *testing.T) {
	s := NewServer(Config{MaxSessions: 8, DrainGrace: 10 * time.Second})
	sess, err := s.Create(smallSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if interrupted := s.Drain(); interrupted != 0 {
		t.Fatalf("graceful drain interrupted %d sessions", interrupted)
	}
	if st := sess.StateNow(); st != StateDone {
		t.Fatalf("drained session state %s, want done", st)
	}
	if _, err := s.Create(smallSpec(9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("create during drain: %v, want ErrDraining", err)
	}
}

// Drain past the grace forces stragglers to checkpoint and exit as
// interrupted, within a bounded tail.
func TestDrainForcesStragglers(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Config{MaxSessions: 8, DrainGrace: 100 * time.Millisecond, JournalDir: dir})
	spec := smallSpec(10)
	spec.HelloDelayMS = 60_000 // will never finish on its own
	sess, err := s.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	interrupted := s.Drain()
	took := time.Since(start)
	if interrupted != 1 {
		t.Fatalf("interrupted %d sessions, want 1", interrupted)
	}
	if st := sess.StateNow(); st != StateInterrupted {
		t.Fatalf("straggler state %s, want interrupted", st)
	}
	if took > 5*time.Second {
		t.Fatalf("forced drain took %v; grace was 100ms", took)
	}
	// The manifest stays resumable.
	m, err := readManifest(store.OS, dir, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateInterrupted {
		t.Fatalf("manifest state %s, want interrupted", m.State)
	}
}

// slowSpec is a session whose rounds take long enough (per-frame
// delivery delay) that a short drain grace reliably catches it mid-run
// with checkpoints on disk.
func slowSpec(seed int64) SessionSpec {
	spec := smallSpec(seed)
	spec.Vehicles = 4
	spec.Tolerance = 1e-10
	spec.MaxRounds = 5000
	spec.MaxWallMS = 60_000
	spec.Chaos = ChaosSpec{MaxDelayMS: 30}
	return spec
}

// Crash-restart: a daemon drained mid-run checkpoints its sessions; a
// fresh daemon over the same journal directory resumes them and they
// converge.
func TestRestartResumesInterruptedSessions(t *testing.T) {
	dir := t.TempDir()
	first := NewServer(Config{MaxSessions: 8, DrainGrace: 200 * time.Millisecond, JournalDir: dir})
	sess, err := first.Create(slowSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sess, StateRunning, 10*time.Second)
	time.Sleep(300 * time.Millisecond) // let a few rounds checkpoint
	if n := first.Drain(); n != 1 {
		t.Fatalf("drain interrupted %d sessions, want 1 (state %s)", n, sess.StateNow())
	}

	second := NewServer(Config{MaxSessions: 8, JournalDir: dir, Registry: obs.NewRegistry()})
	defer second.Close()
	decisions, err := second.ResumeScanned()
	if err != nil {
		t.Fatal(err)
	}
	var resumed *Session
	for _, d := range decisions {
		if d.ID != sess.ID {
			continue
		}
		if d.Action != ActionResume {
			t.Fatalf("decision for %s: %s (%s), want resume", d.ID, d.Action, d.Reason)
		}
		if !d.HasCheckpoint {
			t.Errorf("resume of %s is cold; expected a warm checkpoint", d.ID)
		}
		var ok bool
		resumed, ok = second.Get(d.ID)
		if !ok {
			t.Fatalf("resumed session %s not in table", d.ID)
		}
	}
	if resumed == nil {
		t.Fatalf("no decision for interrupted session %s: %+v", sess.ID, decisions)
	}
	if !resumed.Resumed {
		t.Error("resumed session not flagged Resumed")
	}
	waitState(t, resumed, StateDone, 60*time.Second)
	if got := second.Metrics().Resumed.Value(); got != 1 {
		t.Fatalf("resumed counter %d, want 1", got)
	}
	// After completion the manifest is terminal: a third boot resumes
	// nothing.
	third := NewServer(Config{MaxSessions: 8, JournalDir: dir})
	defer third.Close()
	decisions, err = third.ResumeScanned()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decisions {
		if d.Action == ActionResume {
			t.Fatalf("third boot still resumes %s (%s)", d.ID, d.Reason)
		}
	}
}

// Session IDs that could escape the journal directory are rejected at
// the validation gate.
func TestSpecRejectsPathTraversalIDs(t *testing.T) {
	for _, id := range []string{"../evil", "a/b", "a\\b", "..", ".", "x\x00y"} {
		spec := smallSpec(1)
		spec.ID = id
		if err := spec.Validate(); err == nil {
			t.Errorf("ID %q validated; want rejection", id)
		}
	}
}

// Overload rejections must not leak solver tokens: after a burst of
// rejects, the full capacity is still admittable.
func TestRejectLeaksNoTokens(t *testing.T) {
	s := NewServer(Config{MaxSessions: 2})
	defer s.Close()
	hold := smallSpec(3)
	hold.HelloDelayMS = 30_000
	a, err := s.Create(hold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Create(hold)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Create(smallSpec(int64(i))); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("create %d: %v, want ErrOverloaded", i, err)
		}
	}
	a.Cancel()
	b.Cancel()
	deadline := time.Now().Add(5 * time.Second)
	for s.Active() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("holds never released")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Full capacity admits again.
	for i := 0; i < 2; i++ {
		if _, err := s.Create(smallSpec(int64(20 + i))); err != nil {
			t.Fatalf("post-reject create %d: %v", i, err)
		}
	}
}

// Many concurrent sessions all converge — the smoke version of the
// load harness, kept small enough for the unit suite.
func TestManyConcurrentSessions(t *testing.T) {
	const n = 32
	s := NewServer(Config{MaxSessions: n, Registry: obs.NewRegistry()})
	defer s.Close()
	sessions := make([]*Session, 0, n)
	for i := 0; i < n; i++ {
		spec := smallSpec(int64(i))
		spec.HelloDelayMS = 50 // overlap the fleet assembly windows
		if i%3 == 0 {
			spec.Chaos = ChaosSpec{DropRate: 0.1, MaxDelayMS: 1}
		}
		sess, err := s.Create(spec)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		sessions = append(sessions, sess)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	for i, sess := range sessions {
		if st := sess.StateNow(); st != StateDone {
			v := sess.View()
			t.Errorf("session %d state %s (err=%q), want done", i, st, v.Error)
		}
	}
	if got := s.Metrics().Completed.Value(); got != n {
		t.Errorf("completed %d, want %d", got, n)
	}
	if peak := s.PeakActive(); peak < 2 {
		t.Errorf("peak active %d; sessions never overlapped", peak)
	}
}

// The control-plane metrics bundle is shared across sessions without
// double counting: total coordinator rounds equal the sum of per-
// session report rounds.
func TestSharedMetricsReconcile(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(Config{MaxSessions: 4, Registry: reg})
	defer s.Close()
	var want uint64
	for i := 0; i < 3; i++ {
		sess, err := s.Create(smallSpec(int64(40 + i)))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, sess, StateDone, 10*time.Second)
		want += uint64(sess.View().Rounds)
	}
	if got := reg.Counter("olev_sched_rounds_total").Value(); got != want {
		t.Fatalf("shared rounds counter %d, want %d", got, want)
	}
}
