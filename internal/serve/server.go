package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/meanfield"
	"olevgrid/internal/obs"
	"olevgrid/internal/sched"
	"olevgrid/internal/store"
)

// Config sizes the daemon's self-protection machinery.
type Config struct {
	// MaxSessions bounds the session table: the number of non-terminal
	// sessions the daemon will hold at once. Creates beyond it are
	// rejected explicitly (503 + Retry-After at the HTTP layer), never
	// queued. Zero means 1024.
	MaxSessions int
	// MaxConcurrent is the solver-capacity semaphore: how many
	// sessions may occupy solver tokens at once. Zero means
	// MaxSessions. A create that cannot take a token immediately is
	// rejected — backpressure is explicit, not a hidden queue.
	MaxConcurrent int
	// DrainGrace bounds how long Drain lets in-flight sessions finish
	// before forcing the rest to checkpoint and stop. Zero means 5 s.
	DrainGrace time.Duration
	// DefaultMaxWall bounds a session whose spec asks for no wall
	// budget. Zero means 120 s.
	DefaultMaxWall time.Duration
	// RetryAfter is the hint attached to overload rejections. Zero
	// means 1 s.
	RetryAfter time.Duration
	// JournalDir, when set, makes sessions durable: each gets a
	// manifest + checkpoint journal there, drain checkpoints the
	// still-running rest, and a later boot's journal scan resumes
	// them. Empty runs memory-only.
	JournalDir string
	// Store is ignored: every durable session checkpoints to its own
	// segment store (<id>.store under JournalDir).
	//
	// Deprecated: the segment store is the only checkpoint backend.
	Store string
	// Fsync is the durability policy for checkpoint appends: "" or
	// "always" (a nil Save survives any crash), "interval" (bounded
	// loss), "never" (no fsync). Manifests always get the full fsync
	// sequence — they are tiny and rare.
	Fsync string
	// FS is the filesystem seam for all durable writes; nil means the
	// real filesystem. The crash harness injects a store.FaultFS here.
	FS store.FS
	// Registry/Sink arm telemetry; nil runs dark.
	Registry *obs.Registry
	Sink     *obs.EventSink
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = c.MaxSessions
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.DefaultMaxWall <= 0 {
		c.DefaultMaxWall = 120 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.FS == nil {
		c.FS = store.OS
	}
	return c
}

// Admission rejections. The HTTP layer maps both to 503 +
// Retry-After; they stay distinct so the caller (and the metrics) can
// tell saturation from shutdown.
var (
	// ErrOverloaded means the session table or the solver semaphore is
	// full: the daemon is protecting itself, try again later.
	ErrOverloaded = errors.New("serve: at capacity, retry later")
	// ErrDraining means the daemon is shutting down and admits no new
	// sessions.
	ErrDraining = errors.New("serve: draining, not admitting sessions")
	// ErrDuplicateID rejects a create under an ID that is already live.
	ErrDuplicateID = errors.New("serve: session ID already exists")
)

// Server hosts concurrent game sessions behind admission control.
type Server struct {
	cfg     Config
	metrics *Metrics
	cpm     *sched.Metrics     // control-plane bundle shared by all sessions
	mfm     *meanfield.Metrics // aggregated-tier bundle shared by all sessions
	stm     *store.Metrics     // durability bundle shared by all sessions
	fsync   store.FsyncPolicy  // parsed Config.Fsync

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// sem is the solver-capacity semaphore; acquisition is
	// non-blocking at admission, release happens when a session
	// reaches a terminal state.
	sem chan struct{}

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string // creation order, for stable listings
	active   int      // non-terminal sessions (the bounded table's load)
	peak     int
	draining bool
	nextID   uint64

	wg sync.WaitGroup
}

// NewServer builds a daemon core. Callers that want durability must
// have created cfg.JournalDir already (the daemon binary does).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// The daemon binary validates -fsync up front; anything else that
	// hands in an unknown policy gets the safe default (always).
	fsync, _ := store.ParseFsyncPolicy(cfg.Fsync)
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		metrics:    NewMetrics(cfg.Registry),
		cpm:        sched.NewMetrics(cfg.Registry, cfg.Sink),
		mfm:        meanfield.NewMetrics(cfg.Registry),
		stm:        store.NewMetrics(cfg.Registry),
		fsync:      fsync,
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		sessions:   make(map[string]*Session),
	}
}

// Metrics exposes the serve bundle (for harnesses that reconcile it).
func (s *Server) Metrics() *Metrics { return s.metrics }

// PeakActive returns the non-terminal session high-water mark.
func (s *Server) PeakActive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// Active returns the current non-terminal session count.
func (s *Server) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Draining reports whether admissions are closed.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Create admits one session or rejects it explicitly. The admission
// decision is O(1) and never blocks on running sessions: a full
// table or an empty solver semaphore is an immediate ErrOverloaded —
// the bounded-queue discipline that keeps overload from turning into
// unbounded memory growth or hidden latency.
func (s *Server) Create(spec SessionSpec) (*Session, error) {
	if err := spec.Validate(); err != nil {
		s.metrics.RejectedInvalid.Inc()
		return nil, err
	}
	spec, err := spec.expandScenario()
	if err != nil {
		s.metrics.RejectedInvalid.Inc()
		return nil, err
	}
	return s.admit(spec.withDefaults(s.cfg.DefaultMaxWall), nil, false)
}

// admit is the single admission path for fresh and resumed sessions.
func (s *Server) admit(spec SessionSpec, takeover *sched.Takeover, resumed bool) (*Session, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.RejectedDraining.Inc()
		return nil, ErrDraining
	}
	if s.active >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.metrics.RejectedOverload.Inc()
		return nil, ErrOverloaded
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.mu.Unlock()
		s.metrics.RejectedOverload.Inc()
		return nil, ErrOverloaded
	}
	if spec.ID == "" {
		s.nextID++
		spec.ID = fmt.Sprintf("s-%06d", s.nextID)
	}
	if _, dup := s.sessions[spec.ID]; dup {
		<-s.sem
		s.mu.Unlock()
		s.metrics.RejectedInvalid.Inc()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, spec.ID)
	}
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	sess := &Session{
		ID:       spec.ID,
		Resumed:  resumed,
		spec:     spec,
		cancel:   cancel,
		takeover: takeover,
		state:    StatePending,
		created:  time.Now(),
	}
	s.sessions[spec.ID] = sess
	s.order = append(s.order, spec.ID)
	s.active++
	if s.active > s.peak {
		s.peak = s.active
		s.metrics.Peak.Set(float64(s.peak))
	}
	s.metrics.Active.Set(float64(s.active))
	s.mu.Unlock()

	s.metrics.Admitted.Inc()
	if resumed {
		s.metrics.Resumed.Inc()
	}
	if s.cfg.JournalDir != "" {
		// Best-effort: a manifest write failure costs durability, not
		// the live session.
		_ = writeManifest(s.cfg.FS, s.cfg.JournalDir, spec.ID, Manifest{Spec: spec, State: StateRunning})
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runSession(ctx, sess)
	}()
	return sess, nil
}

// Get returns a session by ID.
func (s *Server) Get(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// List snapshots every session in creation order.
func (s *Server) List() []View {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	table := make([]*Session, 0, len(ids))
	for _, id := range ids {
		table = append(table, s.sessions[id])
	}
	s.mu.Unlock()
	out := make([]View, len(table))
	for i, sess := range table {
		out[i] = sess.View()
	}
	return out
}

// finish moves a session to a terminal state and releases its slot.
// The manifest is written first, so a session observed terminal is
// already terminal on disk and a reboot will not resume it.
func (s *Server) finish(sess *Session, st State, errMsg string) {
	if s.cfg.JournalDir != "" {
		// interrupted stays resumable: the manifest keeps saying so.
		_ = writeManifest(s.cfg.FS, s.cfg.JournalDir, sess.ID, Manifest{Spec: sess.spec, State: st})
	}

	sess.mu.Lock()
	sess.state = st
	sess.errMsg = errMsg
	sess.mu.Unlock()

	<-s.sem
	s.mu.Lock()
	s.active--
	s.metrics.Active.Set(float64(s.active))
	s.mu.Unlock()

	switch st {
	case StateDone:
		s.metrics.Completed.Inc()
	case StateFailed:
		s.metrics.Failed.Inc()
	case StateCanceled:
		s.metrics.Canceled.Inc()
	case StateInterrupted:
		s.metrics.Interrupted.Inc()
	}
}

// sessionJournal opens one session's checkpoint store. The closer
// releases it when the session ends (the store holds an open segment
// handle).
func (s *Server) sessionJournal(id string) (sched.Journal, func(), error) {
	if s.cfg.JournalDir == "" {
		return nil, func() {}, nil
	}
	st, err := store.Open(storeDirPath(s.cfg.JournalDir, id), store.Options{
		FS:      s.cfg.FS,
		Fsync:   s.fsync,
		Metrics: s.stm,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open checkpoint store: %w", err)
	}
	return sched.NewStoreJournal(st), func() { _ = st.Close() }, nil
}

// runSession is a session's whole life on its own goroutine: fleet
// assembly, the coordinator run, and the terminal transition.
func (s *Server) runSession(ctx context.Context, sess *Session) {
	spec := sess.spec
	wall := time.Duration(spec.MaxWallMS) * time.Millisecond
	ctx, cancelWall := context.WithTimeout(ctx, wall)
	defer cancelWall()

	// Fleet assembly: in a TCP deployment this is CollectHellos
	// waiting for vehicles to dial in; the simulated fleet models it
	// as a bounded delay holding the admission slot.
	if spec.HelloDelayMS > 0 {
		select {
		case <-time.After(time.Duration(spec.HelloDelayMS) * time.Millisecond):
		case <-ctx.Done():
			s.finishCtx(ctx, sess, sched.Report{}, ctx.Err())
			return
		}
	}

	if spec.Solver == SolverMeanField {
		s.runMeanFieldSession(ctx, sess)
		return
	}

	f, err := newFleet(spec)
	if err != nil {
		s.finish(sess, StateFailed, err.Error())
		return
	}
	defer f.stop()

	journal, closeJournal, err := s.sessionJournal(sess.ID)
	if err != nil {
		s.finish(sess, StateFailed, err.Error())
		return
	}
	defer closeJournal()
	cfg := coordinatorConfig(spec, journal, s.cpm)
	cfg.InstanceID = sess.ID
	// The churn hook needs the coordinator that doesn't exist yet;
	// OnRound only fires from Run, after the holder is filled.
	var coordHolder *sched.Coordinator
	cfg.OnRound = churnHook(spec, f, func() *sched.Coordinator { return coordHolder })

	var coord *sched.Coordinator
	if sess.takeover != nil {
		coord, err = sched.ResumeCoordinator(cfg, f.links, *sess.takeover)
	} else {
		coord, err = sched.NewCoordinator(cfg, f.links)
	}
	if err != nil {
		s.finish(sess, StateFailed, err.Error())
		return
	}
	coordHolder = coord

	sess.mu.Lock()
	sess.state = StateRunning
	sess.solveStart = time.Now()
	sess.mu.Unlock()

	report, runErr := coord.Run(ctx)
	// Close drains agents through Bye and journals the final
	// checkpoint — on the drain path that checkpoint is exactly the
	// state the next boot warm-starts from.
	_ = coord.Close()

	now := time.Now()
	sess.mu.Lock()
	sess.solveEnd = now
	sess.report = report
	solveMS := float64(now.Sub(sess.solveStart)) / float64(time.Millisecond)
	sess.mu.Unlock()
	if report.Rounds > 0 {
		s.metrics.RoundMS.Observe(solveMS / float64(report.Rounds))
	}
	s.metrics.SessionMS.Observe(solveMS)

	if runErr == nil && !report.Converged {
		runErr = fmt.Errorf("serve: no convergence in %d rounds", report.Rounds)
	}
	s.finishCtx(ctx, sess, report, runErr)
}

// runMeanFieldSession is the aggregated-tier session body: no vehicle
// goroutines, no v2i links — the fleet exists only as a player slice
// the population tier clusters, solves and streams back through
// SkipSchedule. Everything around it (admission, wall budget, drain,
// terminal accounting, durability manifests) is the same machinery the
// per-vehicle path uses, which is the point: a million-OLEV session is
// just another row in the table.
func (s *Server) runMeanFieldSession(ctx context.Context, sess *Session) {
	spec := sess.spec
	players := make([]core.Player, spec.Vehicles)
	for i := range players {
		players[i] = core.Player{
			ID:           fmt.Sprintf("ev-%06d", i),
			MaxPowerKW:   spec.MaxPowerKW,
			Satisfaction: core.LogSatisfaction{Weight: weight(i)},
		}
	}
	charging, err := core.NewQuadraticCharging(spec.BetaPerKWh, spec.Alpha, spec.LineCapacityKW)
	if err != nil {
		s.finish(sess, StateFailed, err.Error())
		return
	}
	// Mirror coordinatorConfig's CostSpec exactly: the same nonlinear
	// price and the same overload wall at 0.9·P_line, so a mean-field
	// session is the aggregated view of the very game the per-vehicle
	// path would run.
	const eta = 0.9
	cost := core.SectionCost{
		Charging: charging,
		Overload: core.OverloadPenalty{Kappa: 10, Capacity: eta * spec.LineCapacityKW},
	}
	// The spec's tolerance is per-vehicle (the coordinator's reading);
	// macro totals are population sums, so scale it by the mean cluster
	// size — the same per-member precision the tier's own default
	// expresses.
	k := spec.Clusters
	if k == 0 {
		k = meanfield.DefaultClusters
	}
	if k > spec.Vehicles {
		k = spec.Vehicles
	}
	tol := spec.Tolerance * float64(spec.Vehicles) / float64(k)

	sess.mu.Lock()
	sess.state = StateRunning
	sess.solveStart = time.Now()
	sess.mu.Unlock()

	type outcome struct {
		res *meanfield.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := meanfield.Solve(meanfield.Config{
			Players:        players,
			NumSections:    spec.Sections,
			LineCapacityKW: spec.LineCapacityKW,
			Eta:            eta,
			Cost:           cost,
			Clusters:       spec.Clusters,
			Parallelism:    spec.Parallelism,
			Tolerance:      tol,
			MaxRounds:      spec.MaxRounds,
			Order:          core.OrderRandom,
			Seed:           spec.Seed,
			SkipSchedule:   true,
			Metrics:        s.mfm,
		})
		ch <- outcome{res, err}
	}()

	var out outcome
	select {
	case out = <-ch:
	case <-ctx.Done():
		// The solve has no cancellation point; it finishes on its own
		// goroutine while the session settles its terminal state — the
		// wall budget bounds the slot, not the arithmetic.
		s.finishCtx(ctx, sess, sched.Report{}, ctx.Err())
		return
	}
	if out.err != nil {
		s.finish(sess, StateFailed, out.err.Error())
		return
	}
	res := out.res

	report := sched.Report{
		Rounds:           res.Rounds,
		Converged:        res.Converged,
		CongestionDegree: res.CongestionDegree,
		TotalPowerKW:     res.TotalPowerKW,
	}
	for _, load := range res.SectionTotalsKW {
		report.WelfareCost += cost.Cost(load)
	}

	now := time.Now()
	sess.mu.Lock()
	sess.solveEnd = now
	sess.report = report
	sess.mfClusters = res.Clusters
	solveMS := float64(now.Sub(sess.solveStart)) / float64(time.Millisecond)
	sess.mu.Unlock()
	if report.Rounds > 0 {
		s.metrics.RoundMS.Observe(solveMS / float64(report.Rounds))
	}
	s.metrics.SessionMS.Observe(solveMS)

	var runErr error
	if !report.Converged {
		runErr = fmt.Errorf("serve: no convergence in %d rounds", report.Rounds)
	}
	s.finishCtx(ctx, sess, report, runErr)
}

// finishCtx maps a run outcome onto the terminal state, using the
// context cause to tell cancel from drain from wall timeout.
func (s *Server) finishCtx(ctx context.Context, sess *Session, report sched.Report, runErr error) {
	switch {
	case runErr == nil:
		s.finish(sess, StateDone, "")
	case errors.Is(context.Cause(ctx), errDrained):
		s.finish(sess, StateInterrupted, "drained mid-run; checkpointed")
	case errors.Is(context.Cause(ctx), errCanceled):
		s.finish(sess, StateCanceled, "")
	default:
		s.finish(sess, StateFailed, runErr.Error())
	}
}

// churnHook wires the spec's mid-run churn into the coordinator's
// round boundary: a scripted departure closes one vehicle's link, a
// scripted join admits a fresh vehicle through the live Join path.
// OnRound fires on Run's goroutine, strictly after construction, so
// the late-bound coordinator accessor is always filled by then.
func churnHook(spec SessionSpec, f *fleet, coord func() *sched.Coordinator) func(int) {
	if spec.JoinAtRound == 0 && spec.LeaveAtRound == 0 {
		return nil
	}
	var joined, left bool
	return func(round int) {
		if spec.LeaveAtRound > 0 && round >= spec.LeaveAtRound && !left {
			left = true
			// Closing the raw grid-side link surfaces as a departure;
			// DropDeparted releases the allocation and re-converges.
			_ = f.raw[0].Close()
		}
		if spec.JoinAtRound > 0 && round >= spec.JoinAtRound && !joined {
			joined = true
			id := fmt.Sprintf("ev-join-%03d", spec.Vehicles)
			if gl, err := f.launchVehicle(spec, id, spec.Vehicles); err == nil {
				_ = coord().Join(id, gl)
			}
		}
	}
}

// Drain closes admissions, lets in-flight sessions finish within the
// grace budget, then forces the rest to checkpoint and stop. It
// returns once every session has reached a terminal state, reporting
// how many were interrupted. Drain is idempotent; later calls wait on
// the same shutdown.
func (s *Server) Drain() int {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainGrace):
		// Grace expired: the stragglers checkpoint (via Close on the
		// run's way out) and exit as interrupted — the durable state a
		// restart resumes from.
		s.mu.Lock()
		for _, sess := range s.sessions {
			sess.cancel(errDrained)
		}
		s.mu.Unlock()
		<-done
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sess := range s.sessions {
		if sess.StateNow() == StateInterrupted {
			n++
		}
	}
	return n
}

// Close force-stops everything without the drain grace; for tests and
// fatal shutdown paths.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
}

// ResumeScanned scans the journal directory and re-admits every
// resumable session: the crash-restart boot path. Sessions with a
// decodable checkpoint warm-start through the same fenced takeover
// path a standby coordinator uses; the rest re-run cold from their
// manifests. It returns the scan decisions so the daemon can log
// them.
func (s *Server) ResumeScanned() ([]Decision, error) {
	if s.cfg.JournalDir == "" {
		return nil, nil
	}
	decisions, err := ScanJournalsFS(s.cfg.FS, s.cfg.JournalDir)
	if err != nil {
		return nil, err
	}
	for _, d := range decisions {
		if d.Action != ActionResume {
			continue
		}
		spec := d.Spec
		spec.ID = d.ID
		spec = spec.withDefaults(s.cfg.DefaultMaxWall)
		var takeover *sched.Takeover
		if d.HasCheckpoint {
			// Fence above the dead incarnation's checkpoint exactly as
			// a failover takeover would: the old process is gone, but a
			// strictly higher epoch and sequence base keep the resumed
			// session's frames unambiguous even against journal replays.
			takeover = &sched.Takeover{
				Epoch:         d.Checkpoint.Epoch + 1,
				InitialSeq:    d.Checkpoint.Seq + 1,
				Checkpoint:    d.Checkpoint,
				HasCheckpoint: true,
			}
		}
		if _, err := s.admit(spec, takeover, true); err != nil {
			return decisions, fmt.Errorf("serve: resume %s: %w", d.ID, err)
		}
	}
	return decisions, nil
}

// WaitIdle blocks until no session is active or the context ends; the
// load harness uses it between phases.
func (s *Server) WaitIdle(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.Active() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}
