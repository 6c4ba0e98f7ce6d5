package main

// The traced run. Spans are recorded from the benchmark's side of each
// layer boundary: a timing filesystem under the daemon's durable writes,
// the daemon's own counters, and a replay of every pool spec outside the
// daemon, wired the way a serve session is wired, with wrappers around
// the vehicle links and the checkpoint journal. In the replay the
// coordinator's round time splits into parts that add back up to it:
//
//	quote_send     encoding and sending quotes
//	wait           quote sent to request received
//	install        request received to schedule sent: decode, water-fill, payment
//	schedule_send  encoding and sending schedules
//	checkpoint     journal saves: segment append and fsync
//	other          the rest of the round
//
// agent, the vehicle's quote decode and best response, is measured on
// the vehicle's side; it lies within wait.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/sched"
	"olevgrid/internal/serve"
	"olevgrid/internal/store"
	"olevgrid/internal/v2i"
)

// counterNames are the daemon counters the traced run reads.
var counterNames = []string{
	"olev_sched_rounds_total",
	"olev_sched_quotes_total",
	"olev_sched_retries_total",
	"olev_sched_checkpoints_total",
}

// counters snapshots counterNames; all zero when the registry is off.
func (b *bench) counters() map[string]float64 {
	out := make(map[string]float64, len(counterNames))
	for _, n := range counterNames {
		out[n] = float64(b.reg.Counter(n).Value())
	}
	return out
}

type layerReport struct {
	metrics  map[string]metric
	problems []error
	replayed int
}

// layers turns the measured pass's counters and fsync samples, and a
// traced replay of the pool in dir, into the per-layer metrics.
func (b *bench) layers(dir string, before map[string]float64, latMS, admitUS []float64) (layerReport, error) {
	after := b.counters()
	delta := func(n string) float64 { return after[n] - before[n] }
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	sessions := float64(len(latMS))
	var sessionMS, fsyncMS float64
	for _, l := range latMS {
		sessionMS += l
	}
	fsyncs := b.fs.take()
	fsyncUS := make([]float64, len(fsyncs))
	for i, d := range fsyncs {
		fsyncUS[i] = ms(d) * 1e3
		fsyncMS += ms(d)
	}

	lr := layerReport{metrics: map[string]metric{
		"admit_us":                {percentile(admitUS, 0.5), "us"},
		"rounds_per_session":      {per(delta("olev_sched_rounds_total"), sessions), "count"},
		"quotes_per_round":        {per(delta("olev_sched_quotes_total"), delta("olev_sched_rounds_total")), "count"},
		"retries_per_session":     {per(delta("olev_sched_retries_total"), sessions), "count"},
		"checkpoints_per_session": {per(delta("olev_sched_checkpoints_total"), sessions), "count"},
		"fsyncs_per_session":      {per(float64(len(fsyncs)), sessions), "count"},
		"fsync_us":                {percentile(fsyncUS, 0.5), "us"},
		"fsync_share":             {100 * per(fsyncMS, sessionMS), "%"},
	}}

	r := &recorder{}
	rounds := 0
	for i, j := range b.pool {
		journal := ""
		if b.w.durable {
			journal = filepath.Join(dir, fmt.Sprintf("replay-%03d.store", i))
		}
		report, err := replay(j.expanded, journal, r)
		lr.replayed++
		if err != nil {
			return lr, fmt.Errorf("replay of spec %d: %w", i, err)
		}
		rounds += report.Rounds
		want := b.refs[i]
		if want == nil || want.Retries > 0 || report.Retries > 0 {
			continue // no clean daemon outcome to hold the replay to (see verify)
		}
		if !report.Converged || report.Rounds != want.Rounds ||
			math.Float64bits(report.TotalPowerKW) != math.Float64bits(want.TotalPowerKW) {
			lr.problems = append(lr.problems, fmt.Errorf("replay of spec %d: %d rounds, %v kW (converged=%v); daemon %d rounds, %v kW",
				i, report.Rounds, report.TotalPowerKW, report.Converged, want.Rounds, want.TotalPowerKW))
		}
	}
	other := r.solve.Load() - r.quoteSend.Load() - r.wait.Load() - r.install.Load() - r.scheduleSend.Load() - r.checkpoint.Load()
	for name, ns := range map[string]int64{
		"round_us":         r.solve.Load(),
		"quote_send_us":    r.quoteSend.Load(),
		"wait_us":          r.wait.Load(),
		"agent_us":         r.agent.Load(),
		"install_us":       r.install.Load(),
		"schedule_send_us": r.scheduleSend.Load(),
		"checkpoint_us":    r.checkpoint.Load(),
		"other_us":         other,
	} {
		lr.metrics[name] = metric{per(float64(ns)/1e3, float64(rounds)), "us"}
	}
	return lr, nil
}

// recorder accumulates time per layer, in nanoseconds, across every
// replayed session. The agents run on their own goroutines, hence the
// atomics.
type recorder struct {
	solve, quoteSend, wait, install, scheduleSend, agent, checkpoint atomic.Int64
}

func since(a *atomic.Int64, t0 time.Time) { a.Add(int64(time.Since(t0))) }

// gridLink is the coordinator's end of one vehicle link. The coordinator
// runs one exchange at a time on its Run goroutine, so the timestamps
// need no lock; the concurrent farewell Byes of Close touch none.
type gridLink struct {
	inner  v2i.Transport
	r      *recorder
	sentAt time.Time // quote sent, request not yet received
	recvAt time.Time // request received, schedule not yet sent
}

// Unwrap lets the coordinator see the transport underneath.
func (g *gridLink) Unwrap() v2i.Transport { return g.inner }

func (g *gridLink) Close() error { return g.inner.Close() }

func (g *gridLink) Send(ctx context.Context, env v2i.Envelope) error {
	return g.timeSend(env.Type, func() error { return g.inner.Send(ctx, env) })
}

func (g *gridLink) SendTyped(ctx context.Context, typ v2i.MessageType, from string, seq uint64, body any) error {
	return g.timeSend(typ, func() error { return v2i.SendMsg(ctx, g.inner, typ, from, seq, body) })
}

func (g *gridLink) timeSend(typ v2i.MessageType, send func() error) error {
	t0 := time.Now()
	err := send()
	switch typ {
	case v2i.TypeQuote:
		since(&g.r.quoteSend, t0)
		g.sentAt = time.Now()
	case v2i.TypeSchedule:
		if !g.recvAt.IsZero() {
			g.r.install.Add(int64(t0.Sub(g.recvAt)))
			g.recvAt = time.Time{}
		}
		since(&g.r.scheduleSend, t0)
	}
	return err
}

func (g *gridLink) Recv(ctx context.Context) (v2i.Envelope, error) {
	env, err := g.inner.Recv(ctx)
	if err == nil && env.Type == v2i.TypeRequest && !g.sentAt.IsZero() {
		g.recvAt = time.Now()
		g.r.wait.Add(int64(g.recvAt.Sub(g.sentAt)))
		g.sentAt = time.Time{}
	}
	return env, err
}

// carLink is a vehicle's end of its link, used by that vehicle's agent
// goroutine alone.
type carLink struct {
	inner   v2i.Transport
	r       *recorder
	quoteAt time.Time // quote received, request not yet sent
}

func (c *carLink) Unwrap() v2i.Transport { return c.inner }

func (c *carLink) Close() error { return c.inner.Close() }

func (c *carLink) Recv(ctx context.Context) (v2i.Envelope, error) {
	env, err := c.inner.Recv(ctx)
	if err == nil && env.Type == v2i.TypeQuote {
		c.quoteAt = time.Now()
	}
	return env, err
}

func (c *carLink) Send(ctx context.Context, env v2i.Envelope) error {
	c.answered(env.Type)
	return c.inner.Send(ctx, env)
}

func (c *carLink) SendTyped(ctx context.Context, typ v2i.MessageType, from string, seq uint64, body any) error {
	c.answered(typ)
	return v2i.SendMsg(ctx, c.inner, typ, from, seq, body)
}

func (c *carLink) answered(typ v2i.MessageType) {
	if typ == v2i.TypeRequest && !c.quoteAt.IsZero() {
		since(&c.r.agent, c.quoteAt)
		c.quoteAt = time.Time{}
	}
}

// timedJournal times every checkpoint save.
type timedJournal struct {
	sched.Journal
	r *recorder
}

func (j timedJournal) Save(cp sched.Checkpoint) error {
	t0 := time.Now()
	err := j.Journal.Save(cp)
	since(&j.r.checkpoint, t0)
	return err
}

// replay runs one expanded spec outside the daemon, wired as serve
// wires a session. It is a copy of serve's private wiring and must be
// kept in step with it: the agents and links of fleet.launchVehicle
// and newFleet on the JSON wire (one agent goroutine per OLEV over an
// in-memory pair, weights from weight), the settings of
// coordinatorConfig, and the segment
// store Server.sessionJournal opens in journalDir when it is set. The
// daemon's outcome for the same spec is the check that the copy has
// not drifted: a replay must reproduce it bit for bit. Like the
// daemon's own session timing, the solve spans the coordinator's Run
// and Close.
func replay(spec serve.SessionSpec, journalDir string, r *recorder) (sched.Report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(spec.MaxWallMS)*time.Millisecond)
	defer cancel()
	var raw []v2i.Transport
	var wg sync.WaitGroup
	defer func() {
		for _, l := range raw {
			_ = l.Close()
		}
		wg.Wait()
	}()
	links := make(map[string]v2i.Transport, spec.Vehicles)
	for i := 0; i < spec.Vehicles; i++ {
		id := fmt.Sprintf("ev-%03d", i)
		gridSide, vehicleSide := v2i.NewPair(64)
		raw = append(raw, gridSide)
		agent, err := sched.NewAgent(sched.AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   spec.MaxPowerKW,
			Satisfaction: core.LogSatisfaction{Weight: weight(i)},
		}, &carLink{inner: vehicleSide, r: r})
		if err != nil {
			return sched.Report{}, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = agent.Run(ctx)
		}()
		links[id] = &gridLink{inner: gridSide, r: r}
	}

	cfg := sched.CoordinatorConfig{
		NumSections:      spec.Sections,
		LineCapacityKW:   spec.LineCapacityKW,
		Cost:             costSpec(spec),
		Tolerance:        spec.Tolerance,
		MaxRounds:        spec.MaxRounds,
		RoundTimeout:     100 * time.Millisecond,
		MaxRetries:       8,
		RetryBackoff:     2 * time.Millisecond,
		SkipUnresponsive: true,
		DropDeparted:     true,
		EvictAfter:       12,
		Seed:             spec.Seed,
		ShutdownGrace:    250 * time.Millisecond,
	}
	for _, o := range spec.Outages {
		cfg.Outages = append(cfg.Outages, sched.SectionOutage{Section: o.Section, DownRound: o.DownRound, UpRound: o.UpRound})
	}
	if journalDir != "" {
		st, err := store.Open(journalDir, store.Options{Fsync: store.FsyncAlways})
		if err != nil {
			return sched.Report{}, err
		}
		defer func() { _ = st.Close() }()
		cfg.Journal = timedJournal{Journal: sched.NewStoreJournal(st), r: r}
		cfg.CheckpointEvery = 2
	}
	coord, err := sched.NewCoordinator(cfg, links)
	if err != nil {
		return sched.Report{}, err
	}

	t0 := time.Now()
	report, err := coord.Run(ctx)
	_ = coord.Close()
	since(&r.solve, t0)
	return report, err
}

// timingFS times every fsync, of files and directories, that the daemon's
// durable writes issue through the store.FS seam.
type timingFS struct {
	store.FS
	mu     sync.Mutex
	fsyncs []time.Duration
}

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := t.FS.SyncDir(dir)
	t.record(time.Since(t0))
	return err
}

func (t *timingFS) record(d time.Duration) {
	t.mu.Lock()
	t.fsyncs = append(t.fsyncs, d)
	t.mu.Unlock()
}

// take returns and clears the samples so far; nil when tracing is off.
func (t *timingFS) take() []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.fsyncs
	t.fsyncs = nil
	return out
}

type timedFile struct {
	store.File
	fs *timingFS
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.record(time.Since(t0))
	return err
}
