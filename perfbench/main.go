// Command perfbench is the olevgrid benchmark. It hosts pricing-game
// sessions in the daemon core (internal/serve, the engine behind
// olevgridd) and measures what a client of the daemon sees: the time
// from a create request to a converged, checkpointed equilibrium, the
// per-round latency inside that session, and how many sessions per
// second the clients get through.
//
// The traffic is the repository's own: the city archetypes registered
// in internal/scenario (rush-hour surge, stadium egress, blackout
// recovery with scripted section outages, depot overnight, heat-wave
// price spike). Each session is created the way an admin client
// creates one, by archetype name with a visit-order seed drawn from
// --seed, and the daemon expands the archetype itself. The clients
// take the archetypes in turn and a run ends on a whole turn, so each
// archetype contributes the same number of sessions to every figure.
//
// The load is a closed loop: each client creates one session, waits
// for it to reach a terminal state, then creates the next, so a slower
// daemon receives less load. The best-response dynamics are
// deterministic per spec, so a spec's first session must land on the
// equilibrium the core engine computes in process (unique by Theorem
// IV.1), and every later retry-free session of the same spec must
// reproduce the first one bit for bit.
//
// Workloads (see the workloads table):
//
//	durable     one client, segment-store checkpoints with fsync always
//	concurrent  four clients, memory only
//
// Four clients rather than two: with two sessions on a two-CPU machine
// the runtime's scheduling settles, run by run, into either of two
// modes whose throughput differs by up to 2x; with four, the CPUs stay
// saturated and runs agree. Both workloads use the JSON wire. On the
// binary wire a session now and then evicted a live vehicle after
// dozens of retries and converged without it, about 1% short of the
// equilibrium's total power, so it cannot be measured as correct.
//
// With --trace 1 the run arms the daemon's metrics registry and a timing
// filesystem, then replays the spec pool outside the daemon on the same
// control-plane wiring with a span around every call into a layer (see
// trace.go), and prints per-layer metrics instead of end-to-end ones.
//
// Build and run from the repository root:
//
//	bash perfbench/run.sh --workload durable --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/obs"
	"olevgrid/internal/scenario"
	"olevgrid/internal/sched"
	"olevgrid/internal/serve"
	"olevgrid/internal/store"
	"olevgrid/internal/v2i"
)

const (
	// workDir, under the working directory, holds the journals; run.sh
	// builds there too.
	workDir = ".bench_build"
	// seedsPerArchetype is how many visit-order seeds each archetype
	// gets in a run's spec pool.
	seedsPerArchetype = 8
	// setupReps is how many daemons set-up boots; setup_s is the median.
	setupReps = 5
	// oracleTolerance is the relative gap allowed between a session's
	// total power (stopped at a per-vehicle tolerance of 1e-4) and the
	// in-process equilibrium (1e-8); the gaps seen are below 1e-6.
	oracleTolerance = 1e-5
)

// workload is one way of driving the daemon with the archetype traffic.
type workload struct {
	durable bool // segment-store checkpoints under a journal directory
	clients int  // concurrent closed-loop clients
}

var workloads = map[string]workload{
	"durable":    {durable: true, clients: 1},
	"concurrent": {clients: 4},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "durable or concurrent")
	seed := flag.Int64("seed", 1, "seed the session specs are drawn from")
	seconds := flag.Int("seconds", 10, "measured duration in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q; use durable or concurrent", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	pool, err := specPool(*seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	// Flushing the disk after clean-up and after set-up keeps one run's
	// and one phase's write-back out of the next one's fsyncs.
	defer func() {
		_ = os.RemoveAll(dir)
		syscall.Sync()
	}()

	b := &bench{w: w, pool: pool, refs: make([]*serve.View, len(pool))}
	if w.durable {
		b.journal = filepath.Join(dir, "journal")
		if err := os.Mkdir(b.journal, 0o755); err != nil {
			return err
		}
	}
	if *trace == 1 {
		b.reg = obs.NewRegistry()
		b.fs = &timingFS{FS: store.OS}
	}
	setupS, setupOuts, err := b.setup()
	if err != nil {
		return err
	}
	syscall.Sync()
	before := b.counters()
	b.fs.take()
	outs, elapsed := b.measure(time.Duration(*seconds) * time.Second)
	b.srv.Close()

	var problems []error
	for _, o := range setupOuts {
		if err := b.verify(o); err != nil {
			problems = append(problems, fmt.Errorf("set-up: %w", err))
		}
	}
	var latMS, roundMS, admitUS []float64
	for _, o := range outs {
		if err := b.verify(o); err != nil {
			problems = append(problems, err)
			continue
		}
		latMS = append(latMS, ms(o.latency))
		roundMS = append(roundMS, o.view.RoundMS)
		admitUS = append(admitUS, ms(o.admit)*1e3)
	}
	res := result{Attempted: len(outs), Failed: len(outs) - len(latMS), Metrics: map[string]metric{}}
	if *trace == 0 {
		res.Metrics["session_p50_ms"] = metric{percentile(latMS, 0.50), "ms"}
		res.Metrics["session_p90_ms"] = metric{percentile(latMS, 0.90), "ms"}
		res.Metrics["round_p50_ms"] = metric{percentile(roundMS, 0.50), "ms"}
		res.Metrics["sessions_per_s"] = metric{float64(len(latMS)) / elapsed.Seconds(), "1/s"}
		res.Metrics["setup_s"] = metric{setupS, "s"}
	} else {
		lr, err := b.layers(dir, before, latMS, admitUS)
		if err != nil {
			return err
		}
		problems = append(problems, lr.problems...)
		res.Attempted += lr.replayed
		res.Failed += len(lr.problems)
		for k, v := range lr.metrics {
			res.Metrics[k] = v
		}
	}
	for i, p := range problems {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more problems\n", len(problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	res.Correct = len(problems) == 0 && len(latMS) > 0
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// job is one pool entry: the create request a client sends, and the
// explicit session the daemon should expand it into.
type job struct {
	archetype string
	request   serve.SessionSpec // archetype name and seed only
	expanded  serve.SessionSpec // every field the daemon fills, set explicitly
	oracleKW  float64           // the archetype's in-process equilibrium
}

// specPool draws the run's pool: seedsPerArchetype visit-order seeds
// for every registered archetype, interleaved so that each run of
// len(scenario.Names()) consecutive jobs holds every archetype once.
func specPool(seed int64) ([]job, error) {
	names := scenario.Names()
	rng := rand.New(rand.NewSource(seed))
	oracle := make(map[string]float64, len(names))
	pool := make([]job, 0, seedsPerArchetype*len(names))
	for k := 0; k < seedsPerArchetype; k++ {
		for _, name := range names {
			s := 1 + rng.Int63n(1<<40)
			exp, err := expand(name, s)
			if err != nil {
				return nil, err
			}
			if _, ok := oracle[name]; !ok {
				if oracle[name], err = oracleKW(exp); err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
			}
			pool = append(pool, job{
				archetype: name,
				request:   serve.SessionSpec{Scenario: name, Seed: s},
				expanded:  exp,
				oracleKW:  oracle[name],
			})
		}
	}
	return pool, nil
}

// expand spells out the session the daemon builds from an archetype
// create request: serve's expandScenario (the archetype's compiled
// session parameters, the caller's seed) followed by its withDefaults.
func expand(name string, seed int64) (serve.SessionSpec, error) {
	sc, ok := scenario.Get(name)
	if !ok {
		return serve.SessionSpec{}, fmt.Errorf("archetype %q is not registered", name)
	}
	p, err := sc.SessionParams()
	if err != nil {
		return serve.SessionSpec{}, err
	}
	spec := serve.SessionSpec{
		FromScenario:   name,
		Vehicles:       p.Vehicles,
		Sections:       p.Sections,
		LineCapacityKW: p.LineCapacityKW,
		BetaPerKWh:     p.BetaPerKWh,
		Alpha:          0.875,
		MaxPowerKW:     60,
		Tolerance:      1e-4,
		MaxRounds:      300,
		MaxWallMS:      120_000,
		Seed:           seed,
	}
	for _, o := range p.Outages {
		spec.Outages = append(spec.Outages, serve.OutageSpec{Section: o.Section, DownRound: o.DownRound, UpRound: o.UpRound})
	}
	return spec, nil
}

// bench is one run's daemon, spec pool and reference outcomes.
type bench struct {
	w       workload
	pool    []job
	journal string // the daemons' journal directory (durable only)

	reg *obs.Registry // armed only for --trace 1
	fs  *timingFS     // armed only for --trace 1

	srv  *serve.Server
	ids  atomic.Int64  // session IDs, unique across the run's daemons
	refs []*serve.View // first verified outcome per pool job
}

// outcome is one session as its client saw it.
type outcome struct {
	job     int
	err     error         // create rejected
	admit   time.Duration // the Create call
	latency time.Duration // Create call to terminal state
	view    serve.View
}

// boot starts a daemon the way olevgridd does: the server core, then,
// when durable, the journal scan that resumes interrupted sessions.
func (b *bench) boot() error {
	cfg := serve.Config{Registry: b.reg}
	if b.fs != nil {
		cfg.FS = b.fs
	}
	if b.w.durable {
		cfg.JournalDir, cfg.Store, cfg.Fsync = b.journal, "segment", "always"
	}
	b.srv = serve.NewServer(cfg)
	_, err := b.srv.ResumeScanned()
	return err
}

// setup boots a daemon and runs the pool's first turn of archetypes
// through it, one session of each, setupReps times on the same journal
// directory, so each boot also scans what the last one left. The last
// daemon stays up for the measured pass. It returns the median set-up
// time in seconds and the set-up sessions.
func (b *bench) setup() (float64, []outcome, error) {
	turn := len(scenario.Names())
	times := make([]float64, 0, setupReps)
	var outs []outcome
	for rep := 0; rep < setupReps; rep++ {
		if b.srv != nil {
			b.srv.Close()
		}
		t0 := time.Now()
		if err := b.boot(); err != nil {
			return 0, nil, err
		}
		k := 0
		outs = append(outs, b.drive(1, func() (int, bool) {
			k++
			return k - 1, k <= turn
		})...)
		times = append(times, time.Since(t0).Seconds())
	}
	return percentile(times, 0.5), outs, nil
}

// measure runs the closed loop until d has passed and the current turn
// of archetypes has been handed out; sessions in flight then finish
// and count.
func (b *bench) measure(d time.Duration) ([]outcome, time.Duration) {
	turn := len(scenario.Names())
	var mu sync.Mutex
	next, stopped := 0, false
	start := time.Now()
	deadline := start.Add(d)
	outs := b.drive(b.w.clients, func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (next%turn == 0 && time.Now().After(deadline)) {
			stopped = true
			return 0, false
		}
		next++
		return (next - 1) % len(b.pool), true
	})
	return outs, time.Since(start)
}

// drive runs clients closed-loop clients: until next says stop, each
// creates a session for the pool job next hands it and waits for the
// session to end.
func (b *bench) drive(clients int, next func() (int, bool)) []outcome {
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := next(); ok; i, ok = next() {
				req := b.pool[i].request
				req.ID = fmt.Sprintf("b-%06d", b.ids.Add(1))
				o := runSession(b.srv, req)
				o.job = i
				per[c] = append(per[c], o)
			}
		}()
	}
	wg.Wait()
	var outs []outcome
	for _, o := range per {
		outs = append(outs, o...)
	}
	return outs
}

func runSession(srv *serve.Server, spec serve.SessionSpec) outcome {
	t0 := time.Now()
	sess, err := srv.Create(spec)
	o := outcome{admit: time.Since(t0), err: err}
	if err != nil {
		return o
	}
	// Poll at about a hundredth of the time waited so far: the wake-ups
	// cost the daemon little CPU and add about 1% to a session's time.
	for !sess.StateNow().Terminal() {
		time.Sleep(min(max(time.Since(t0)/100, 20*time.Microsecond), time.Millisecond))
	}
	o.latency = time.Since(t0)
	o.view = sess.View()
	return o
}

// verify reports why a session's outcome is wrong, or nil. The session
// must have converged as the archetype its job names, to the in-process
// equilibrium's total power within the distributed run's looser
// tolerance. The first session of a job becomes the job's reference,
// and a later one run without retries must reproduce a clean reference
// bit for bit. A durable session's segment store must hold its final
// state.
func (b *bench) verify(o outcome) error {
	if o.err != nil {
		return o.err
	}
	j, v := b.pool[o.job], o.view
	if v.State != serve.StateDone || !v.Converged || v.Rounds < 1 {
		return fmt.Errorf("session %s (%s) ended %s after %d rounds (converged=%v): %s",
			v.ID, j.archetype, v.State, v.Rounds, v.Converged, v.Error)
	}
	if v.Scenario != j.archetype || v.Vehicles != j.expanded.Vehicles || v.Sections != j.expanded.Sections {
		return fmt.Errorf("session %s: archetype %q with %d vehicles on %d sections; want %q, %d, %d",
			v.ID, v.Scenario, v.Vehicles, v.Sections, j.archetype, j.expanded.Vehicles, j.expanded.Sections)
	}
	if math.Abs(v.TotalPowerKW-j.oracleKW) > oracleTolerance*j.oracleKW {
		return fmt.Errorf("session %s (%s): %v kW, in-process equilibrium %v kW (retries %d, evicted %d, departed %d)",
			v.ID, j.archetype, v.TotalPowerKW, j.oracleKW, v.Retries, v.Evicted, v.Departed)
	}
	// A retried exchange can end in a skipped turn, which changes the
	// visit sequence and so the last bits of the outcome; only clean
	// sessions must agree bit for bit.
	if ref := b.refs[o.job]; ref == nil {
		b.refs[o.job] = &v
	} else if v.Retries == 0 && ref.Retries == 0 &&
		(v.Rounds != ref.Rounds || math.Float64bits(v.TotalPowerKW) != math.Float64bits(ref.TotalPowerKW)) {
		return fmt.Errorf("session %s (%s): %d rounds, %v kW; reference %s: %d rounds, %v kW",
			v.ID, j.archetype, v.Rounds, v.TotalPowerKW, ref.ID, ref.Rounds, ref.TotalPowerKW)
	}
	if b.w.durable {
		return verifyCheckpoint(b.journal, v)
	}
	return nil
}

// costSpec is the section cost serve prices a session with: the
// nonlinear policy plus the overload wall at 0.9·P_line (serve's
// coordinatorConfig).
func costSpec(spec serve.SessionSpec) v2i.CostSpec {
	return v2i.CostSpec{
		Kind:                "nonlinear",
		BetaPerKWh:          spec.BetaPerKWh,
		Alpha:               spec.Alpha,
		LineCapacityKW:      spec.LineCapacityKW,
		OverloadKappaPerKWh: 10,
		OverloadCapacityKW:  0.9 * spec.LineCapacityKW,
	}
}

// oracleKW solves spec's final game in process on the core engine and
// returns the equilibrium's total power. Sections whose last scripted
// outage event leaves them down are dropped; sections are otherwise
// identical, so the equilibrium on the survivors is the session's. It
// is unique (Theorem IV.1), so every seed of an archetype lands on it.
func oracleKW(spec serve.SessionSpec) (float64, error) {
	lastEvent := map[int]int{} // section → round of its last event
	down := map[int]bool{}
	for _, o := range spec.Outages {
		if o.DownRound >= lastEvent[o.Section] {
			lastEvent[o.Section], down[o.Section] = o.DownRound, true
		}
		if o.UpRound != 0 && o.UpRound >= lastEvent[o.Section] {
			lastEvent[o.Section], down[o.Section] = o.UpRound, false
		}
	}
	live := spec.Sections
	for _, d := range down {
		if d {
			live--
		}
	}
	cost, err := sched.BuildCost(costSpec(spec))
	if err != nil {
		return 0, err
	}
	players := make([]core.Player, spec.Vehicles)
	for i := range players {
		players[i] = core.Player{
			ID:           fmt.Sprintf("ev-%03d", i),
			MaxPowerKW:   spec.MaxPowerKW,
			Satisfaction: core.LogSatisfaction{Weight: weight(i)},
		}
	}
	g, err := core.NewGame(core.Config{
		Players:        players,
		NumSections:    live,
		LineCapacityKW: spec.LineCapacityKW,
		Eta:            0.9,
		Cost:           cost,
	})
	if err != nil {
		return 0, err
	}
	if res := g.Run(core.RunOptions{MaxUpdates: 1_000_000, Tolerance: 1e-8}); !res.Converged {
		return 0, errors.New("oracle game did not converge")
	}
	s := g.Schedule()
	var total float64
	for i := range players {
		total += s.OLEVTotal(i)
	}
	return total, nil
}

// weight is serve's satisfaction weight for vehicle i (serve's weight).
func weight(i int) float64 { return 1 + 0.06*float64(i%5) }

// verifyCheckpoint reopens a finished session's segment store and checks
// its last checkpoint holds the session's final round and total power.
// The daemon must be closed first, so no session still holds the store.
func verifyCheckpoint(journal string, v serve.View) error {
	st, err := store.Open(filepath.Join(journal, v.ID+".store"), store.Options{})
	if err != nil {
		return fmt.Errorf("session %s: open checkpoint store: %w", v.ID, err)
	}
	raw, _, ok := st.Last()
	_ = st.Close() // read only
	if !ok {
		return fmt.Errorf("session %s: no checkpoint", v.ID)
	}
	cp, err := sched.DecodeCheckpoint(raw)
	if err != nil {
		return fmt.Errorf("session %s: %w", v.ID, err)
	}
	var total float64
	for _, row := range cp.Schedule {
		for _, kw := range row {
			total += kw
		}
	}
	if cp.Round != v.Rounds || math.Abs(total-v.TotalPowerKW) > 1e-9*math.Max(1, v.TotalPowerKW) {
		return fmt.Errorf("session %s: checkpoint holds round %d, %v kW; session ended round %d, %v kW",
			v.ID, cp.Round, total, v.Rounds, v.TotalPowerKW)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile of xs, 0 if empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
