package sched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/obs"
	"olevgrid/internal/v2i"
)

// AgentConfig configures one OLEV's side of the protocol.
type AgentConfig struct {
	// VehicleID identifies the OLEV.
	VehicleID string
	// MaxPowerKW is the Eq. (2) ceiling P^OLEV_n.
	MaxPowerKW float64
	// Satisfaction is the private U_n; the coordinator never sees it.
	Satisfaction core.Satisfaction
	// MaxSectionDrawKW is the vehicle's Eq. (3) per-section coupling
	// limit; zero means uncapped.
	MaxSectionDrawKW float64
	// Hello optionally carries extra registration fields.
	VelocityMS float64
	SOC        float64
	// Autonomy, when set, arms the degraded-mode fallback: a control
	// plane silent past the deadline budget makes the agent hold a
	// local proportional-fair setpoint instead of blocking forever.
	// Nil keeps the pre-failover blocking behavior.
	Autonomy *AutonomyConfig
	// Metrics, if non-nil, receives the degraded-mode accounting: each
	// DegradedEpisodes/Reconnects/Heartbeats bump in AgentResult also
	// bumps the shared obs gauge of the same name, and episode
	// transitions emit degraded/reconnect spans. A fleet may share one
	// bundle — the gauge Add is CAS-exact under concurrency. Nil is the
	// off switch.
	Metrics *Metrics
}

// Validate reports the first problem with the configuration.
func (c AgentConfig) Validate() error {
	if c.VehicleID == "" {
		return errors.New("sched: agent needs a vehicle ID")
	}
	if c.MaxPowerKW < 0 {
		return fmt.Errorf("sched: agent %s max power %v negative", c.VehicleID, c.MaxPowerKW)
	}
	if c.Satisfaction == nil {
		return fmt.Errorf("sched: agent %s needs a satisfaction function", c.VehicleID)
	}
	return nil
}

// AgentResult summarizes an agent's session.
type AgentResult struct {
	// FinalRequestKW is the last total the agent requested.
	FinalRequestKW float64
	// FinalAllocKW is the last schedule the grid confirmed.
	FinalAllocKW []float64
	// FinalPaymentH is the payment attached to the last schedule.
	FinalPaymentH float64
	// Rounds counts quote/request exchanges.
	Rounds int
	// Converged reports whether the grid announced convergence.
	Converged bool
	// StaleDropped counts grid frames the agent discarded as replays
	// or reordered-late deliveries.
	StaleDropped int
	// DegradedEpisodes counts silences that tripped the autonomy
	// deadline and put the agent on its local fallback.
	DegradedEpisodes int
	// Reconnects counts recoveries: a grid frame arriving while the
	// agent was degraded.
	Reconnects int
	// LastFallbackKW is the local setpoint the agent held during its
	// most recent degraded episode (zero when state was too stale).
	LastFallbackKW float64
	// Heartbeats counts liveness beacons received.
	Heartbeats int
}

// Agent is one OLEV's protocol driver.
type Agent struct {
	cfg  AgentConfig
	link v2i.Transport
	seq  uint64
	// gridSeq is the highest grid sequence number seen; duplicated or
	// reordered-late grid frames are dropped instead of answered, so a
	// chaotic link cannot make the agent best-respond to an old quote
	// after a newer one.
	gridSeq uint64
	// lastQuote and lastQuoteAt ground the degraded-mode fallback: the
	// last grid state this agent saw, and when. lastQuote points at
	// quote once one has been answered.
	lastQuote   *v2i.Quote
	lastQuoteAt time.Time
	// degraded marks an autonomy episode in progress, so the next
	// successful Recv counts as a reconnect.
	degraded bool

	// Buffers reused by every turn. quote and sched are the decode
	// targets of the grid's frames and req the outgoing request; spec
	// and cost cache the last quoted section cost, compact the
	// live-compacted background, and psi the payment function priced
	// against it.
	quote   v2i.Quote
	sched   v2i.ScheduleMsg
	req     v2i.Request
	spec    v2i.CostSpec
	cost    core.CostFunction
	compact []float64
	psi     core.PaymentFunction
	// dl bounds each receive by the autonomy QuoteDeadline; Run makes
	// it and releases it when it returns.
	dl *deadline
}

// NewAgent validates and builds an agent over an established link.
func NewAgent(cfg AgentConfig, link v2i.Transport) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if link == nil {
		return nil, errors.New("sched: agent needs a transport")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &metricsOff
	}
	return &Agent{cfg: cfg, link: link}, nil
}

// tally bumps one AgentResult field and the matching olev_agent_*
// gauge together (a nil gauge, metrics off, is a no-op).
func tally(field *int, gauge *obs.Gauge) {
	*field++
	gauge.Add(1)
}

// Hello registers the agent with the smart grid. TCP deployments call
// it once before Run; in-memory deployments may skip it since the
// coordinator is constructed with the links already keyed.
func (a *Agent) Hello(ctx context.Context) error {
	a.seq++
	return v2i.SendMsg(ctx, a.link, v2i.TypeHello, a.cfg.VehicleID, a.seq, &v2i.Hello{
		VehicleID:  a.cfg.VehicleID,
		MaxPowerKW: a.cfg.MaxPowerKW,
		VelocityMS: a.cfg.VelocityMS,
		SOC:        a.cfg.SOC,
	})
}

// Run answers quotes with best responses until the grid says the game
// is over or the context/link ends.
func (a *Agent) Run(ctx context.Context) (AgentResult, error) {
	var res AgentResult
	m := a.cfg.Metrics
	rctx := ctx
	var silence time.Duration
	if a.cfg.Autonomy != nil && a.cfg.Autonomy.QuoteDeadline > 0 {
		silence = a.cfg.Autonomy.QuoteDeadline
		a.dl = newDeadline(ctx)
		defer a.dl.release()
		rctx = a.dl
	}
	for {
		if silence > 0 {
			a.dl.arm(silence)
		}
		env, err := a.link.Recv(rctx)
		if silence > 0 {
			a.dl.disarm()
		}
		if err != nil {
			if a.cfg.Autonomy != nil && ctx.Err() == nil && isSilenceTimeout(err) {
				// The control plane went silent past the deadline
				// budget: hold the local proportional-fair fallback and
				// keep listening — a recovered coordinator (or a
				// standby's first quote) resumes the exact protocol.
				first := !a.degraded
				a.degraded = true
				res.LastFallbackKW = a.fallbackKW(now())
				if first {
					tally(&res.DegradedEpisodes, m.DegradedEpisodes)
					m.Sink.Emit(obs.EventDegraded, a.cfg.VehicleID, int32(res.Rounds), -1, res.LastFallbackKW)
				}
				continue
			}
			if isDeparture(err) && res.Rounds > 0 {
				// The grid hung up after at least one exchange —
				// including the case where the final Bye frame was lost
				// on a faulty link; treat the session as complete.
				return res, nil
			}
			return res, fmt.Errorf("sched: agent %s recv: %w", a.cfg.VehicleID, err)
		}
		if a.degraded {
			a.degraded = false
			tally(&res.Reconnects, m.Reconnects)
			m.Sink.Emit(obs.EventReconnect, a.cfg.VehicleID, int32(res.Rounds), -1, 0)
		}
		if stop, err := a.Handle(ctx, env, &res); stop {
			return res, err
		}
	}
}

// Handle acts on one grid frame: it drops replays and reordered-late
// frames, answers a quote with a best response, records a schedule,
// and reports stop once the agent is done — at the grid's Bye, or with
// the error that ended it. Run calls it for every frame it receives; an
// inline link (v2i.NewInlinePair) calls it on the sender's goroutine
// through Handler. A request send that ctx cut short counts as a lost
// frame, not an error, so a slow vehicle-side link never ends the
// agent.
func (a *Agent) Handle(ctx context.Context, env v2i.Envelope, res *AgentResult) (stop bool, err error) {
	// Drop replays and reordered-late frames (a peer that does not
	// stamp sequence numbers sends 0 and bypasses the filter).
	if env.Seq != 0 {
		if env.Seq <= a.gridSeq {
			res.StaleDropped++
			return false, nil
		}
		a.gridSeq = env.Seq
	}
	switch env.Type {
	case v2i.TypeQuote:
		err = a.answerQuote(ctx, env, res)
	case v2i.TypeSchedule:
		msg := &a.sched
		*msg = v2i.ScheduleMsg{VehicleID: msg.VehicleID, AllocKW: msg.AllocKW[:0]}
		if err = v2i.Open(env, v2i.TypeSchedule, msg); err == nil {
			res.FinalAllocKW = append(res.FinalAllocKW[:0], msg.AllocKW...)
			res.FinalPaymentH = msg.PaymentH
		}
	case v2i.TypeConverged:
		res.Converged = true
	case v2i.TypeHeartbeat:
		tally(&res.Heartbeats, a.cfg.Metrics.Heartbeats) // liveness only; receiving it reset the silence clock
	case v2i.TypeBye:
		return true, nil
	default:
		err = fmt.Errorf("sched: agent %s: unexpected %s", a.cfg.VehicleID, env.Type)
	}
	return err != nil, err
}

// Handler returns the agent's side of an inline link: each frame goes
// to Handle, which accumulates into res, and the link swallows every
// frame after the one that stopped the agent.
func (a *Agent) Handler(res *AgentResult) v2i.Handler {
	return func(ctx context.Context, env v2i.Envelope) bool {
		stop, _ := a.Handle(ctx, env, res)
		return stop
	}
}

// answerQuote computes the best response to a quoted payment function
// and sends the request.
func (a *Agent) answerQuote(ctx context.Context, env v2i.Envelope, res *AgentResult) error {
	q := &a.quote
	*q = v2i.Quote{
		VehicleID: q.VehicleID, Others: q.Others[:0], Cost: v2i.CostSpec{Kind: q.Cost.Kind}, Live: q.Live[:0],
	}
	if err := v2i.Open(env, v2i.TypeQuote, q); err != nil {
		return err
	}
	a.lastQuote = q
	if a.cfg.Autonomy != nil {
		a.lastQuoteAt = now() // only the degraded-mode fallback reads it
	}
	if a.cost == nil || q.Cost != a.spec {
		cost, err := BuildCost(q.Cost)
		if err != nil {
			return err
		}
		a.cost, a.spec = cost, q.Cost
	}
	// A quote flagging dead sections prices only the live ones: the
	// best response is computed over the compacted vector, and the
	// grid water-fills the answer over the same live set.
	others := q.Others
	if len(q.Live) == len(others) {
		compact := a.compact[:0]
		for i, ok := range q.Live {
			if ok {
				compact = append(compact, others[i])
			}
		}
		a.compact = compact
		others = compact
	}
	a.psi.Rebuild(a.cost, others, a.cfg.MaxSectionDrawKW)
	request := core.BestResponse(a.cfg.Satisfaction, &a.psi, a.cfg.MaxPowerKW)

	a.seq++
	a.req = v2i.Request{
		VehicleID: a.cfg.VehicleID, TotalKW: request,
		DrawCapKW: a.cfg.MaxSectionDrawKW, Round: q.Round,
		Epoch: q.Epoch,
	}
	err := v2i.SendMsg(ctx, a.link, v2i.TypeRequest, a.cfg.VehicleID, a.seq, &a.req)
	if err != nil && !errors.Is(err, ctx.Err()) { // a send ctx cut short is a lost frame
		return fmt.Errorf("sched: agent %s send request: %w", a.cfg.VehicleID, err)
	}
	res.FinalRequestKW = request
	res.Rounds++
	return nil
}

// RunTCP is the full client-side lifecycle for a TCP deployment:
// dial, hello, run.
func RunTCP(ctx context.Context, addr string, cfg AgentConfig) (AgentResult, error) {
	link, err := v2i.Dial(ctx, addr)
	if err != nil {
		return AgentResult{}, err
	}
	defer func() { _ = link.Close() }()
	agent, err := NewAgent(cfg, link)
	if err != nil {
		return AgentResult{}, err
	}
	hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	err = agent.Hello(hctx)
	cancel()
	if err != nil {
		return AgentResult{}, err
	}
	return agent.Run(ctx)
}
