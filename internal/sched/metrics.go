package sched

import (
	"olevgrid/internal/obs"
)

// Metrics is the control plane's telemetry bundle, threaded through
// CoordinatorConfig and AgentConfig. One bundle is meant to be shared
// by every incarnation of a session — primary, standby after
// takeover, resumed coordinator — so counters are cumulative across
// failover: each event site increments exactly once when the event
// happens, never by end-of-run diffs, which is what makes the
// no-double-count property testable. Nil is the off switch; every
// hook is nil-receiver safe, and the armed path is atomic writes
// only, safe from the batched rounds' collection goroutines.
type Metrics struct {
	// Coordinator-side counters. Retries through Restores have a
	// Counts field each, bumped by the same call; Rounds, Quotes,
	// Proposals, Checkpoints and Failovers exist only here.
	Rounds      *obs.Counter
	Quotes      *obs.Counter // quote frames sent (includes re-quotes)
	Proposals   *obs.Counter // requests water-filled and installed
	Retries     *obs.Counter
	Stale       *obs.Counter
	Skipped     *obs.Counter
	Departed    *obs.Counter
	Evicted     *obs.Counter
	Joined      *obs.Counter
	Degraded    *obs.Counter // rounds forced sequential by the batch guard
	FeedChanges *obs.Counter
	FeedHeld    *obs.Counter
	Outages     *obs.Counter
	Restores    *obs.Counter
	Checkpoints *obs.Counter
	Failovers   *obs.Counter // takeover/resume transitions

	// Epoch tracks the schedule version — monotone within an
	// incarnation and fenced upward across failover, which the chaos
	// conformance test asserts per fencing epoch.
	Epoch        *obs.Gauge
	LiveSections *obs.Gauge
	Delta        *obs.Histogram // per-round movement bound (kW)

	// Agent-side gauges, bumped by the same call as the AgentResult
	// field of the same name. Gauges rather than counters because
	// several agents may share a bundle and the CAS Add keeps
	// concurrent bumps exact.
	DegradedEpisodes *obs.Gauge
	Reconnects       *obs.Gauge
	Heartbeats       *obs.Gauge

	Sink *obs.EventSink
}

// metricsOff stands in for a nil bundle inside coordinators and
// agents: every instrument is nil, so every bump is a no-op.
var metricsOff Metrics

// NewMetrics registers the control-plane metric catalog on r (see
// DESIGN.md §11); r and sink may each be nil.
func NewMetrics(r *obs.Registry, sink *obs.EventSink) *Metrics {
	m := &Metrics{
		Rounds:      r.Counter("olev_sched_rounds_total"),
		Quotes:      r.Counter("olev_sched_quotes_total"),
		Proposals:   r.Counter("olev_sched_proposals_total"),
		Retries:     r.Counter("olev_sched_retries_total"),
		Stale:       r.Counter("olev_sched_stale_dropped_total"),
		Skipped:     r.Counter("olev_sched_skipped_total"),
		Departed:    r.Counter("olev_sched_departed_total"),
		Evicted:     r.Counter("olev_sched_evicted_total"),
		Joined:      r.Counter("olev_sched_joined_total"),
		Degraded:    r.Counter("olev_sched_degraded_rounds_total"),
		FeedChanges: r.Counter("olev_sched_feed_changes_total"),
		FeedHeld:    r.Counter("olev_sched_feed_held_total"),
		Outages:     r.Counter("olev_sched_outages_total"),
		Restores:    r.Counter("olev_sched_restores_total"),
		Checkpoints: r.Counter("olev_sched_checkpoints_total"),
		Failovers:   r.Counter("olev_sched_failovers_total"),

		Epoch:        r.Gauge("olev_sched_epoch"),
		LiveSections: r.Gauge("olev_sched_live_sections"),
		Delta:        r.Histogram("olev_sched_round_delta_kw", obs.ExponentialBuckets(1e-6, 10, 10)),

		DegradedEpisodes: r.Gauge("olev_agent_degraded_episodes"),
		Reconnects:       r.Gauge("olev_agent_reconnects"),
		Heartbeats:       r.Gauge("olev_agent_heartbeats"),

		Sink: sink,
	}
	r.Help("olev_sched_rounds_total", "coordinator update rounds, cumulative across failover incarnations")
	r.Help("olev_sched_epoch", "schedule version; monotone within an incarnation and fenced upward across takeover")
	return m
}

// observeRound records one completed coordinator round.
func (m *Metrics) observeRound(round int, epoch uint64, maxDelta float64, live int) {
	if m == nil {
		return
	}
	m.Rounds.Inc()
	m.Epoch.Set(float64(epoch))
	m.LiveSections.Set(float64(live))
	m.Delta.Observe(maxDelta)
}

// observeQuote records one quote frame going out; called from the
// batched rounds' collection goroutines, so atomics only.
func (m *Metrics) observeQuote(id string, round int, epoch uint64, fleet int) {
	if m == nil {
		return
	}
	m.Quotes.Inc()
	m.Sink.Emit(obs.EventQuote, id, int32(round), int32(epoch), float64(fleet))
}

// observePropose records one request installed into the schedule;
// always on Run's goroutine.
func (m *Metrics) observePropose(id string, round int, epoch uint64, totalKW float64) {
	if m == nil {
		return
	}
	m.Proposals.Inc()
	m.Sink.Emit(obs.EventPropose, id, int32(round), int32(epoch), totalKW)
}

// observeFailover records a fencing-epoch transition (takeover or
// resume) onto the shared bundle.
func (m *Metrics) observeFailover(instance string, epoch uint64) {
	if m == nil {
		return
	}
	m.Failovers.Inc()
	m.Epoch.Set(float64(epoch))
	m.Sink.Emit(obs.EventFailover, instance, -1, int32(epoch), float64(epoch))
}
