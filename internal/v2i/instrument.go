package v2i

import (
	"context"

	"olevgrid/internal/obs"
)

// TransportMetrics counts frames crossing an instrumented transport,
// split by direction and message type. Counters are per-type so the
// exposition shows the protocol mix (quotes vs requests vs control
// frames); errors are lumped per direction. Frames and bytes that
// cross a connection are also counted in total; in-memory links carry
// no bytes and leave those two counters alone. Nil is the off switch.
type TransportMetrics struct {
	sent      map[MessageType]*obs.Counter
	received  map[MessageType]*obs.Counter
	sentOther *obs.Counter // types outside the protocol set
	recvOther *obs.Counter
	SendErrs  *obs.Counter
	RecvErrs  *obs.Counter

	// Connection frames and bytes, both directions.
	wireFrames *obs.Counter
	wireBytes  *obs.Counter
}

// knownTypes is the closed protocol set the per-type counters cover.
var knownTypes = []MessageType{
	TypeHello, TypeQuote, TypeRequest, TypeSchedule,
	TypeConverged, TypeBye, TypeHeartbeat,
}

// NewTransportMetrics registers the frame counters on r; r may be nil.
func NewTransportMetrics(r *obs.Registry) *TransportMetrics {
	m := &TransportMetrics{
		sent:      make(map[MessageType]*obs.Counter, len(knownTypes)),
		received:  make(map[MessageType]*obs.Counter, len(knownTypes)),
		sentOther: r.Counter("olev_v2i_frames_sent_total", obs.Label{Key: "type", Value: "other"}),
		recvOther: r.Counter("olev_v2i_frames_received_total", obs.Label{Key: "type", Value: "other"}),
		SendErrs:  r.Counter("olev_v2i_send_errors_total"),
		RecvErrs:  r.Counter("olev_v2i_recv_errors_total"),

		wireFrames: r.Counter("olev_v2i_frames_total"),
		wireBytes:  r.Counter("olev_v2i_bytes_total"),
	}
	for _, t := range knownTypes {
		m.sent[t] = r.Counter("olev_v2i_frames_sent_total", obs.Label{Key: "type", Value: string(t)})
		m.received[t] = r.Counter("olev_v2i_frames_received_total", obs.Label{Key: "type", Value: string(t)})
	}
	return m
}

// Sent returns the sent-frame count for one message type.
func (m *TransportMetrics) Sent(t MessageType) uint64 {
	if m == nil {
		return 0
	}
	if c, ok := m.sent[t]; ok {
		return c.Value()
	}
	return m.sentOther.Value()
}

// Received returns the received-frame count for one message type.
func (m *TransportMetrics) Received(t MessageType) uint64 {
	if m == nil {
		return 0
	}
	if c, ok := m.received[t]; ok {
		return c.Value()
	}
	return m.recvOther.Value()
}

// FramesOnWire returns the number of frames (both directions) that
// crossed a connection.
func (m *TransportMetrics) FramesOnWire() uint64 {
	if m == nil {
		return 0
	}
	return m.wireFrames.Value()
}

// BytesOnWire returns the number of frame bytes (both directions),
// length prefixes included, that crossed a connection.
func (m *TransportMetrics) BytesOnWire() uint64 {
	if m == nil {
		return 0
	}
	return m.wireBytes.Value()
}

// wireStats is the byte accounting surface a connection-backed
// transport exposes for the wire counters.
type wireStats interface {
	BytesSent() uint64
	BytesReceived() uint64
}

// findWireStats walks the Unwrap chain to the connection transport,
// if any.
func findWireStats(t Transport) wireStats {
	for t != nil {
		if ws, ok := t.(wireStats); ok {
			return ws
		}
		u, ok := t.(Unwrapper)
		if !ok {
			return nil
		}
		t = u.Unwrap()
	}
	return nil
}

// Instrumented wraps any Transport with frame accounting. It forwards
// every call unchanged — ordering, blocking, and errors are the inner
// transport's — so wrapping is invisible to the protocol; the chaos
// suite stacks it under Faulty without perturbing the fault plan.
type Instrumented struct {
	inner Transport
	m     *TransportMetrics

	// ws is the underlying connection's byte accounting, found
	// once at construction. prevSent/prevRecv turn its cumulative byte
	// counters into per-frame deltas; they are guarded by the
	// Transport contract (one concurrent sender, one receiver), not a
	// lock.
	ws       wireStats
	prevSent uint64
	prevRecv uint64
}

var _ TypedSender = (*Instrumented)(nil)

// NewInstrumented wraps t; a nil metrics bundle yields a transparent
// pass-through.
func NewInstrumented(t Transport, m *TransportMetrics) *Instrumented {
	return &Instrumented{inner: t, m: m, ws: findWireStats(t)}
}

// Unwrap exposes the wrapped transport to findWireStats.
func (i *Instrumented) Unwrap() Transport { return i.inner }

// countSentWire counts one successful send that crossed a connection.
func (i *Instrumented) countSentWire() {
	if i.ws == nil {
		return
	}
	s := i.ws.BytesSent()
	d := s - i.prevSent
	i.prevSent = s
	i.m.wireFrames.Inc()
	i.m.wireBytes.Add(int64(d))
}

// countRecvWire is the receive-side counterpart of countSentWire.
func (i *Instrumented) countRecvWire() {
	if i.ws == nil {
		return
	}
	s := i.ws.BytesReceived()
	d := s - i.prevRecv
	i.prevRecv = s
	i.m.wireFrames.Inc()
	i.m.wireBytes.Add(int64(d))
}

// Send implements Transport.
func (i *Instrumented) Send(ctx context.Context, env Envelope) error {
	err := i.inner.Send(ctx, env)
	if i.m == nil {
		return err
	}
	if err != nil {
		i.m.SendErrs.Inc()
		return err
	}
	if c, ok := i.m.sent[env.Type]; ok {
		c.Inc()
	} else {
		i.m.sentOther.Inc()
	}
	i.countSentWire()
	return nil
}

// SendTyped implements TypedSender, forwarding the typed path when
// the wrapped transport offers it so instrumentation does not cost
// the zero-alloc send its zero.
func (i *Instrumented) SendTyped(ctx context.Context, typ MessageType, from string, seq uint64, body any) error {
	var err error
	if ts, ok := i.inner.(TypedSender); ok {
		err = ts.SendTyped(ctx, typ, from, seq, body)
	} else {
		var env Envelope
		env, err = Seal(typ, from, seq, body)
		if err == nil {
			err = i.inner.Send(ctx, env)
		}
	}
	if i.m == nil {
		return err
	}
	if err != nil {
		i.m.SendErrs.Inc()
		return err
	}
	if c, ok := i.m.sent[typ]; ok {
		c.Inc()
	} else {
		i.m.sentOther.Inc()
	}
	i.countSentWire()
	return nil
}

// Recv implements Transport.
func (i *Instrumented) Recv(ctx context.Context) (Envelope, error) {
	env, err := i.inner.Recv(ctx)
	if i.m == nil {
		return env, err
	}
	if err != nil {
		i.m.RecvErrs.Inc()
		return env, err
	}
	if c, ok := i.m.received[env.Type]; ok {
		c.Inc()
	} else {
		i.m.recvOther.Inc()
	}
	i.countRecvWire()
	return env, err
}

// Close implements Transport.
func (i *Instrumented) Close() error { return i.inner.Close() }
