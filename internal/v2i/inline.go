package v2i

import (
	"context"
	"sync"
)

// Handler acts on one frame an inline link delivers to its vehicle. It
// runs on the goroutine that sent the frame, under that sender's ctx
// and the link's lock, and returns true once the vehicle wants no more
// frames. It answers through the vehicle end only: a send through the
// grid end from inside the handler would wait on the lock it holds.
type Handler func(ctx context.Context, env Envelope) (stop bool)

// InlineGrid is the grid end of an inline pair (see NewInlinePair).
type InlineGrid struct {
	// mu serializes the handler: one frame at a time, whichever
	// goroutine sends it.
	mu      sync.Mutex
	handler Handler
	stopped bool

	inbox chan Envelope
	done  chan struct{}
	once  sync.Once
}

// inlineVehicle is the vehicle end of an inline pair.
type inlineVehicle struct{ g *InlineGrid }

var (
	_ Transport = (*InlineGrid)(nil)
	_ Transport = inlineVehicle{}
)

// NewInlinePair returns the two ends of an in-process link with no
// goroutine behind its vehicle. The grid end's Send runs the handler
// bound with Bind on the sending goroutine; what the handler sends back
// through the vehicle end lands in the grid end's inbox, which holds
// up to inbox frames. The vehicle end's Send never blocks, because it
// runs on the grid's goroutine: a frame that finds the inbox full is
// dropped, as a lossy link would drop it.
func NewInlinePair(inbox int) (*InlineGrid, Transport) {
	if inbox < 1 {
		inbox = 1
	}
	g := &InlineGrid{inbox: make(chan Envelope, inbox), done: make(chan struct{})}
	return g, inlineVehicle{g}
}

// Bind sets the handler the grid end's Send delivers to. Frames sent
// before Bind, or after the handler stopped, are swallowed, as a
// buffered link to a vehicle that is not reading swallows them.
func (g *InlineGrid) Bind(h Handler) {
	g.mu.Lock()
	g.handler = h
	g.mu.Unlock()
}

func (g *InlineGrid) closed() bool {
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

// Send implements Transport by handing the frame to the vehicle's
// handler, under ctx, before it returns.
func (g *InlineGrid) Send(ctx context.Context, env Envelope) error {
	if g.closed() {
		return ErrClosed
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.handler != nil && !g.stopped {
		g.stopped = g.handler(ctx, env)
	}
	return nil
}

// Recv implements Transport: the next frame the vehicle sent, in order.
func (g *InlineGrid) Recv(ctx context.Context) (Envelope, error) {
	// A frame already waiting is returned even if the pair has been
	// closed since, as NewPair does.
	select {
	case env := <-g.inbox:
		return env, nil
	default:
	}
	select {
	case env := <-g.inbox:
		return env, nil
	case <-g.done:
		return Envelope{}, ErrClosed
	case <-ctx.Done():
		return Envelope{}, ctx.Err()
	}
}

// Close implements Transport; closing either end closes the pair.
func (g *InlineGrid) Close() error {
	g.once.Do(func() { close(g.done) })
	return nil
}

// Send implements Transport by queueing the frame in the grid end's
// inbox without blocking.
func (v inlineVehicle) Send(_ context.Context, env Envelope) error {
	if v.g.closed() {
		return ErrClosed
	}
	select {
	case v.g.inbox <- env:
	default: // full: the frame is lost
	}
	return nil
}

// Recv implements Transport. Grid frames reach the vehicle through its
// handler, never here, so Recv only waits for the pair or ctx to end.
func (v inlineVehicle) Recv(ctx context.Context) (Envelope, error) {
	select {
	case <-v.g.done:
		return Envelope{}, ErrClosed
	case <-ctx.Done():
		return Envelope{}, ctx.Err()
	}
}

// Close implements Transport; closing either end closes the pair.
func (v inlineVehicle) Close() error { return v.g.Close() }
