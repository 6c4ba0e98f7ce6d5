package v2i

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("v2i: transport closed")

// MaxFrameBytes bounds one binary frame's payload (the bytes after its
// length prefix). A peer announcing a larger frame would otherwise
// make the receiver allocate whatever it claims; frames at or above
// this size are rejected on both the send and receive side, before
// any payload buffer is sized.
const MaxFrameBytes = 256 << 10

// ErrFrameTooLarge is returned when a frame exceeds MaxFrameBytes.
// After a receive-side rejection the stream is no longer framed: every
// later Recv on the transport fails with the same error, and the
// connection should be closed.
var ErrFrameTooLarge = errors.New("v2i: frame exceeds MaxFrameBytes")

// Transport is a bidirectional, ordered message channel between one
// OLEV and the smart grid. Implementations must be safe for one
// concurrent sender and one concurrent receiver.
type Transport interface {
	// Send delivers an envelope or fails with the context's error or
	// ErrClosed.
	Send(ctx context.Context, env Envelope) error
	// Recv blocks for the next envelope.
	Recv(ctx context.Context) (Envelope, error)
	// Close releases the transport; pending and future calls fail.
	Close() error
}

// chanTransport is one end of an in-memory pair.
type chanTransport struct {
	out  chan Envelope
	in   chan Envelope
	done chan struct{}
	once *sync.Once
}

var _ Transport = (*chanTransport)(nil)

// NewPair returns two connected in-memory transports: what one sends,
// the other receives. buffer sizes the channel; 0 gives rendezvous
// semantics.
func NewPair(buffer int) (Transport, Transport) {
	if buffer < 0 {
		buffer = 0
	}
	ab := make(chan Envelope, buffer)
	ba := make(chan Envelope, buffer)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &chanTransport{out: ab, in: ba, done: done, once: once}
	b := &chanTransport{out: ba, in: ab, done: done, once: once}
	return a, b
}

// Send implements Transport.
func (t *chanTransport) Send(ctx context.Context, env Envelope) error {
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	select {
	case t.out <- env:
		return nil
	case <-t.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Recv implements Transport.
func (t *chanTransport) Recv(ctx context.Context) (Envelope, error) {
	// Drain messages that were in flight even if the pair has been
	// closed since.
	select {
	case env := <-t.in:
		return env, nil
	default:
	}
	select {
	case env := <-t.in:
		return env, nil
	case <-t.done:
		return Envelope{}, ErrClosed
	case <-ctx.Done():
		return Envelope{}, ctx.Err()
	}
}

// Close implements Transport; closing either end closes the pair.
func (t *chanTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}

// Timeouts bounds a connection-backed transport's blocking operations
// when the caller's context carries no deadline of its own. They are
// the control plane's guard against a hung peer: a coordinator round
// can never block indefinitely on one stalled socket. Zero fields
// leave the corresponding operation bounded only by its context.
type Timeouts struct {
	// Dial bounds connection establishment.
	Dial time.Duration
	// Read bounds one Recv; the effective deadline is the earlier of
	// this and the context's.
	Read time.Duration
	// Write bounds one Send; the effective deadline is the earlier of
	// this and the context's.
	Write time.Duration
}

// DefaultTimeouts is a sane deployment default: generous enough for a
// congested 802.11p hop, tight enough that a dead peer is detected
// within one coordinator round.
func DefaultTimeouts() Timeouts {
	return Timeouts{Dial: 5 * time.Second, Read: 10 * time.Second, Write: 5 * time.Second}
}

// connReaderBytes sizes the per-connection read buffer. Frames longer
// than the buffer are still accepted up to MaxFrameBytes — the payload
// reads into the decoder's scratch — so this is a working-set knob,
// not a protocol bound: 32 KiB per connection keeps thousand-vehicle
// fleets cheap.
const connReaderBytes = 32 << 10

// pipeReaderBytes sizes readers over in-memory pipes, where there is
// no syscall to amortize.
const pipeReaderBytes = 4 << 10

// tcpTransport frames envelopes over a net.Conn with the
// length-prefixed binary codec, from the first byte in each direction.
type tcpTransport struct {
	conn net.Conn
	r    *bufio.Reader
	to   Timeouts

	// Send-side state, guarded by sendMu: ebuf backs frame encoding,
	// tail holds the unsent rest of a frame whose write was cut short
	// (a deadline fired mid-frame). The tail goes out ahead of the next
	// frame so the peer's length prefixes stay aligned.
	sendMu sync.Mutex
	ebuf   []byte
	tail   []byte

	// Recv-side state, guarded by recvMu: dec holds the binary decoder
	// state, including its progress through a partly read frame.
	recvMu sync.Mutex
	dec    FrameDecoder

	bytesSent atomic.Uint64
	bytesRecv atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

var (
	_ Transport   = (*tcpTransport)(nil)
	_ TypedSender = (*tcpTransport)(nil)
)

func newConnTransport(conn net.Conn, to Timeouts, readerBytes int) *tcpTransport {
	return &tcpTransport{conn: conn, r: bufio.NewReaderSize(conn, readerBytes), to: to}
}

// NewConnTransport wraps an established connection in the binary
// framing.
func NewConnTransport(conn net.Conn) Transport {
	return newConnTransport(conn, Timeouts{}, connReaderBytes)
}

// NewConnTransportTimeouts wraps an established connection with
// default read/write deadlines applied whenever the caller's context
// carries none.
func NewConnTransportTimeouts(conn net.Conn, to Timeouts) Transport {
	return newConnTransport(conn, to, connReaderBytes)
}

// Dial connects to a listening smart grid.
func Dial(ctx context.Context, addr string) (Transport, error) {
	return DialTimeouts(ctx, addr, Timeouts{})
}

// DialTimeouts connects with a bounded dial and arms the returned
// transport with default read/write deadlines (see Timeouts).
func DialTimeouts(ctx context.Context, addr string, to Timeouts) (Transport, error) {
	d := net.Dialer{Timeout: to.Dial}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("v2i: dial %s: %w", addr, err)
	}
	return newConnTransport(conn, to, connReaderBytes), nil
}

// NewPipePair returns two connected transports over an in-memory
// net.Pipe. Unlike NewPair — which moves Envelope values through a
// channel — frames here really encode and decode, so in-process
// fleets exercise the same codec hot path as TCP deployments without
// consuming file descriptors.
func NewPipePair() (Transport, Transport) {
	ca, cb := net.Pipe()
	return newConnTransport(ca, Timeouts{}, pipeReaderBytes), newConnTransport(cb, Timeouts{}, pipeReaderBytes)
}

// deadlineFor resolves the effective deadline of one operation: the
// earlier of the context's deadline and now+fallback. The zero time
// means unbounded — and must be *applied* to clear any deadline a
// previous call armed on the shared conn.
func deadlineFor(ctx context.Context, fallback time.Duration) time.Time {
	dl, ok := ctx.Deadline()
	if fallback > 0 {
		if fdl := time.Now().Add(fallback); !ok || fdl.Before(dl) {
			return fdl
		}
	}
	if !ok {
		return time.Time{}
	}
	return dl
}

// BytesSent reports cumulative frame bytes written, length prefixes
// included.
func (t *tcpTransport) BytesSent() uint64 { return t.bytesSent.Load() }

// BytesReceived is the receive-side counterpart of BytesSent.
func (t *tcpTransport) BytesReceived() uint64 { return t.bytesRecv.Load() }

// writeLocked writes one frame, first finishing any frame an earlier
// write left half sent. A write that fails after putting part of the
// frame on the wire keeps the rest as the tail: dropping it would
// leave the peer reading the next frame's bytes as this one's payload.
func (t *tcpTransport) writeLocked(frame []byte) error {
	if len(t.tail) > 0 {
		n, err := t.conn.Write(t.tail)
		t.bytesSent.Add(uint64(n))
		t.tail = t.tail[n:]
		if err != nil {
			return fmt.Errorf("v2i: write: %w", err)
		}
	}
	n, err := t.conn.Write(frame)
	t.bytesSent.Add(uint64(n))
	if err != nil {
		if n > 0 && n < len(frame) {
			t.tail = append(t.tail[:0], frame[n:]...)
		}
		return fmt.Errorf("v2i: write: %w", err)
	}
	return nil
}

// Send implements Transport. The effective write deadline is the
// earlier of the context's deadline and the transport's Write timeout.
func (t *tcpTransport) Send(ctx context.Context, env Envelope) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := t.conn.SetWriteDeadline(deadlineFor(ctx, t.to.Write)); err != nil {
		return fmt.Errorf("v2i: set write deadline: %w", err)
	}
	buf, err := EncodeBinaryFrame(t.ebuf[:0], env)
	if err != nil {
		return err
	}
	t.ebuf = buf[:0]
	return t.writeLocked(buf)
}

// SendTyped implements TypedSender: the body encodes straight into the
// reused frame buffer with zero allocations.
func (t *tcpTransport) SendTyped(ctx context.Context, typ MessageType, from string, seq uint64, body any) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := t.conn.SetWriteDeadline(deadlineFor(ctx, t.to.Write)); err != nil {
		return fmt.Errorf("v2i: set write deadline: %w", err)
	}
	buf, err := AppendBinaryFrame(t.ebuf[:0], typ, from, seq, body)
	if err != nil {
		return err
	}
	t.ebuf = buf[:0]
	return t.writeLocked(buf)
}

// Recv implements Transport. The effective read deadline is the
// earlier of the context's deadline and the transport's Read timeout.
// A deadline that fires mid-frame keeps the bytes read so far, and the
// next Recv completes that frame. The returned Envelope's Body may
// alias per-transport receive state; it is valid until the next Recv
// on this transport.
func (t *tcpTransport) Recv(ctx context.Context) (Envelope, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if err := ctx.Err(); err != nil {
		return Envelope{}, err
	}
	if err := t.conn.SetReadDeadline(deadlineFor(ctx, t.to.Read)); err != nil {
		return Envelope{}, fmt.Errorf("v2i: set read deadline: %w", err)
	}
	n, err := t.dec.readFrom(t.r)
	t.bytesRecv.Add(uint64(n))
	if err != nil {
		return Envelope{}, err
	}
	return t.dec.parsePayload(t.dec.scratch)
}

// Close implements Transport.
func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() { t.closeErr = t.conn.Close() })
	return t.closeErr
}

// Server accepts V2I connections for the smart grid.
type Server struct {
	ln net.Listener
	// ConnTimeouts, when non-zero, arms every accepted transport with
	// default read/write deadlines; set it before the accept loop
	// starts. A hung vehicle then times out instead of pinning a
	// coordinator goroutine forever.
	ConnTimeouts Timeouts

	// slots, when non-nil, is the accept-side admission semaphore:
	// Accept takes a slot before accepting and each accepted
	// transport's Close returns it. See SetMaxConns.
	slots chan struct{}
}

// Listen opens a TCP listener on addr ("127.0.0.1:0" for an ephemeral
// test port).
func Listen(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("v2i: listen %s: %w", addr, err)
	}
	return &Server{ln: ln}, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetMaxConns bounds the number of concurrently open accepted
// transports. At the limit Accept pauses — the flood waits in the
// kernel backlog instead of exhausting file descriptors — and resumes
// as soon as an accepted transport is closed. Zero or negative removes
// the limit. Set it before the accept loop starts; it is not safe to
// change while Accept is running.
func (s *Server) SetMaxConns(n int) {
	if n <= 0 {
		s.slots = nil
		return
	}
	s.slots = make(chan struct{}, n)
}

// acceptBackoff bounds the retry backoff applied when the listener
// reports a temporary error (EMFILE, ECONNABORTED under a SYN flood):
// the accept loop degrades to a slower accept rate instead of tearing
// the daemon down.
const (
	acceptBackoffBase = 5 * time.Millisecond
	acceptBackoffMax  = time.Second
)

// Accept blocks for the next vehicle connection. With a MaxConns
// limit armed it first waits for a free connection slot; temporary
// listener errors are retried with exponential backoff rather than
// surfaced, so a connection flood degrades service instead of ending
// the accept loop.
func (s *Server) Accept() (Transport, error) {
	if s.slots != nil {
		s.slots <- struct{}{} // accept-pause until a slot frees up
	}
	backoff := acceptBackoffBase
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if isTemporary(err) {
				time.Sleep(backoff)
				if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				continue
			}
			if s.slots != nil {
				<-s.slots
			}
			return nil, fmt.Errorf("v2i: accept: %w", err)
		}
		t := newConnTransport(conn, s.ConnTimeouts, connReaderBytes)
		if s.slots != nil {
			return &slottedTransport{tcpTransport: t, slots: s.slots}, nil
		}
		return t, nil
	}
}

// isTemporary reports whether an accept error is transient. The
// Temporary method is deprecated for general errors but remains the
// documented contract for listener errors like ECONNABORTED.
func isTemporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// slottedTransport returns its accept slot exactly once on Close.
// Embedding the connection promotes its typed send path and byte
// counters.
type slottedTransport struct {
	*tcpTransport
	slots chan struct{}
	once  sync.Once
}

func (t *slottedTransport) Close() error {
	err := t.tcpTransport.Close()
	t.once.Do(func() { <-t.slots })
	return err
}

// Close stops the listener.
func (s *Server) Close() error { return s.ln.Close() }
