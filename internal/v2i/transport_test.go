package v2i

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDialTimeout: a dial whose context deadline has already passed
// must give up immediately instead of hanging the vehicle forever.
func TestDialTimeout(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err := Dial(ctx, "127.0.0.1:9")
	if err == nil {
		t.Fatal("dial with expired deadline succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("dial error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("dial took %v despite an expired deadline", elapsed)
	}
}

func TestDialCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Dial(ctx, "127.0.0.1:9"); err == nil {
		t.Error("dial with cancelled context succeeded")
	}
}

// TestTCPMidFrameConnectionDrop: the peer dies halfway through a
// frame; Recv must surface an error, not a truncated envelope.
func TestTCPMidFrameConnectionDrop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()

	frame, err := AppendBinaryFrame(nil, TypeQuote, "smart-grid", 1, testQuote())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Half a frame, then a hard close.
		_, _ = conn.Write(frame[:len(frame)/2])
		_ = conn.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	if _, err := client.Recv(ctx); err == nil {
		t.Error("Recv returned an envelope from a truncated frame")
	}
}

// TestTCPOversizedFrameRejectedOnRecv: a peer announcing a frame at or
// over MaxFrameBytes must be rejected with ErrFrameTooLarge, not
// buffered.
func TestTCPOversizedFrameRejectedOnRecv(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()

	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		_, _ = conn.Write(boundaryFrame(MaxFrameBytes + 1024))
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client, err := Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	_, err = client.Recv(ctx)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Recv = %v, want ErrFrameTooLarge", err)
	}
	// The stream is no longer framed: the rejection sticks instead of
	// reading payload bytes as the next length prefix.
	if _, err := client.Recv(ctx); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("second Recv = %v, want ErrFrameTooLarge again", err)
	}
}

// TestTCPOversizedFrameRejectedOnSend: the sender refuses to put an
// over-limit frame on the wire at all. The body seals (a float vector
// has no length limit of its own); only the frame bound refuses it.
func TestTCPOversizedFrameRejectedOnSend(t *testing.T) {
	client, server := net.Pipe()
	defer func() { _ = client.Close() }()
	defer func() { _ = server.Close() }()
	tr := NewConnTransport(client)

	if _, err := Seal(TypeBye, "ev", 1, &Bye{Reason: strings.Repeat("y", 1<<16)}); err == nil {
		t.Error("Seal accepted a string over the codec's 65535-byte limit")
	}
	env, err := Seal(TypeSchedule, "ev", 1, &ScheduleMsg{AllocKW: make([]float64, MaxFrameBytes/8)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := tr.Send(ctx, env); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Send = %v, want ErrFrameTooLarge", err)
	}
}

// TestJSONPeerRejectedOnFirstFrame: a connection is binary as soon as
// it is built, and a peer that writes newline-delimited JSON onto it —
// as a dialer or as a listener — is rejected on its first frame. Its
// opening `{"ty` reads as the length prefix 0x7974227B, which the
// frame bound refuses before sizing any buffer: no hang, and no
// allocation anywhere near the announced size.
func TestJSONPeerRejectedOnFirstFrame(t *testing.T) {
	line, err := jsonFrame(TypeHello, "ev-001", 1, &Hello{VehicleID: "ev-001", MaxPowerKW: 68})
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, '\n')
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// assertRejected reads the first frame off tr while the JSON peer
	// writes line into its raw end.
	assertRejected := func(t *testing.T, tr Transport, peer net.Conn) {
		t.Helper()
		if findWireStats(tr) == nil {
			t.Fatal("transport is not a connection before any frame")
		}
		go func() { _, _ = peer.Write(line) }()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tr.Recv(ctx)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("Recv of a JSON line = %v, want ErrFrameTooLarge", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("rejecting a JSON line allocated %d bytes", grew)
		}
	}

	t.Run("dialer", func(t *testing.T) {
		srv, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = srv.Close() }()
		accepted := make(chan Transport, 1)
		go func() {
			tr, _ := srv.Accept()
			accepted <- tr
		}()
		peer, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = peer.Close() }()
		tr := <-accepted
		if tr == nil {
			t.Fatal("accept failed")
		}
		defer func() { _ = tr.Close() }()
		assertRejected(t, tr, peer)
	})

	t.Run("listener", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ln.Close() }()
		accepted := make(chan net.Conn, 1)
		go func() {
			conn, _ := ln.Accept()
			accepted <- conn
		}()
		tr, err := Dial(ctx, ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tr.Close() }()
		peer := <-accepted
		if peer == nil {
			t.Fatal("accept failed")
		}
		defer func() { _ = peer.Close() }()
		assertRejected(t, tr, peer)
	})
}

// TestRecvResumesAfterMidFrameDeadline: a read deadline that fires
// partway through a frame must not desynchronise the connection. The
// next Recv completes the interrupted frame, and the one after reads
// the following frame intact.
func TestRecvResumesAfterMidFrameDeadline(t *testing.T) {
	ca, cb := net.Pipe()
	defer func() { _ = ca.Close() }()
	rx := newConnTransport(cb, Timeouts{}, pipeReaderBytes)
	defer func() { _ = rx.Close() }()

	first, err := AppendBinaryFrame(nil, TypeQuote, "grid", 1, testQuote())
	if err != nil {
		t.Fatal(err)
	}
	second, err := AppendBinaryFrame(nil, TypeBye, "grid", 2, &Bye{Reason: "done"})
	if err != nil {
		t.Fatal(err)
	}
	// 6 bytes: the whole length prefix and part of the header.
	const cut = 6
	wrote := make(chan error, 1)
	go func() {
		_, err := ca.Write(first[:cut])
		wrote <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	_, err = rx.Recv(ctx)
	cancel()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Recv of a cut frame = %v, want a deadline error", err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}

	go func() {
		_, err := ca.Write(append(bytes.Clone(first[cut:]), second...))
		wrote <- err
	}()
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	env, err := rx.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv after the deadline: %v", err)
	}
	var q Quote
	if err := Open(env, TypeQuote, &q); err != nil {
		t.Fatalf("open resumed quote: %v", err)
	}
	if env.Seq != 1 || !reflect.DeepEqual(&q, testQuote()) {
		t.Fatalf("resumed frame = seq %d %+v, want seq 1 %+v", env.Seq, q, testQuote())
	}
	env, err = rx.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv of the next frame: %v", err)
	}
	if env.Type != TypeBye || env.Seq != 2 {
		t.Fatalf("next frame = %s seq %d, want bye seq 2", env.Type, env.Seq)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if got, want := rx.BytesReceived(), uint64(len(first)+len(second)); got != want {
		t.Fatalf("BytesReceived = %d, want %d", got, want)
	}
}

// shortWriteConn accepts only the first limit bytes of its first
// Write and then fails it with a deadline error — a write deadline
// firing mid-frame — and accepts every later Write whole.
type shortWriteConn struct {
	discardConn
	limit int
	cut   bool
	buf   bytes.Buffer
}

func (c *shortWriteConn) Write(b []byte) (int, error) {
	if !c.cut {
		c.cut = true
		n := min(c.limit, len(b))
		c.buf.Write(b[:n])
		return n, os.ErrDeadlineExceeded
	}
	return c.buf.Write(b)
}

// TestSendFinishesFrameCutByDeadline: when a write deadline cuts a
// frame short, the frame's unsent tail goes out ahead of the next
// frame, so the peer still reads both whole.
func TestSendFinishesFrameCutByDeadline(t *testing.T) {
	conn := &shortWriteConn{limit: 6}
	tx := newConnTransport(conn, Timeouts{}, pipeReaderBytes)
	ctx := context.Background()
	if err := tx.SendTyped(ctx, TypeQuote, "grid", 1, testQuote()); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("cut Send = %v, want a deadline error", err)
	}
	if err := tx.SendTyped(ctx, TypeBye, "grid", 2, &Bye{Reason: "done"}); err != nil {
		t.Fatalf("Send after the cut: %v", err)
	}

	rx := newConnTransport(&replayConn{frame: conn.buf.Bytes()}, Timeouts{}, pipeReaderBytes)
	env, err := rx.Recv(ctx)
	if err != nil {
		t.Fatalf("recv cut frame: %v", err)
	}
	var q Quote
	if err := Open(env, TypeQuote, &q); err != nil || env.Seq != 1 || !reflect.DeepEqual(&q, testQuote()) {
		t.Fatalf("cut frame arrived as seq %d %+v (open err %v)", env.Seq, q, err)
	}
	env, err = rx.Recv(ctx)
	if err != nil {
		t.Fatalf("recv next frame: %v", err)
	}
	if env.Type != TypeBye || env.Seq != 2 {
		t.Fatalf("next frame = %s seq %d, want bye seq 2", env.Type, env.Seq)
	}
	if got := tx.BytesSent(); got != uint64(conn.buf.Len()) {
		t.Fatalf("BytesSent = %d, want the %d bytes written", got, conn.buf.Len())
	}
}
