package v2i

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"olevgrid/internal/obs"
)

// With SetMaxConns armed, Accept must pause at the limit — dialers
// wait in the kernel backlog — and resume exactly when an accepted
// transport closes.
func TestAcceptLimitPausesAndUnblocks(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	srv.SetMaxConns(2)

	var accepted atomic.Int32
	got := make(chan Transport, 3)
	go func() {
		for {
			tr, err := srv.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			got <- tr
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var clients []Transport
	for i := 0; i < 3; i++ {
		c, err := Dial(ctx, srv.Addr())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		clients = append(clients, c)
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()

	var first, second Transport
	select {
	case first = <-got:
	case <-ctx.Done():
		t.Fatal("first accept never happened")
	}
	select {
	case second = <-got:
	case <-ctx.Done():
		t.Fatal("second accept never happened")
	}
	_ = second

	// The third dialer is connected at the TCP level but must not be
	// accepted while both slots are held.
	time.Sleep(50 * time.Millisecond)
	if n := accepted.Load(); n != 2 {
		t.Fatalf("accepted %d conns at limit 2", n)
	}

	// Closing one accepted transport frees its slot; the pending accept
	// proceeds.
	if err := first.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case <-got:
	case <-ctx.Done():
		t.Fatal("accept did not unblock after a slot freed")
	}
	if n := accepted.Load(); n != 3 {
		t.Fatalf("accepted %d conns after unblock, want 3", n)
	}
}

// Double-closing a slotted transport must return its slot exactly
// once, and a closed listener still unblocks a paused Accept with a
// permanent (non-retried) error.
func TestAcceptLimitDoubleCloseAndShutdown(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMaxConns(1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	got := make(chan Transport, 1)
	errs := make(chan error, 1)
	go func() {
		for {
			tr, err := srv.Accept()
			if err != nil {
				errs <- err
				return
			}
			got <- tr
		}
	}()

	c, err := Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	var tr Transport
	select {
	case tr = <-got:
	case <-ctx.Done():
		t.Fatal("accept never happened")
	}
	// Double close: the slot must come back exactly once (a second
	// release would free a phantom slot and break the bound).
	_ = tr.Close()
	_ = tr.Close()

	// Accept is now paused waiting for a new conn; closing the listener
	// must surface a permanent error, not retry forever.
	_ = srv.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("accept after close: %v, want net.ErrClosed", err)
		}
	case <-ctx.Done():
		t.Fatal("accept did not end after listener close")
	}
}

// An accepted transport under SetMaxConns keeps the connection's typed
// send path and byte counters: a quote goes out with no allocation,
// and Instrumented counts every frame with its bytes.
func TestAcceptLimitKeepsTypedSendPath(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	srv.SetMaxConns(1)
	got := make(chan Transport, 1)
	go func() {
		tr, _ := srv.Accept()
		got <- tr
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	tr := <-got
	if tr == nil {
		t.Fatal("accept failed")
	}
	defer func() { _ = tr.Close() }()

	m := NewTransportMetrics(obs.NewRegistry())
	grid := NewInstrumented(tr, m)
	q := testQuote()
	// The 101 frames fit the loopback socket buffers, so no reader
	// runs (and allocates) while the sends are counted.
	if allocs := testing.AllocsPerRun(100, func() {
		if err := grid.SendTyped(ctx, TypeQuote, "grid", 1, q); err != nil {
			t.Fatalf("send: %v", err)
		}
	}); allocs != 0 {
		t.Errorf("accepted SendTyped allocates %v/op, want 0", allocs)
	}
	frame, err := AppendBinaryFrame(nil, TypeQuote, "grid", 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if f, n := m.FramesOnWire(), m.BytesOnWire(); f != 101 || n != uint64(101*len(frame)) {
		t.Errorf("counted %d frames, %d bytes; want 101 frames, %d bytes", f, n, 101*len(frame))
	}
	for i := 0; i < 101; i++ {
		env, err := c.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		var out Quote
		if err := Open(env, TypeQuote, &out); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
}
