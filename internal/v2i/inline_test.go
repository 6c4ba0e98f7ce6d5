package v2i

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestInlinePair drives both ends of an inline pair: the grid's Send
// runs the handler on the caller's goroutine with the caller's ctx,
// replies queue in order in a bounded inbox and overflow is dropped,
// frames after the handler stopped are swallowed, and closing either
// end closes both while the frames already queued still drain.
func TestInlinePair(t *testing.T) {
	grid, vehicle := NewInlinePair(2)
	type key struct{}
	var got []uint64
	grid.Bind(func(ctx context.Context, env Envelope) bool {
		if ctx.Value(key{}) != "caller" {
			t.Errorf("handler ran without the caller's ctx")
		}
		got = append(got, env.Seq)
		for i := 0; i < 3; i++ { // one reply more than the inbox holds
			if err := vehicle.Send(ctx, Envelope{Type: TypeRequest, Seq: env.Seq*10 + uint64(i)}); err != nil {
				t.Errorf("vehicle send: %v", err)
			}
		}
		return env.Type == TypeBye
	})
	ctx := context.WithValue(context.Background(), key{}, "caller")

	if err := grid.Send(ctx, Envelope{Type: TypeQuote, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Send returned before the handler ran: %v", got)
	}
	for _, want := range []uint64{10, 11} {
		env, err := grid.Recv(ctx)
		if err != nil || env.Seq != want {
			t.Fatalf("Recv = %d, %v; want %d", env.Seq, err, want)
		}
	}
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := grid.Recv(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Recv of the dropped third reply: %v, want DeadlineExceeded", err)
	}

	if err := grid.Send(ctx, Envelope{Type: TypeBye, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if err := grid.Send(ctx, Envelope{Type: TypeQuote, Seq: 3}); err != nil {
		t.Fatalf("Send after the handler stopped: %v, want it swallowed", err)
	}
	if len(got) != 2 {
		t.Fatalf("handler saw %v; want nothing after its Bye", got)
	}

	if err := vehicle.Close(); err != nil {
		t.Fatal(err)
	}
	if env, err := grid.Recv(ctx); err != nil || env.Seq != 20 {
		t.Fatalf("queued reply after Close: %d, %v", env.Seq, err)
	}
	_, _ = grid.Recv(ctx)
	if _, err := grid.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv on a closed, drained pair: %v", err)
	}
	if err := grid.Send(ctx, Envelope{Type: TypeQuote, Seq: 4}); !errors.Is(err, ErrClosed) {
		t.Fatalf("grid Send after Close: %v", err)
	}
	if err := vehicle.Send(ctx, Envelope{Type: TypeRequest, Seq: 5}); !errors.Is(err, ErrClosed) {
		t.Fatalf("vehicle Send after Close: %v", err)
	}
	if _, err := vehicle.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("vehicle Recv after Close: %v", err)
	}
}

// TestInlinePairUnbound: a grid end with no handler bound swallows
// what it is sent, like a link whose vehicle is not reading.
func TestInlinePairUnbound(t *testing.T) {
	grid, _ := NewInlinePair(1)
	defer grid.Close()
	if err := grid.Send(context.Background(), Envelope{Type: TypeQuote, Seq: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestInlinePairConcurrentSenders: grid-end sends from several
// goroutines at once reach the handler one at a time (its unguarded
// counter stays exact under -race), and every reply lands in the inbox.
func TestInlinePairConcurrentSenders(t *testing.T) {
	const senders, each = 4, 50
	grid, vehicle := NewInlinePair(senders * each)
	defer grid.Close()
	handled := 0
	grid.Bind(func(ctx context.Context, env Envelope) bool {
		handled++
		_ = vehicle.Send(ctx, env)
		return false
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := grid.Send(context.Background(), Envelope{Type: TypeQuote}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if handled != senders*each {
		t.Fatalf("handler ran %d times for %d sends", handled, senders*each)
	}
	for i := 0; i < senders*each; i++ {
		if _, err := grid.Recv(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
