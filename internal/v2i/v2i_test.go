package v2i

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSealOpenRoundTrip(t *testing.T) {
	env, err := Seal(TypeQuote, "smart-grid", 7, Quote{
		VehicleID: "ev-1",
		Others:    []float64{1, 2, 3},
		Cost:      CostSpec{Kind: "nonlinear", BetaPerKWh: 0.02, Alpha: 0.875, LineCapacityKW: 53.55},
		Round:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeQuote || env.From != "smart-grid" || env.Seq != 7 {
		t.Errorf("envelope header %+v", env)
	}
	var got Quote
	if err := Open(env, TypeQuote, &got); err != nil {
		t.Fatal(err)
	}
	if got.VehicleID != "ev-1" || len(got.Others) != 3 || got.Others[2] != 3 || got.Round != 3 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.Cost.Kind != "nonlinear" || got.Cost.Alpha != 0.875 {
		t.Errorf("cost spec mismatch: %+v", got.Cost)
	}
}

func TestOpenTypeMismatch(t *testing.T) {
	env, err := Seal(TypeBye, "x", 1, Bye{})
	if err != nil {
		t.Fatal(err)
	}
	var q Quote
	if err := Open(env, TypeQuote, &q); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestSealRejectsIntBeyondWire(t *testing.T) {
	// The wire carries ints in four bytes: one outside int32 must fail
	// to encode on either link, not arrive wrapped.
	for _, round := range []int{math.MaxInt32 + 1, math.MinInt32 - 1} {
		if _, err := Seal(TypeRequest, "ev", 1, &Request{Round: round}); err == nil {
			t.Errorf("Seal accepted round %d", round)
		}
		if _, err := AppendBinaryFrame(nil, TypeSchedule, "grid", 1, &ScheduleMsg{Round: round}); err == nil {
			t.Errorf("AppendBinaryFrame accepted round %d", round)
		}
	}
	env, err := Seal(TypeHeartbeat, "grid", 1, &Heartbeat{Round: math.MinInt32})
	if err != nil {
		t.Fatal(err)
	}
	var hb Heartbeat
	if err := Open(env, TypeHeartbeat, &hb); err != nil || hb.Round != math.MinInt32 {
		t.Errorf("MinInt32 round: got %d, %v", hb.Round, err)
	}
}

func TestSealOpenQuickProperty(t *testing.T) {
	// Any request, NaN and ±Inf included, survives both links bit-exact:
	// what an in-memory pair passes (the sealed envelope) and what a
	// connection carries (that envelope framed and decoded).
	same := func(a, b Request) bool {
		return a.VehicleID == b.VehicleID && a.Round == b.Round && a.Epoch == b.Epoch &&
			math.Float64bits(a.TotalKW) == math.Float64bits(b.TotalKW) &&
			math.Float64bits(a.DrawCapKW) == math.Float64bits(b.DrawCapKW)
	}
	f := func(id string, total, drawCap float64, round int, nonFinite uint8) bool {
		switch nonFinite % 4 {
		case 1:
			total = math.NaN()
		case 2:
			drawCap = math.Inf(1)
		case 3:
			total = math.Inf(-1)
		}
		in := Request{VehicleID: id, TotalKW: total, DrawCapKW: drawCap, Round: int(int32(round))}
		env, err := Seal(TypeRequest, id, 1, &in)
		if err != nil {
			return false
		}
		var out Request
		if err := Open(env, TypeRequest, &out); err != nil || !same(out, in) {
			return false
		}
		frame, err := EncodeBinaryFrame(nil, env)
		if err != nil {
			return false
		}
		back, err := DecodeBinaryFrame(frame)
		if err != nil || back.From != id {
			return false
		}
		out = Request{}
		return Open(back, TypeRequest, &out) == nil && same(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// benchBodies are the three hot-path messages at 24 sections with
// realistic, full-precision float values.
func benchBodies() []struct {
	typ  MessageType
	body any
	out  func() any
} {
	r := rand.New(rand.NewSource(24))
	vec := func() []float64 {
		v := make([]float64, 24)
		for i := range v {
			v[i] = r.Float64() * 40
		}
		return v
	}
	return []struct {
		typ  MessageType
		body any
		out  func() any
	}{
		{TypeQuote, &Quote{
			VehicleID: "olev-0042", Others: vec(), Round: 11, Epoch: 683, FleetSize: 60,
			Cost: CostSpec{Kind: "nonlinear", BetaPerKWh: 0.02, Alpha: 0.875, LineCapacityKW: 53.55,
				OverloadKappaPerKWh: 10, OverloadCapacityKW: 0.9 * 53.55},
		}, func() any { return new(Quote) }},
		{TypeRequest, &Request{VehicleID: "olev-0042", TotalKW: r.Float64() * 60, DrawCapKW: 2.5, Round: 11, Epoch: 683},
			func() any { return new(Request) }},
		{TypeSchedule, &ScheduleMsg{VehicleID: "olev-0042", AllocKW: vec(), PaymentH: r.Float64(), Round: 11},
			func() any { return new(ScheduleMsg) }},
	}
}

// TestSealOpenAllocs pins the sealed-body allocation budget at 24
// sections. Seal allocates only the body, sized exactly — for every
// protocol type, so its capacity equals its length. Open into a target
// it decoded into before reuses its slice storage and keeps its ID and
// Cost.Kind strings when the decoded bytes equal them, so it allocates
// nothing.
func TestSealOpenAllocs(t *testing.T) {
	for _, c := range testBodies() {
		env, err := Seal(c.typ, "smart-grid", 7, c.body)
		if err != nil {
			t.Fatal(err)
		}
		if len(env.Body) != cap(env.Body) {
			t.Errorf("Seal %s: body of %d bytes in a buffer of %d", c.typ, len(env.Body), cap(env.Body))
		}
	}
	for _, c := range benchBodies() {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := Seal(c.typ, "smart-grid", 7, c.body); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("Seal %s allocates %v/op, want 1", c.typ, allocs)
		}
		env, err := Seal(c.typ, "smart-grid", 7, c.body)
		if err != nil {
			t.Fatal(err)
		}
		out := c.out()
		if allocs := testing.AllocsPerRun(100, func() {
			if err := Open(env, c.typ, out); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Open %s allocates %v/op, want 0", c.typ, allocs)
		}
		if !reflect.DeepEqual(out, c.body) {
			t.Errorf("Open %s = %+v, want %+v", c.typ, out, c.body)
		}
	}
}

// BenchmarkSealOpen measures one Seal plus one Open into a fresh
// target per message type at 24 sections, beside the encoding/json
// round trip sealed bodies used to take.
func BenchmarkSealOpen(b *testing.B) {
	for _, c := range benchBodies() {
		b.Run(string(c.typ), func(b *testing.B) {
			b.Run("v2i", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					env, err := Seal(c.typ, "smart-grid", 7, c.body)
					if err != nil {
						b.Fatal(err)
					}
					if err := Open(env, c.typ, c.out()); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("encoding-json", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					raw, err := json.Marshal(c.body)
					if err != nil {
						b.Fatal(err)
					}
					if err := json.Unmarshal(raw, c.out()); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func TestChanPairDelivers(t *testing.T) {
	a, b := NewPair(4)
	defer func() { _ = a.Close() }()
	ctx := context.Background()

	env, err := Seal(TypeHello, "ev-1", 1, Hello{VehicleID: "ev-1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, env); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeHello || got.From != "ev-1" {
		t.Errorf("got %+v", got)
	}
}

func TestChanPairPreservesOrder(t *testing.T) {
	a, b := NewPair(16)
	defer func() { _ = a.Close() }()
	ctx := context.Background()
	for i := uint64(1); i <= 10; i++ {
		env, err := Seal(TypeRequest, "ev", i, Request{TotalKW: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Send(ctx, env); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 10; i++ {
		got, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != i {
			t.Fatalf("out of order: got seq %d, want %d", got.Seq, i)
		}
	}
}

func TestChanPairClose(t *testing.T) {
	a, b := NewPair(0)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.Send(ctx, Envelope{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
	if _, err := b.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv after close = %v, want ErrClosed", err)
	}
	// Close is idempotent and closing the peer is fine.
	if err := a.Close(); err != nil {
		t.Error(err)
	}
	if err := b.Close(); err != nil {
		t.Error(err)
	}
}

func TestChanPairDrainsInFlightAfterClose(t *testing.T) {
	a, b := NewPair(4)
	ctx := context.Background()
	env, err := Seal(TypeBye, "grid", 1, Bye{Reason: "done"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, env); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatalf("in-flight message lost: %v", err)
	}
	if got.Type != TypeBye {
		t.Errorf("got %v", got.Type)
	}
}

func TestChanPairContextCancel(t *testing.T) {
	a, _ := NewPair(0)
	defer func() { _ = a.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Recv = %v, want deadline exceeded", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		conn, err := srv.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer func() { _ = conn.Close() }()
		env, err := conn.Recv(ctx)
		if err != nil {
			serverErr = err
			return
		}
		// Echo with a bumped seq.
		env.Seq++
		serverErr = conn.Send(ctx, env)
	}()

	client, err := Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	env, err := Seal(TypeHello, "ev-9", 41, Hello{VehicleID: "ev-9", MaxPowerKW: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(ctx, env); err != nil {
		t.Fatal(err)
	}
	got, err := client.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 42 || got.From != "ev-9" {
		t.Errorf("echo = %+v", got)
	}
	var hello Hello
	if err := Open(got, TypeHello, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.MaxPowerKW != 50 {
		t.Errorf("payload corrupted: %+v", hello)
	}
	wg.Wait()
	if serverErr != nil {
		t.Fatal(serverErr)
	}
}

func TestTCPRecvDeadline(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	go func() {
		conn, err := srv.Accept()
		if err != nil {
			return
		}
		// Hold the connection open without sending.
		time.Sleep(200 * time.Millisecond)
		_ = conn.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	client, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	if _, err := client.Recv(ctx); err == nil {
		t.Error("Recv should time out")
	}
}

func TestDialFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := Dial(ctx, "127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestFaultyDropsDeterministically(t *testing.T) {
	a, b := NewPair(64)
	defer func() { _ = a.Close() }()
	lossy := NewFaulty(a, FaultConfig{DropRate: 0.5, Seed: 3})

	ctx := context.Background()
	const sends = 40
	for i := 0; i < sends; i++ {
		env, err := Seal(TypeRequest, "ev", uint64(i), Request{TotalKW: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := lossy.Send(ctx, env); err != nil {
			t.Fatal(err)
		}
	}
	dropped := lossy.Dropped()
	if dropped == 0 || dropped == sends {
		t.Errorf("dropped = %d of %d; want partial loss", dropped, sends)
	}
	// Exactly sends-dropped frames arrive.
	var received int
	for {
		ctx2, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		_, err := b.Recv(ctx2)
		cancel()
		if err != nil {
			break
		}
		received++
	}
	if received != sends-dropped {
		t.Errorf("received %d, want %d", received, sends-dropped)
	}
}

func TestFaultyDelayDelivers(t *testing.T) {
	a, b := NewPair(4)
	defer func() { _ = a.Close() }()
	lossy := NewFaulty(a, FaultConfig{MaxDelay: 10 * time.Millisecond, Seed: 1})
	ctx := context.Background()
	env, err := Seal(TypeBye, "x", 1, Bye{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lossy.Send(ctx, env); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
}
