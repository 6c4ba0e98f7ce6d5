package v2i

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"olevgrid/internal/obs"
)

// jsonEnvelope is the JSON reference the binary frame is measured
// against, and what a foreign JSON peer writes onto a connection: the
// envelope header beside the body's encoding/json text.
type jsonEnvelope struct {
	Type MessageType     `json:"type"`
	From string          `json:"from"`
	Seq  uint64          `json:"seq"`
	Body json.RawMessage `json:"body,omitempty"`
}

// jsonFrame encodes a message as a jsonEnvelope.
func jsonFrame(typ MessageType, from string, seq uint64, body any) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jsonEnvelope{Type: typ, From: from, Seq: seq, Body: raw})
}

func testQuote() *Quote {
	return &Quote{
		VehicleID: "ev-001",
		Others:    []float64{1.5, 0.25, 3.125, 0.0625},
		Cost: CostSpec{
			Kind: "nonlinear", BetaPerKWh: 0.02, Alpha: 0.875,
			LineCapacityKW: 50, OverloadKappaPerKWh: 10, OverloadCapacityKW: 45,
		},
		Round: 7, Epoch: 13, FleetSize: 4, Live: []bool{true, false, true, true},
	}
}

// testBodies pairs every protocol type with a populated body and an
// empty out-struct factory for round-trip assertions.
func testBodies() []struct {
	typ  MessageType
	body any
	out  func() any
} {
	return []struct {
		typ  MessageType
		body any
		out  func() any
	}{
		{TypeHello, &Hello{VehicleID: "ev-001", MaxPowerKW: 68, VelocityMS: 26.8, SOC: 0.41}, func() any { return new(Hello) }},
		{TypeQuote, testQuote(), func() any { return new(Quote) }},
		{TypeRequest, &Request{VehicleID: "ev-001", TotalKW: 41.5, DrawCapKW: 12, Round: 7, Epoch: 13}, func() any { return new(Request) }},
		{TypeSchedule, &ScheduleMsg{VehicleID: "ev-001", AllocKW: []float64{2, 0, 1.5}, PaymentH: 0.8125, Round: 7}, func() any { return new(ScheduleMsg) }},
		{TypeConverged, &Converged{Rounds: 11, CongestionDegree: 0.9, WelfarePerHour: 120.5}, func() any { return new(Converged) }},
		{TypeBye, &Bye{Reason: "session complete"}, func() any { return new(Bye) }},
		{TypeHeartbeat, &Heartbeat{Epoch: 9, Round: 4}, func() any { return new(Heartbeat) }},
	}
}

// TestBinaryRoundTripAllTypes pushes every protocol message through
// the typed binary path of a pipe pair and checks the
// decoded struct matches field for field.
func TestBinaryRoundTripAllTypes(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, tc := range testBodies() {
		a, b := NewPipePair()
		errc := make(chan error, 1)
		go func() { errc <- SendMsg(ctx, a, tc.typ, "grid", 42, tc.body) }()
		env, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("%s: recv: %v", tc.typ, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("%s: send: %v", tc.typ, err)
		}
		if env.Type != tc.typ || env.From != "grid" || env.Seq != 42 {
			t.Fatalf("%s: header mismatch: %+v", tc.typ, env)
		}
		out := tc.out()
		if err := Open(env, tc.typ, out); err != nil {
			t.Fatalf("%s: open: %v", tc.typ, err)
		}
		if !reflect.DeepEqual(out, tc.body) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", tc.typ, out, tc.body)
		}
		a.Close()
		b.Close()
	}
}

// TestSealedEnvelopeOverBinary sends a quote through a Faulty wrapped
// around one end of a NewPipePair — the fault injector seals every
// message — and checks the frame the far end read carries body codec
// 0: the sealed typed-binary body is forwarded verbatim, never JSON,
// and Opens to the same struct.
func TestSealedEnvelopeOverBinary(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, b := NewPipePair()
	defer a.Close()
	defer b.Close()
	f := NewFaulty(a, FaultConfig{Seed: 1})

	want := testQuote()
	errc := make(chan error, 1)
	go func() { errc <- SendMsg(ctx, f, TypeQuote, "grid", 3, want) }()
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("send: %v", err)
	}
	// The receiving decoder's scratch still holds the frame payload:
	// type code, then body codec.
	if codec := b.(*tcpTransport).dec.scratch[1]; codec != typedBodyCodec {
		t.Fatalf("frame body codec = %d, want %d (typed binary)", codec, typedBodyCodec)
	}
	var q Quote
	if err := Open(got, TypeQuote, &q); err != nil {
		t.Fatalf("open: %v", err)
	}
	if !reflect.DeepEqual(&q, want) {
		t.Fatalf("sealed-over-binary mismatch:\n got %+v\nwant %+v", &q, want)
	}
}

// TestJSONBodyHasNoFrame: a body with no fixed layout can be neither
// framed nor sealed; a frame whose body codec byte is 1 (JSON body
// bytes, no longer a codec) is rejected, and so is one whose type code
// is 0 (invalid) or 8 (the retired coalesced quote).
func TestJSONBodyHasNoFrame(t *testing.T) {
	noLayout := map[string]string{"reason": "x"}
	if _, err := AppendBinaryFrame(nil, TypeBye, "grid", 1, noLayout); err == nil {
		t.Error("AppendBinaryFrame framed a body with no binary layout")
	}
	if _, err := Seal(TypeBye, "grid", 1, noLayout); err == nil {
		t.Error("Seal sealed a body with no binary layout")
	}
	frame, err := AppendBinaryFrame(nil, TypeBye, "grid", 1, &Bye{})
	if err != nil {
		t.Fatal(err)
	}
	frame[binLenPrefix+1] = 1
	if _, err := DecodeBinaryFrame(frame); err == nil || !strings.Contains(err.Error(), "unknown body codec 1") {
		t.Errorf("decoding body codec 1 = %v, want unknown body codec", err)
	}
	for _, code := range []byte{0, 8} {
		frame[binLenPrefix], frame[binLenPrefix+1] = code, typedBodyCodec
		want := fmt.Sprintf("unknown binary message code %d", code)
		if _, err := DecodeBinaryFrame(frame); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("decoding type code %d = %v, want %s", code, err, want)
		}
	}
}

// deliveryPattern drives a seeded fault plan over a transport pair
// and records which seq numbers arrive, in order, plus the injector's
// own accounting.
func deliveryPattern(t *testing.T, cfg FaultConfig, mk func() (Transport, Transport)) (seqs []uint64, dropped, dup, reord int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, b := mk()
	f := NewFaulty(a, cfg)

	const frames = 60
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			env, err := Seal(TypeHeartbeat, "grid", uint64(i+1), &Heartbeat{Epoch: 1, Round: i})
			if err != nil {
				t.Errorf("seal: %v", err)
				return
			}
			if err := f.Send(ctx, env); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		f.Close()
	}()
	for {
		env, err := b.Recv(ctx)
		if err != nil {
			break
		}
		seqs = append(seqs, env.Seq)
	}
	<-done
	b.Close()
	return seqs, f.Dropped(), f.Duplicated(), f.Reordered()
}

// TestFaultyComposesOverBinary replays one seeded chaos plan over the
// in-memory channel pair and over a binary pipe connection: the
// delivered sequence (drops, duplicates, reorders included) must be
// identical, proving the fault plan composes unchanged with the
// binary codec.
func TestFaultyComposesOverBinary(t *testing.T) {
	cfg := FaultConfig{
		DropRate:      0.15,
		DuplicateRate: 0.15,
		ReorderRate:   0.2,
		Partitions:    []SendWindow{{From: 10, To: 14}},
		Seed:          424242,
	}
	chanSeqs, chanDrop, chanDup, chanReord := deliveryPattern(t, cfg, func() (Transport, Transport) { return NewPair(256) })
	binSeqs, binDrop, binDup, binReord := deliveryPattern(t, cfg, func() (Transport, Transport) { return NewPipePair() })

	if !reflect.DeepEqual(chanSeqs, binSeqs) {
		t.Fatalf("delivery pattern diverged:\n chan %v\n bin  %v", chanSeqs, binSeqs)
	}
	if chanDrop != binDrop || chanDup != binDup || chanReord != binReord {
		t.Fatalf("fault accounting diverged: chan=(%d,%d,%d) bin=(%d,%d,%d)",
			chanDrop, chanDup, chanReord, binDrop, binDup, binReord)
	}
	if chanDrop == 0 || chanDup == 0 || chanReord == 0 {
		t.Fatalf("fault plan too tame to prove composition: drops=%d dups=%d reorders=%d", chanDrop, chanDup, chanReord)
	}
}

// TestInstrumentedCountsBytesThroughFaulty checks the byte counters
// see through the decorator stack the deployments actually build
// (Instrumented over Faulty over a connection): every frame sent and
// received there is counted with its bytes, while an in-memory pair,
// which carries no bytes, counts none.
func TestInstrumentedCountsBytesThroughFaulty(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	exchange := func(t *testing.T, pair func() (Transport, Transport)) *TransportMetrics {
		t.Helper()
		a, b := pair()
		defer a.Close()
		defer b.Close()
		tm := NewTransportMetrics(obs.NewRegistry())
		ia := NewInstrumented(NewFaulty(a, FaultConfig{Seed: 1}), tm)
		ib := NewInstrumented(b, tm)
		errc := make(chan error, 1)
		go func() { errc <- SendMsg(ctx, ia, TypeQuote, "grid", 1, testQuote()) }()
		if _, err := ib.Recv(ctx); err != nil {
			t.Fatalf("recv: %v", err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("send: %v", err)
		}
		return tm
	}
	frame, err := AppendBinaryFrame(nil, TypeQuote, "grid", 1, testQuote())
	if err != nil {
		t.Fatal(err)
	}
	conn := exchange(t, NewPipePair)
	if f, n := conn.FramesOnWire(), conn.BytesOnWire(); f != 2 || n != uint64(2*len(frame)) {
		t.Fatalf("connection counted %d frames, %d bytes; want 2 frames, %d bytes", f, n, 2*len(frame))
	}
	mem := exchange(t, func() (Transport, Transport) { return NewPair(1) })
	if f, n := mem.FramesOnWire(), mem.BytesOnWire(); f != 0 || n != 0 {
		t.Fatalf("in-memory pair counted %d frames, %d bytes; want none", f, n)
	}
}

// TestCrossDecodeRejection: a JSON frame fed to the binary decoder
// must be rejected — deterministically, not by luck — so a codec
// mismatch can never be silently misparsed.
func TestCrossDecodeRejection(t *testing.T) {
	raw, err := jsonFrame(TypeQuote, "grid", 9, testQuote())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if _, err := DecodeBinaryFrame(raw); err == nil {
		t.Fatal("binary decoder accepted a JSON frame")
	}
}

// wireQuote is the wire gates' representative frame: a quote to
// ev-0042 carrying a C=20 background vector of full-precision floats,
// the shape that dominates a session's traffic.
func wireQuote() *Quote {
	others := make([]float64, 20)
	for i := range others {
		others[i] = 53.55 * math.Sqrt(float64(i)+2) / 3.7
	}
	return &Quote{
		VehicleID: "ev-0042", Others: others, Round: 17, Epoch: 911, FleetSize: 1000,
		Cost: CostSpec{Kind: "nonlinear", BetaPerKWh: 0.02, Alpha: 0.875,
			LineCapacityKW: 53.55, OverloadKappaPerKWh: 10, OverloadCapacityKW: 0.9 * 53.55},
	}
}

// TestBinaryCodecSpeedup gates the binary codec at 3× the JSON
// reference or better, on encode (a frame into a reused buffer vs
// json.Marshal of the envelope around the body's JSON text) and on
// decode (a frame to an opened Quote vs both json.Unmarshal steps).
// The four legs run interleaved, a fixed number of iterations per
// trial, and each keeps its best trial, so host noise hits both codecs
// alike.
func TestBinaryCodecSpeedup(t *testing.T) {
	q := wireQuote()
	jframe, err := jsonFrame(TypeQuote, "smart-grid", 7, q)
	if err != nil {
		t.Fatal(err)
	}
	bframe, err := AppendBinaryFrame(nil, TypeQuote, "smart-grid", 7, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(jframe) != 634 || len(bframe) != 270 {
		t.Fatalf("frames of %d B (JSON) and %d B (binary), want 634 and 270", len(jframe), len(bframe))
	}
	var jenv jsonEnvelope
	if err := json.Unmarshal(jframe, &jenv); err != nil {
		t.Fatal(err)
	}
	var (
		buf    []byte
		dec    FrameDecoder
		jq, bq Quote
	)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	legs := [...]func(){
		func() { _, err := json.Marshal(jenv); must(err) },
		func() { buf, err = AppendBinaryFrame(buf[:0], TypeQuote, "smart-grid", 7, q); must(err) },
		func() {
			var env jsonEnvelope
			must(json.Unmarshal(jframe, &env))
			jq = Quote{}
			must(json.Unmarshal(env.Body, &jq))
		},
		func() {
			env, err := dec.Decode(bframe)
			must(err)
			must(Open(env, TypeQuote, &bq))
		},
	}
	const trials, iters = 5, 1000
	var best [len(legs)]time.Duration
	for k := 0; k < trials; k++ {
		for i, leg := range legs {
			start := time.Now()
			for n := 0; n < iters; n++ {
				leg()
			}
			if d := time.Since(start); k == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	encode := float64(best[0]) / float64(best[1])
	decode := float64(best[2]) / float64(best[3])
	t.Logf("encode %.1fx, decode %.1fx (best of %d × %d: %v)", encode, decode, trials, iters, best)
	if encode < 3 || decode < 3 {
		t.Errorf("binary codec %.1fx on encode and %.1fx on decode, want >= 3x on both", encode, decode)
	}
}

// TestBroadcastBytes gates one round of quotes to N=1000 vehicles at
// C=20, one unicast frame each, at half the bytes of the same quotes
// as JSON reference frames or less. Both sums are pinned.
func TestBroadcastBytes(t *testing.T) {
	q := wireQuote()
	var jsonBytes, binBytes int
	var buf []byte
	for i := 0; i < 1000; i++ {
		q.VehicleID = fmt.Sprintf("ev-%04d", i)
		jframe, err := jsonFrame(TypeQuote, "smart-grid", uint64(i+1), q)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = AppendBinaryFrame(buf[:0], TypeQuote, "smart-grid", uint64(i+1), q); err != nil {
			t.Fatal(err)
		}
		jsonBytes += len(jframe)
		binBytes += len(buf)
	}
	ratio := float64(binBytes) / float64(jsonBytes)
	t.Logf("binary %d B / JSON %d B = %.4f", binBytes, jsonBytes, ratio)
	if binBytes != 270000 || jsonBytes != 635893 {
		t.Errorf("round of %d B binary, %d B JSON; want 270000 and 635893", binBytes, jsonBytes)
	}
	if ratio > 0.5 {
		t.Errorf("broadcast ratio %.4f, want <= 0.5", ratio)
	}
}

// discardConn is a net.Conn that swallows writes: the send-side
// zero-alloc harness.
type discardConn struct{}

func (discardConn) Read(b []byte) (int, error)         { return 0, errors.New("discardConn: no reads") }
func (discardConn) Write(b []byte) (int, error)        { return len(b), nil }
func (discardConn) Close() error                       { return nil }
func (discardConn) LocalAddr() net.Addr                { return nil }
func (discardConn) RemoteAddr() net.Addr               { return nil }
func (discardConn) SetDeadline(t time.Time) error      { return nil }
func (discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(t time.Time) error { return nil }

// replayConn serves one frame's bytes in a loop: the receive-side
// zero-alloc harness.
type replayConn struct {
	frame []byte
	off   int
}

func (c *replayConn) Read(b []byte) (int, error) {
	n := copy(b, c.frame[c.off:])
	c.off = (c.off + n) % len(c.frame)
	return n, nil
}
func (c *replayConn) Write(b []byte) (int, error)        { return len(b), nil }
func (c *replayConn) Close() error                       { return nil }
func (c *replayConn) LocalAddr() net.Addr                { return nil }
func (c *replayConn) RemoteAddr() net.Addr               { return nil }
func (c *replayConn) SetDeadline(t time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(t time.Time) error { return nil }

// TestBinaryCodecZeroAlloc is the wire counterpart of the solver's
// steady-state zero-alloc guards: encode into a reused buffer, decode
// into reused structs, and the full transport send/recv paths must
// all run allocation-free once warm.
func TestBinaryCodecZeroAlloc(t *testing.T) {
	ctx := context.Background()
	q := testQuote()

	// Pure encode.
	var ebuf []byte
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		ebuf, err = AppendBinaryFrame(ebuf[:0], TypeQuote, "grid", 42, q)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("encode allocates %v/op, want 0", allocs)
	}

	// Pure decode + Open into a reused struct.
	frame, err := AppendBinaryFrame(nil, TypeQuote, "grid", 42, q)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var dec FrameDecoder
	var out Quote
	if allocs := testing.AllocsPerRun(100, func() {
		env, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := Open(env, TypeQuote, &out); err != nil {
			t.Fatalf("open: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("decode+open allocates %v/op, want 0", allocs)
	}

	// Transport send path (typed).
	tx := newConnTransport(discardConn{}, Timeouts{}, pipeReaderBytes)
	defer tx.Close()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tx.SendTyped(ctx, TypeQuote, "grid", 42, q); err != nil {
			t.Fatalf("send: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("transport SendTyped allocates %v/op, want 0", allocs)
	}

	// Transport receive path.
	rx := newConnTransport(&replayConn{frame: frame}, Timeouts{}, pipeReaderBytes)
	defer rx.Close()
	if allocs := testing.AllocsPerRun(100, func() {
		env, err := rx.Recv(ctx)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if err := Open(env, TypeQuote, &out); err != nil {
			t.Fatalf("open: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("transport Recv allocates %v/op, want 0", allocs)
	}
}

// TestInstrumentedBinaryZeroAlloc is the conformance guard for the
// wire counters: an armed metrics bundle must not cost the binary path
// a single allocation in either direction, and it counts every frame
// and byte that crossed the connection.
func TestInstrumentedBinaryZeroAlloc(t *testing.T) {
	ctx := context.Background()
	q := testQuote()
	reg := obs.NewRegistry()
	m := NewTransportMetrics(reg)

	tx := NewInstrumented(newConnTransport(discardConn{}, Timeouts{}, pipeReaderBytes), m)
	defer tx.Close()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tx.SendTyped(ctx, TypeQuote, "grid", 42, q); err != nil {
			t.Fatalf("send: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("armed SendTyped allocates %v/op, want 0", allocs)
	}

	frame, err := AppendBinaryFrame(nil, TypeQuote, "grid", 42, q)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	rx := NewInstrumented(newConnTransport(&replayConn{frame: frame}, Timeouts{}, pipeReaderBytes), m)
	defer rx.Close()
	var out Quote
	if allocs := testing.AllocsPerRun(100, func() {
		env, err := rx.Recv(ctx)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if err := Open(env, TypeQuote, &out); err != nil {
			t.Fatalf("open: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("armed Recv allocates %v/op, want 0", allocs)
	}

	// AllocsPerRun(100, ...) makes 101 calls, one of them a warm-up,
	// in each direction.
	if got := m.FramesOnWire(); got != 2*101 {
		t.Fatalf("wire frame counter = %d, want %d", got, 2*101)
	}
	if got, want := m.BytesOnWire(), uint64(2*101*len(frame)); got != want {
		t.Fatalf("wire byte counter = %d, want %d", got, want)
	}

	// An in-memory link moves no bytes and leaves the wire counters alone.
	ca, cb := NewPair(1)
	defer ca.Close()
	defer cb.Close()
	if err := SendMsg(ctx, NewInstrumented(ca, m), TypeQuote, "grid", 43, q); err != nil {
		t.Fatalf("send: %v", err)
	}
	if got := m.FramesOnWire(); got != 2*101 {
		t.Fatalf("in-memory send moved the wire frame counter to %d", got)
	}
}
