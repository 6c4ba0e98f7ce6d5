package v2i

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// binarySeed encodes a typed message as a complete binary frame for
// the fuzz corpus.
func binarySeed(f *testing.F, typ MessageType, body any) []byte {
	f.Helper()
	frame, err := AppendBinaryFrame(nil, typ, "grid", 7, body)
	if err != nil {
		f.Fatalf("encode %s: %v", typ, err)
	}
	return frame
}

// boundaryFrame builds a binary hello frame whose payload is exactly
// size bytes, padding a JSON-codec body; unlike EncodeBinaryFrame it
// does not refuse sizes at or over MaxFrameBytes.
func boundaryFrame(size int) []byte {
	frame, err := EncodeBinaryFrame(nil, Envelope{Type: TypeHello, From: "grid", Seq: 1})
	if err != nil {
		panic(err)
	}
	frame = append(frame, bytes.Repeat([]byte{'a'}, size-(len(frame)-binLenPrefix))...)
	binary.LittleEndian.PutUint32(frame, uint32(size))
	return frame
}

// FuzzDecodeBinaryFrame drives the binary frame decoder with encoded
// frames of every protocol type, truncated/corrupted variants,
// length-prefix boundary cases, frames straddling MaxFrameBytes, and
// raw JSON frames (the cross-codec case). Invariants: the decoder
// never panics; a payload of MaxFrameBytes or more is always
// ErrFrameTooLarge; an accepted frame re-encodes byte-identically from
// its parsed Envelope; and an accepted typed-binary body that Opens
// cleanly re-encodes to the exact same frame through the typed path —
// the codec is bijective on everything it accepts.
func FuzzDecodeBinaryFrame(f *testing.F) {
	for _, tc := range []struct {
		typ  MessageType
		body any
	}{
		{TypeHello, &Hello{VehicleID: "olev-01", MaxPowerKW: 68, VelocityMS: 26.8, SOC: 0.4}},
		{TypeQuote, &Quote{
			VehicleID: "olev-01", Others: []float64{1.5, 0, 3.25}, Round: 2, Epoch: 9,
			Cost: CostSpec{Kind: "nonlinear", BetaPerKWh: 0.02, Alpha: 0.875, LineCapacityKW: 50},
			Live: []bool{true, false, true},
		}},
		{TypeQuoteBatch, &QuoteBatch{
			Round: 2, Epoch: 9, FleetSize: 3,
			Cost:   CostSpec{Kind: "nonlinear", BetaPerKWh: 0.02},
			Totals: []float64{4.5, 2, 0.25}, Own: []float64{1, 0, 0.25},
		}},
		{TypeRequest, &Request{VehicleID: "olev-01", TotalKW: 41.5, DrawCapKW: 12, Round: 2, Epoch: 9, OwnKWSum: 1.25}},
		{TypeSchedule, &ScheduleMsg{VehicleID: "olev-01", AllocKW: []float64{2, 0, 1}, PaymentH: 0.8, Round: 2}},
		{TypeConverged, &Converged{Rounds: 11, CongestionDegree: 0.9, WelfarePerHour: 120}},
		{TypeBye, &Bye{Reason: "session complete"}},
		{TypeHeartbeat, &Heartbeat{Epoch: 3, Round: 1}},
	} {
		f.Add(binarySeed(f, tc.typ, tc.body))
	}

	// A sealed envelope riding binary (JSON body inside the frame).
	env, err := Seal(TypeQuote, "grid", 3, &Quote{VehicleID: "olev-02", Others: []float64{4, 4}})
	if err != nil {
		f.Fatalf("seal: %v", err)
	}
	sealed, err := EncodeBinaryFrame(nil, env)
	if err != nil {
		f.Fatalf("encode sealed: %v", err)
	}
	f.Add(sealed)

	// Truncations, corruption, boundary length prefixes, and a JSON
	// frame for the cross-decode case.
	quote := binarySeed(f, TypeQuote, &Quote{VehicleID: "olev-03", Others: []float64{1, 2, 3, 4}})
	f.Add(quote[:len(quote)/2])
	f.Add(quote[:binLenPrefix])
	flipped := bytes.Clone(quote)
	flipped[len(flipped)/3] ^= 0x5a
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(append([]byte{12, 0, 0, 0}, make([]byte, 12)...)) // min payload, all zero
	f.Add(append([]byte{255, 255, 255, 255}, quote...))     // absurd length prefix
	f.Add([]byte(`{"type":"hello","from":"olev-01","seq":1}` + "\n"))

	// MaxFrameBytes boundaries: one byte under (accepted), exactly at
	// (rejected), and over (rejected).
	f.Add(boundaryFrame(MaxFrameBytes - 1))
	f.Add(boundaryFrame(MaxFrameBytes))
	f.Add(boundaryFrame(MaxFrameBytes + 17))

	f.Fuzz(func(t *testing.T, frame []byte) {
		var dec FrameDecoder
		got, err := dec.Decode(bytes.Clone(frame))
		if n := len(frame) - binLenPrefix; n >= MaxFrameBytes && int(binary.LittleEndian.Uint32(frame)) == n &&
			!errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("payload of %d bytes decoded without ErrFrameTooLarge (err=%v)", n, err)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Re-encoding the parsed envelope must reproduce the frame
		// byte for byte.
		reenc, err := EncodeBinaryFrame(nil, got)
		if err != nil {
			t.Fatalf("re-encode accepted frame: %v", err)
		}
		if !bytes.Equal(reenc, frame) {
			t.Fatalf("envelope re-encode mismatch:\n in  %x\n out %x", frame, reenc)
		}
		if !got.bodyBin {
			return
		}
		// Typed bodies that parse must round-trip through the typed
		// encoder to the identical frame (fixed layouts are bijective).
		out := newBodyFor(got.Type)
		if err := Open(got, got.Type, out); err != nil {
			return // truncated/overlong bodies may fail to open
		}
		typed, err := AppendBinaryFrame(nil, got.Type, got.From, got.Seq, out)
		if err != nil {
			t.Fatalf("typed re-encode: %v", err)
		}
		if !bytes.Equal(typed, frame) {
			t.Fatalf("typed re-encode mismatch for %s:\n in  %x\n out %x", got.Type, frame, typed)
		}
	})
}

func newBodyFor(typ MessageType) any {
	switch typ {
	case TypeHello:
		return new(Hello)
	case TypeQuote:
		return new(Quote)
	case TypeQuoteBatch:
		return new(QuoteBatch)
	case TypeRequest:
		return new(Request)
	case TypeSchedule:
		return new(ScheduleMsg)
	case TypeConverged:
		return new(Converged)
	case TypeBye:
		return new(Bye)
	case TypeHeartbeat:
		return new(Heartbeat)
	}
	return new(json.RawMessage)
}

// FuzzWireEquivalence builds a Quote, a Request, and a ScheduleMsg
// from fuzzed inputs and pushes each through both wires end to end:
// what an in-memory link carries (Seal → Open of the JSON-body
// Envelope) and what a connection carries (AppendBinaryFrame →
// DecodeBinaryFrame → Open). The decoded structs must match field for
// field — the two wires are interchangeable representations of the
// same protocol.
func FuzzWireEquivalence(f *testing.F) {
	f.Add("grid", "ev-001", uint64(7), int64(42), 3, uint64(9), []byte{1, 2, 3, 200})
	f.Add("", "", uint64(0), int64(0), 0, uint64(0), []byte{})
	f.Add("coord-a", "olev-99", ^uint64(0), int64(-17), -1, uint64(1)<<63, []byte{0, 0, 255})

	f.Fuzz(func(t *testing.T, from, vid string, seq uint64, kw int64, round int, epoch uint64, raw []byte) {
		// JSON replaces invalid UTF-8 with U+FFFD while the binary
		// codec is transparent; sanitize so both wires carry the same
		// string value.
		from = strings.ToValidUTF8(from, "\uFFFD")
		vid = strings.ToValidUTF8(vid, "\uFFFD")
		if len(from) > 1<<10 || len(vid) > 1<<10 || len(raw) > 1<<10 {
			return
		}
		// Finite, JSON-round-trippable floats derived from the bytes.
		vals := make([]float64, len(raw))
		live := make([]bool, len(raw))
		for i, b := range raw {
			vals[i] = float64(int8(b)) / 4
			live[i] = b%2 == 0
		}
		if len(vals) == 0 {
			vals, live = nil, nil
		}

		check := func(typ MessageType, body, outJSON, outBin any) {
			t.Helper()
			jenv, err := Seal(typ, from, seq, body)
			if err != nil {
				t.Fatalf("seal %s: %v", typ, err)
			}
			if err := Open(jenv, typ, outJSON); err != nil {
				t.Fatalf("json open %s: %v", typ, err)
			}

			bframe, err := AppendBinaryFrame(nil, typ, from, seq, body)
			if err != nil {
				t.Fatalf("binary encode %s: %v", typ, err)
			}
			benv, err := DecodeBinaryFrame(bframe)
			if err != nil {
				t.Fatalf("binary decode %s: %v", typ, err)
			}
			if benv.Type != jenv.Type || benv.From != jenv.From || benv.Seq != jenv.Seq {
				t.Fatalf("%s header mismatch: json %+v binary %+v", typ, jenv, benv)
			}
			if err := Open(benv, typ, outBin); err != nil {
				t.Fatalf("binary open %s: %v", typ, err)
			}
			if !reflect.DeepEqual(outJSON, outBin) {
				t.Fatalf("%s codec divergence:\n json   %+v\n binary %+v", typ, outJSON, outBin)
			}
		}

		check(TypeQuote, &Quote{
			VehicleID: vid, Others: vals, Round: round, Epoch: epoch,
			FleetSize: round + 1, Live: live,
			Cost: CostSpec{Kind: vid, BetaPerKWh: float64(kw) / 8, Alpha: 0.875},
		}, new(Quote), new(Quote))
		check(TypeRequest, &Request{
			VehicleID: vid, TotalKW: float64(kw) / 2, DrawCapKW: float64(kw % 97),
			Round: round, Epoch: epoch, OwnKWSum: float64(kw) / 16,
		}, new(Request), new(Request))
		check(TypeSchedule, &ScheduleMsg{
			VehicleID: vid, AllocKW: vals, PaymentH: float64(kw) / 32, Round: round,
		}, new(ScheduleMsg), new(ScheduleMsg))
	})
}
