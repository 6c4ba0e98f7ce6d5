package v2i

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
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
// size bytes, padding its body; unlike AppendBinaryFrame it does not
// refuse sizes at or over MaxFrameBytes.
func boundaryFrame(size int) []byte {
	frame, err := AppendBinaryFrame(nil, TypeHello, "grid", 1, &Hello{})
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
		{TypeRequest, &Request{VehicleID: "olev-01", TotalKW: 41.5, DrawCapKW: 12, Round: 2, Epoch: 9}},
		{TypeSchedule, &ScheduleMsg{VehicleID: "olev-01", AllocKW: []float64{2, 0, 1}, PaymentH: 0.8, Round: 2}},
		{TypeConverged, &Converged{Rounds: 11, CongestionDegree: 0.9, WelfarePerHour: 120}},
		{TypeBye, &Bye{Reason: "session complete"}},
		{TypeHeartbeat, &Heartbeat{Epoch: 3, Round: 1}},
	} {
		f.Add(binarySeed(f, tc.typ, tc.body))
	}

	// A sealed envelope riding binary (its body forwarded verbatim).
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
	f.Add(append([]byte{12, 0, 0, 0}, make([]byte, 12)...))    // min payload, all zero
	f.Add(append([]byte{12, 0, 0, 0, 8}, make([]byte, 11)...)) // retired type code 8
	retired := bytes.Clone(quote)
	retired[binLenPrefix] = 8 // a quote frame under the retired coalesced-quote code
	f.Add(retired)
	f.Add(append([]byte{255, 255, 255, 255}, quote...)) // absurd length prefix
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
	return nil
}

// FuzzWireEquivalence builds a Quote, a Request, and a ScheduleMsg
// from fuzzed inputs and pushes each through both links end to end:
// what an in-memory link carries (Seal → Open of the sealed Envelope)
// and what a connection carries (AppendBinaryFrame →
// DecodeBinaryFrame → Open). The decoded structs must match field for
// field — strings byte for byte, valid UTF-8 or not, since both legs
// are transparent.
func FuzzWireEquivalence(f *testing.F) {
	f.Add("grid", "ev-001", uint64(7), int64(42), 3, uint64(9), []byte{1, 2, 3, 200})
	f.Add("", "", uint64(0), int64(0), 0, uint64(0), []byte{})
	f.Add("coord-a", "olev-99", ^uint64(0), int64(-17), -1, uint64(1)<<63, []byte{0, 0, 255})

	f.Fuzz(func(t *testing.T, from, vid string, seq uint64, kw int64, round int, epoch uint64, raw []byte) {
		if len(from) > 1<<10 || len(vid) > 1<<10 || len(raw) > 1<<10 {
			return
		}
		// Floats derived from the bytes.
		vals := make([]float64, len(raw))
		live := make([]bool, len(raw))
		for i, b := range raw {
			vals[i] = float64(int8(b)) / 4
			live[i] = b%2 == 0
		}
		if len(vals) == 0 {
			vals, live = nil, nil
		}
		if round != int(int32(round)) || round+1 != int(int32(round+1)) {
			// Beyond the wire's int32: both legs refuse to encode.
			q := &Quote{VehicleID: vid, Round: round, FleetSize: round + 1}
			if _, err := Seal(TypeQuote, from, seq, q); err == nil {
				t.Fatalf("seal accepted round %d", round)
			}
			if _, err := AppendBinaryFrame(nil, TypeQuote, from, seq, q); err == nil {
				t.Fatalf("binary encode accepted round %d", round)
			}
			return
		}

		check := func(typ MessageType, body, outSealed, outFrame any) {
			t.Helper()
			sealed, err := Seal(typ, from, seq, body)
			if err != nil {
				t.Fatalf("seal %s: %v", typ, err)
			}
			if err := Open(sealed, typ, outSealed); err != nil {
				t.Fatalf("sealed open %s: %v", typ, err)
			}

			bframe, err := AppendBinaryFrame(nil, typ, from, seq, body)
			if err != nil {
				t.Fatalf("frame encode %s: %v", typ, err)
			}
			frame, err := DecodeBinaryFrame(bframe)
			if err != nil {
				t.Fatalf("frame decode %s: %v", typ, err)
			}
			if frame.Type != sealed.Type || frame.From != sealed.From || frame.Seq != sealed.Seq {
				t.Fatalf("%s header mismatch: sealed %+v frame %+v", typ, sealed, frame)
			}
			if err := Open(frame, typ, outFrame); err != nil {
				t.Fatalf("frame open %s: %v", typ, err)
			}
			if !reflect.DeepEqual(outSealed, outFrame) {
				t.Fatalf("%s link divergence:\n sealed %+v\n frame  %+v", typ, outSealed, outFrame)
			}
		}

		check(TypeQuote, &Quote{
			VehicleID: vid, Others: vals, Round: round, Epoch: epoch,
			FleetSize: round + 1, Live: live,
			Cost: CostSpec{Kind: vid, BetaPerKWh: float64(kw) / 8, Alpha: 0.875},
		}, new(Quote), new(Quote))
		check(TypeRequest, &Request{
			VehicleID: vid, TotalKW: float64(kw) / 2, DrawCapKW: float64(kw % 97),
			Round: round, Epoch: epoch,
		}, new(Request), new(Request))
		check(TypeSchedule, &ScheduleMsg{
			VehicleID: vid, AllocKW: vals, PaymentH: float64(kw) / 32, Round: round,
		}, new(ScheduleMsg), new(ScheduleMsg))
	})
}

// jsonBodyCase is one hot-path message type: its tag, a fresh zero
// decode target, and a fresh target already holding every field (so
// merge semantics and slice reuse are exercised).
type jsonBodyCase struct {
	typ       MessageType
	zero      func() any
	populated func() any
}

func jsonBodyCases() []jsonBodyCase {
	return []jsonBodyCase{
		{TypeQuote, func() any { return new(Quote) }, func() any {
			return &Quote{
				VehicleID: "old", Others: []float64{9, 9, 9}, Round: 4, Epoch: 5, FleetSize: 6,
				Cost: CostSpec{Kind: "linear", BetaPerKWh: 1, Alpha: 2, LineCapacityKW: 3, OverloadKappaPerKWh: 4, OverloadCapacityKW: 5},
				Live: []bool{false, true, false},
			}
		}},
		{TypeRequest, func() any { return new(Request) }, func() any {
			return &Request{VehicleID: "old", TotalKW: 1, DrawCapKW: 2, Round: 3, Epoch: 4}
		}},
		{TypeSchedule, func() any { return new(ScheduleMsg) }, func() any {
			return &ScheduleMsg{VehicleID: "old", AllocKW: []float64{7, 7}, PaymentH: 8, Round: 9}
		}},
	}
}

// jsonBodySeeds returns corpus inputs for one message type: the
// canonical encodings of a sparse and a full value, their indented
// forms, and hand-written reordered, duplicated, case-variant,
// escaped, null and malformed variants.
func jsonBodySeeds(typ MessageType) []string {
	var canon []any
	var extra []string
	switch typ {
	case TypeQuote:
		canon = []any{&Quote{}, testQuote(), &Quote{VehicleID: "v", Others: []float64{}, Live: []bool{}}}
		extra = []string{
			`{"round":3,"live":[true,false],"cost":{"beta_per_kwh":0.02,"kind":"linear"},"epoch":9,"others":[1,2.5e-7,-0],"vehicle_id":"ev"}`,
			`{"cost":{"kind":"a"},"cost":{"alpha":1.5},"others":[1,2],"others":[3]}`,
			`{"others":null,"live":null,"fleet_size":0}`,
			`{"Vehicle_ID":"ev","OTHERS":[1],"Cost":{"Kind":"linear"}}`,
			`{"vehicle_id":"e\u0076\n","cost":{"kind":"\"x\""}}`,
			`{"round":null,"cost":null,"vehicle_id":null}`,
			`{"round":1.5}`, `{"epoch":-1}`, `{"others":[1e400]}`, `{"others":[01]}`,
			`{"others":[1,]}`, `{"others":[null]}`, `{"others":[1,2]`, `{"unknown":1}`, `{"vehicle_id":"ev"} x`,
			` { "round" : 2 , "others" : [ 1 , 2 ] } `, `null`, `[]`, `{}`, `{`, ``,
		}
	case TypeRequest:
		canon = []any{&Request{}, &Request{VehicleID: "ev-001", TotalKW: 41.5, DrawCapKW: 12, Round: 2, Epoch: 9}}
		extra = []string{
			`{"epoch":9,"total_kw":1,"vehicle_id":"ev","round":2,"draw_cap_kw":2.5}`,
			`{"total_kw":1,"total_kw":2}`, `{"Total_KW":1}`, `{"vehicle_id":"\u00e9v"}`,
			`{"total_kw":-0}`, `{"total_kw":1E+2}`, `{"round":9223372036854775808}`,
			`{"epoch":18446744073709551616}`, `{"total_kw":"1"}`, `{"total_kw":+1}`,
		}
	case TypeSchedule:
		canon = []any{&ScheduleMsg{}, &ScheduleMsg{VehicleID: "ev-001", AllocKW: []float64{2, 0, 1e21}, PaymentH: 0.8, Round: 2}}
		extra = []string{
			`{"round":2,"payment_per_hour":0.5,"alloc_kw":[],"vehicle_id":"ev"}`,
			`{"alloc_kw":[1,2,3,4,5,6,7,8]}`, `{"alloc_kw":null}`, `{"ALLOC_KW":[1]}`,
			`{"alloc_kw":[1 2]}`, `{"alloc_kw":[true]}`, `{"alloc_kw":[1,2]`, `{"payment_per_hour":.5}`,
		}
	}
	var seeds []string
	for _, v := range canon {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		var ind bytes.Buffer
		if err := json.Indent(&ind, raw, "\t", "  "); err != nil {
			panic(err)
		}
		seeds = append(seeds, string(raw), ind.String())
	}
	return append(seeds, extra...)
}

// FuzzJSONBodyEquivalence holds the binary body codec to the JSON
// reference on arbitrary bytes: every hot-path body encoding/json
// decodes from them, into a zero and into a populated target, must
// survive Seal and Open into the same kind of target with the same
// fields, floats bit for bit (the codec decodes an empty slice as
// nil), and a body beyond the codec's limits must fail to seal instead
// of being cut short.
func FuzzJSONBodyEquivalence(f *testing.F) {
	for _, c := range jsonBodyCases() {
		for _, s := range jsonBodySeeds(c.typ) {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range jsonBodyCases() {
			for _, fresh := range []func() any{c.zero, c.populated} {
				want := fresh()
				if json.Unmarshal(data, want) != nil {
					continue
				}
				env, err := Seal(c.typ, "fz", 1, want)
				if fits := fitsWire(reflect.ValueOf(want)); (err == nil) != fits {
					t.Fatalf("%s %q: seal of a decoded body within wire limits %v: error %v", c.typ, data, fits, err)
				}
				if err != nil {
					continue
				}
				back := fresh()
				if err := Open(env, c.typ, back); err != nil {
					t.Fatalf("%s %q: open of the sealed body: %v", c.typ, data, err)
				}
				if !sameBody(reflect.ValueOf(back), reflect.ValueOf(want)) {
					t.Fatalf("%s %q:\nsealed         %#v\njson.Unmarshal %#v", c.typ, data, back, want)
				}
			}
		}
	})
}

// fitsWire reports whether the binary body codec can carry v: every
// string at most 65535 bytes and every int within int32.
func fitsWire(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer:
		return fitsWire(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !fitsWire(v.Field(i)) {
				return false
			}
		}
	case reflect.String:
		return v.Len() <= math.MaxUint16
	case reflect.Int:
		return v.Int() == int64(int32(v.Int()))
	}
	return true
}

// sameBody compares two decoded bodies field by field: floats by their
// bits, and a nil slice equal to an empty one.
func sameBody(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return sameBody(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBody(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBody(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Interface() == b.Interface()
	}
}
