package v2i

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

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
			return &Request{VehicleID: "old", TotalKW: 1, DrawCapKW: 2, Round: 3, Epoch: 4, OwnKWSum: 5}
		}},
		{TypeSchedule, func() any { return new(ScheduleMsg) }, func() any {
			return &ScheduleMsg{VehicleID: "old", AllocKW: []float64{7, 7}, PaymentH: 8, Round: 9}
		}},
	}
}

// edgeFloats are the values where encoding/json's float format turns:
// signed zero, the 1e-6 and 1e21 'e'-format cutoffs, the e-07 → e-7
// clean-up, subnormals and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3,
	9.99e-7, -9.99e-7, 1e-6, -1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-9,
	1e21, -1e21, math.Nextafter(1e21, 0), 999999999999999900000, 1e20,
	5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	123456789.123456789, 53.55, 0.9 * 53.55,
}

// randFloat draws a finite float: an edge value, a plausible kW/price,
// or arbitrary bits.
func randFloat(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return edgeFloats[r.Intn(len(edgeFloats))]
	case 1:
		return r.Float64() * 60
	case 2:
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(50)-25))
	}
	for {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// randFloats returns nil, an empty slice, or up to 30 floats; optional
// fields get zeros often enough to exercise omitempty.
func randFloats(r *rand.Rand) []float64 {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	v := make([]float64, 1+r.Intn(30))
	for i := range v {
		v[i] = randFloat(r)
	}
	return v
}

func randOpt(r *rand.Rand) float64 {
	if r.Intn(3) == 0 {
		return 0
	}
	return randFloat(r)
}

func randInt(r *rand.Rand) int {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return -r.Intn(100)
	case 2:
		return int(r.Int63()) - math.MaxInt64/2
	}
	return r.Intn(1000)
}

func randUint(r *rand.Rand) uint64 {
	if r.Intn(3) == 0 {
		return r.Uint64()
	}
	return uint64(r.Intn(1000))
}

// randID is a clean printable-ASCII ID most of the time, so both the
// reflection-free path and the encoding/json fallback are exercised.
func randID(r *rand.Rand) string {
	const clean = "abcXYZ019-_.:/ ~'!{}[]"
	var b strings.Builder
	for i := r.Intn(12); i > 0; i-- {
		b.WriteByte(clean[r.Intn(len(clean))])
	}
	return b.String()
}

func randBodies(r *rand.Rand) []any {
	var live []bool
	if n := r.Intn(4); n > 0 {
		live = make([]bool, r.Intn(30))
		for i := range live {
			live[i] = r.Intn(2) == 0
		}
	}
	return []any{
		&Quote{
			VehicleID: randID(r), Others: randFloats(r), Round: randInt(r), Epoch: randUint(r),
			FleetSize: randInt(r), Live: live,
			Cost: CostSpec{
				Kind: randID(r), BetaPerKWh: randFloat(r), Alpha: randOpt(r), LineCapacityKW: randOpt(r),
				OverloadKappaPerKWh: randOpt(r), OverloadCapacityKW: randOpt(r),
			},
		},
		&Request{
			VehicleID: randID(r), TotalKW: randFloat(r), DrawCapKW: randOpt(r),
			Round: randInt(r), Epoch: randUint(r), OwnKWSum: randOpt(r),
		},
		&ScheduleMsg{VehicleID: randID(r), AllocKW: randFloats(r), PaymentH: randFloat(r), Round: randInt(r)},
	}
}

// TestJSONBodyMatchesEncodingJSON: Seal's body bytes equal
// json.Marshal's on random values of the three hot-path types and on
// every edge of the float format, the reflection-free encoder handles
// every clean value itself, the decoder accepts every canonical
// encoding and lands on json.Unmarshal's struct, and values the
// encoder declines still seal (or fail) exactly as json.Marshal does.
func TestJSONBodyMatchesEncodingJSON(t *testing.T) {
	check := func(body any, wantFast bool) {
		t.Helper()
		want, werr := json.Marshal(body)
		env, err := Seal(TypeQuote, "grid", 1, body)
		if werr != nil {
			if err == nil || err.Error() != "v2i: marshal quote: "+werr.Error() {
				t.Fatalf("Seal(%#v) error %v, json.Marshal error %v", body, err, werr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Seal(%#v): %v", body, err)
		}
		if !bytes.Equal(env.Body, want) {
			t.Fatalf("Seal body\n%s\njson.Marshal\n%s", env.Body, want)
		}
		if _, fast := sealJSONBody(body); fast != wantFast {
			t.Fatalf("reflection-free encoder took %#v: %v, want %v", body, fast, wantFast)
		}
		typ := reflect.TypeOf(body).Elem()
		got, ref := reflect.New(typ).Interface(), reflect.New(typ).Interface()
		if fast := openJSONBody(want, got); fast != wantFast {
			t.Fatalf("reflection-free decoder took %s: %v, want %v", want, fast, wantFast)
		}
		if err := json.Unmarshal(want, ref); err != nil {
			t.Fatal(err)
		}
		if err := Open(Envelope{Type: TypeQuote, Body: want}, TypeQuote, got); err != nil {
			t.Fatalf("Open %s: %v", want, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("Open %s\n got %#v\nwant %#v", want, got, ref)
		}
	}

	r := rand.New(rand.NewSource(18))
	for i := 0; i < 4000; i++ {
		for _, body := range randBodies(r) {
			check(body, true)
		}
	}
	// Every edge float in every float position.
	for _, f := range edgeFloats {
		check(&Quote{Others: []float64{f, -f}, Cost: CostSpec{BetaPerKWh: f, Alpha: f, LineCapacityKW: f,
			OverloadKappaPerKWh: f, OverloadCapacityKW: f}}, true)
		check(&Request{TotalKW: f, DrawCapKW: f, OwnKWSum: f}, true)
		check(&ScheduleMsg{AllocKW: []float64{f}, PaymentH: f}, true)
	}
	check(&Quote{VehicleID: "v", Others: []float64{}, Live: []bool{}}, true)
	check(&Request{VehicleID: "ev 1"}, true)
	check(&ScheduleMsg{AllocKW: []float64{}}, true)
	// Values (not pointers) seal through json.Marshal.
	for _, body := range []any{Quote{VehicleID: "ev"}, Request{TotalKW: 1}, ScheduleMsg{}} {
		want, _ := json.Marshal(body)
		env, err := Seal(TypeQuote, "grid", 1, body)
		if _, fast := sealJSONBody(body); fast || err != nil || !bytes.Equal(env.Body, want) {
			t.Fatalf("Seal(%#v) = %s, %v (reflection-free: %v), want %s", body, env.Body, err, fast, want)
		}
	}

	// Declined: json.Marshal's escaping or its error decides.
	for _, id := range []string{"a<b", "a>b", "a&b", `a"b`, `a\b`, "tab\t", "del\x7f", "héllo", "\xff", "\u2028"} {
		check(&Quote{VehicleID: id}, false)
		check(&Quote{Cost: CostSpec{Kind: id}}, false)
		check(&Request{VehicleID: id}, false)
		check(&ScheduleMsg{VehicleID: id}, false)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(&Quote{Others: []float64{1, f}}, false)
		check(&Quote{Cost: CostSpec{OverloadCapacityKW: f}}, false)
		check(&Request{TotalKW: f}, false)
		check(&Request{OwnKWSum: f}, false)
		check(&ScheduleMsg{AllocKW: []float64{f}}, false)
		check(&ScheduleMsg{PaymentH: f}, false)
	}
	check((*Quote)(nil), false)
	check(&Hello{VehicleID: "ev"}, false)
	check(&Heartbeat{Epoch: math.MaxUint64, Round: math.MinInt64}, false)
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
		canon = []any{&Request{}, &Request{VehicleID: "ev-001", TotalKW: 41.5, DrawCapKW: 12, Round: 2, Epoch: 9, OwnKWSum: 1e-7}}
		extra = []string{
			`{"epoch":9,"own_kw_sum":3,"total_kw":1,"vehicle_id":"ev","round":2,"draw_cap_kw":2.5}`,
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

// FuzzJSONBodyEquivalence holds Open to json.Unmarshal on arbitrary
// bytes for each hot-path type, from a zero and from a populated
// target: the same error/no-error outcome and, on success, deeply
// equal structs; on a syntax error, which json.Unmarshal rejects before
// writing anything, Open must leave the target unchanged too. Whenever
// the reflection-free decoder itself accepts an input, json.Unmarshal
// must succeed with the same struct; when it declines, the target must
// be unchanged down to its slice storage and elements.
func FuzzJSONBodyEquivalence(f *testing.F) {
	for _, c := range jsonBodyCases() {
		for _, s := range jsonBodySeeds(c.typ) {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range jsonBodyCases() {
			for _, fresh := range []func() any{c.zero, c.populated} {
				got, want := fresh(), fresh()
				errGot := Open(Envelope{Type: c.typ, Body: data}, c.typ, got)
				errWant := json.Unmarshal(data, want)
				if (errGot == nil) != (errWant == nil) {
					t.Fatalf("%s %q: Open error %v, json.Unmarshal error %v", c.typ, data, errGot, errWant)
				}
				if errGot == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %q:\nOpen           %#v\njson.Unmarshal %#v", c.typ, data, got, want)
				}
				var syntax *json.SyntaxError
				if errors.As(errWant, &syntax) && !reflect.DeepEqual(got, fresh()) {
					t.Fatalf("%s %q: Open failed on a syntax error but changed the target to %#v", c.typ, data, got)
				}

				fast := fresh()
				before := reflect.New(reflect.TypeOf(fast).Elem()).Elem()
				before.Set(reflect.ValueOf(fast).Elem()) // shallow: shares slice storage
				if openJSONBody(data, fast) {
					if errWant != nil {
						t.Fatalf("%s %q: fast path accepted input json.Unmarshal rejects: %v", c.typ, data, errWant)
					}
					if !reflect.DeepEqual(fast, want) {
						t.Fatalf("%s %q:\nfast path      %#v\njson.Unmarshal %#v", c.typ, data, fast, want)
					}
				} else if !sameFields(reflect.ValueOf(fast).Elem(), before) || !reflect.DeepEqual(fast, fresh()) {
					t.Fatalf("%s %q: declined input changed the target to %#v", c.typ, data, fast)
				}
			}
		}
	})
}

// sameFields reports whether a struct still holds the fields of its
// shallow copy b, comparing each slice by its header (nil-ness, storage,
// length, capacity); the caller compares elements with a fresh value.
func sameFields(a, b reflect.Value) bool {
	for i := 0; i < a.NumField(); i++ {
		fa, fb := a.Field(i), b.Field(i)
		switch fa.Kind() {
		case reflect.Struct:
			if !sameFields(fa, fb) {
				return false
			}
		case reflect.Slice:
			if fa.IsNil() != fb.IsNil() || fa.Pointer() != fb.Pointer() || fa.Len() != fb.Len() || fa.Cap() != fb.Cap() {
				return false
			}
		default:
			if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
				return false
			}
		}
	}
	return true
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

// TestJSONBodyAllocs pins the reflection-free codec's allocation
// budget at 24 sections: Seal allocates only the body buffer, even
// when every number takes its longest text, and Open into a zeroed
// target allocates only what the target then holds — the ID string,
// Cost.Kind and Others for a quote, ID and AllocKW for a schedule, the
// ID for a request.
func TestJSONBodyAllocs(t *testing.T) {
	const long = -1.2345678901234567e-6 // "-0.0000012345678901234567"
	longs := make([]float64, 24)
	live := make([]bool, 24)
	for i := range longs {
		longs[i] = long
	}
	cost := CostSpec{Kind: "nonlinear", BetaPerKWh: long, Alpha: long, LineCapacityKW: long,
		OverloadKappaPerKWh: long, OverloadCapacityKW: long}
	for _, body := range []any{
		&Quote{VehicleID: "olev-0042", Others: longs, Cost: cost, Round: math.MinInt64, Epoch: math.MaxUint64,
			FleetSize: math.MinInt64, Live: live},
		&Request{VehicleID: "olev-0042", TotalKW: long, DrawCapKW: long, Round: math.MinInt64,
			Epoch: math.MaxUint64, OwnKWSum: long},
		&ScheduleMsg{VehicleID: "olev-0042", AllocKW: longs, PaymentH: long, Round: math.MinInt64},
	} {
		if allocs := testing.AllocsPerRun(10, func() {
			if _, err := Seal(TypeQuote, "smart-grid", 7, body); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("Seal of longest-text %T allocates %v/op, want 1", body, allocs)
		}
	}

	budget := map[MessageType]float64{TypeQuote: 3, TypeSchedule: 2, TypeRequest: 1}
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
		zero := reflect.ValueOf(out).Elem()
		blank := reflect.Zero(zero.Type())
		if allocs := testing.AllocsPerRun(100, func() {
			zero.Set(blank)
			if err := Open(env, c.typ, out); err != nil {
				t.Fatal(err)
			}
		}); allocs != budget[c.typ] {
			t.Errorf("Open %s allocates %v/op, want %v", c.typ, allocs, budget[c.typ])
		}
	}
}

// BenchmarkSealOpen measures one Seal plus one Open into a fresh
// target per message type at 24 sections, beside the encoding/json
// round trip it replaces.
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
