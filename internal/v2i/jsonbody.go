package v2i

// Reflection-free JSON bodies for the three messages on the JSON hot
// path: the Quote, Request and ScheduleMsg of every best-response
// exchange. Seal and Open try these first and fall back to encoding/json whenever a value
// or an input leaves the canonical subset handled here, so the wire
// bytes and the decoded structs are exactly encoding/json's.
//
// The encoder emits json.Marshal's bytes: declaration field order,
// omitempty for zero numbers (−0 included) and empty slices, null for a
// nil non-omitempty slice, and encoding/json's float rule ('f' format,
// 'e' when |x| < 1e-6 or |x| >= 1e21, with e-07 shortened to e-7). It
// declines NaN/±Inf and any string holding a byte outside printable
// ASCII or one of `"\<>&`, which json.Marshal escapes or rejects.
//
// The decoder accepts one JSON object with exact-case known keys in any
// order (duplicates: the last wins), whitespace anywhere, printable
// ASCII strings without escapes, and numbers in JSON's grammar, each
// parsed by the strconv call encoding/json makes on the same literal.
// Like json.Unmarshal it merges into the target: absent fields keep
// their values, null gives a nil slice and [] an empty non-nil one. A
// non-empty array bound for a slice that already has storage is left to
// json.Unmarshal, which reuses that storage; so the decoder never
// writes into memory the caller owns. Anything else — an unknown or
// case-variant key, a string escape, non-ASCII, a null scalar, an
// out-of-range number, trailing bytes — declines without changing the
// target, and Open hands the input to json.Unmarshal.

import (
	"bytes"
	"math"
	"strconv"
)

// jsonFloatMax bounds the text of one float64 in encoding/json's
// format: sign, up to 17 significant digits, and either the "0.00000"
// prefix of 'f' form near 1e-6 or the point and exponent of 'e' form.
const jsonFloatMax = 25

// sealJSONBody encodes body when it is a pointer to one of the
// hot-path messages holding only values in the canonical subset. The
// result is exactly json.Marshal(body) in one allocation.
func sealJSONBody(body any) ([]byte, bool) {
	var e jsonEnc
	switch m := body.(type) {
	case *Quote:
		if m == nil {
			return nil, false
		}
		e.quote(m)
	case *Request:
		if m == nil {
			return nil, false
		}
		e.request(m)
	case *ScheduleMsg:
		if m == nil {
			return nil, false
		}
		e.schedule(m)
	default:
		return nil, false
	}
	return e.b, !e.bad
}

// openJSONBody decodes body into out when out is a pointer to one of
// the hot-path messages and body is in the canonical subset. It
// decodes into a copy and stores it only on success, so on false out
// is unchanged. (Each case spells out its closure:
// behind a generic helper the copy would escape to the heap.)
func openJSONBody(body []byte, out any) bool {
	d := jsonDec{b: body}
	switch m := out.(type) {
	case *Quote:
		if m == nil {
			return false
		}
		v := *m
		if !d.object(func(k []byte) bool { return d.quoteField(k, &v) }) || !d.end() {
			return false
		}
		*m = v
	case *Request:
		if m == nil {
			return false
		}
		v := *m
		if !d.object(func(k []byte) bool { return d.requestField(k, &v) }) || !d.end() {
			return false
		}
		*m = v
	case *ScheduleMsg:
		if m == nil {
			return false
		}
		v := *m
		if !d.object(func(k []byte) bool { return d.scheduleField(k, &v) }) || !d.end() {
			return false
		}
		*m = v
	default:
		return false
	}
	return true
}

// --- encoder ----------------------------------------------------------------

// jsonEnc appends one body; bad records a value left to json.Marshal.
type jsonEnc struct {
	b   []byte
	bad bool
}

func (e *jsonEnc) quote(q *Quote) {
	// Keys, five cost floats and three integers fit in 384 bytes.
	e.b = make([]byte, 0, 384+len(q.VehicleID)+len(q.Cost.Kind)+
		(jsonFloatMax+1)*len(q.Others)+len(",false")*len(q.Live))
	e.b = append(e.b, `{"vehicle_id":`...)
	e.str(q.VehicleID)
	e.b = append(e.b, `,"others":`...)
	e.floats(q.Others)
	c := &q.Cost
	e.b = append(e.b, `,"cost":{"kind":`...)
	e.str(c.Kind)
	e.b = append(e.b, `,"beta_per_kwh":`...)
	e.float(c.BetaPerKWh)
	e.optFloat(`,"alpha":`, c.Alpha)
	e.optFloat(`,"line_capacity_kw":`, c.LineCapacityKW)
	e.optFloat(`,"overload_kappa_per_kwh":`, c.OverloadKappaPerKWh)
	e.optFloat(`,"overload_capacity_kw":`, c.OverloadCapacityKW)
	e.b = append(e.b, `},"round":`...)
	e.b = strconv.AppendInt(e.b, int64(q.Round), 10)
	e.b = append(e.b, `,"epoch":`...)
	e.b = strconv.AppendUint(e.b, q.Epoch, 10)
	if q.FleetSize != 0 {
		e.b = append(e.b, `,"fleet_size":`...)
		e.b = strconv.AppendInt(e.b, int64(q.FleetSize), 10)
	}
	if len(q.Live) > 0 {
		e.b = append(e.b, `,"live":[`...)
		for i, on := range q.Live {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = strconv.AppendBool(e.b, on)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

func (e *jsonEnc) request(r *Request) {
	e.b = make([]byte, 0, 224+len(r.VehicleID))
	e.b = append(e.b, `{"vehicle_id":`...)
	e.str(r.VehicleID)
	e.b = append(e.b, `,"total_kw":`...)
	e.float(r.TotalKW)
	e.optFloat(`,"draw_cap_kw":`, r.DrawCapKW)
	e.b = append(e.b, `,"round":`...)
	e.b = strconv.AppendInt(e.b, int64(r.Round), 10)
	e.b = append(e.b, `,"epoch":`...)
	e.b = strconv.AppendUint(e.b, r.Epoch, 10)
	e.optFloat(`,"own_kw_sum":`, r.OwnKWSum)
	e.b = append(e.b, '}')
}

func (e *jsonEnc) schedule(s *ScheduleMsg) {
	e.b = make([]byte, 0, 128+len(s.VehicleID)+(jsonFloatMax+1)*len(s.AllocKW))
	e.b = append(e.b, `{"vehicle_id":`...)
	e.str(s.VehicleID)
	e.b = append(e.b, `,"alloc_kw":`...)
	e.floats(s.AllocKW)
	e.b = append(e.b, `,"payment_per_hour":`...)
	e.float(s.PaymentH)
	e.b = append(e.b, `,"round":`...)
	e.b = strconv.AppendInt(e.b, int64(s.Round), 10)
	e.b = append(e.b, '}')
}

// str appends s quoted, declining any byte json.Marshal would escape.
func (e *jsonEnc) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.bad = true
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// float appends f by encoding/json's rule, declining NaN and ±Inf.
func (e *jsonEnc) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// Shorten e-07 to e-7.
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// optFloat appends key and f unless f is zero (the omitempty rule).
func (e *jsonEnc) optFloat(key string, f float64) {
	if f != 0 {
		e.b = append(e.b, key...)
		e.float(f)
	}
}

// floats appends a non-omitempty slice: null when nil.
func (e *jsonEnc) floats(v []float64) {
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, f := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(f)
	}
	e.b = append(e.b, ']')
}

// --- decoder ----------------------------------------------------------------

// jsonDec is a cursor over one body; every method reports false on
// input outside the canonical subset.
type jsonDec struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *jsonDec) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c after optional whitespace.
func (d *jsonDec) eat(c byte) bool {
	if d.peek() != c {
		return false
	}
	d.i++
	return true
}

// end reports whether only whitespace remains.
func (d *jsonDec) end() bool {
	return d.peek() == 0 && d.i == len(d.b)
}

// word consumes the literal w (true, false or null).
func (d *jsonDec) word(w string) bool {
	if len(d.b)-d.i < len(w) || string(d.b[d.i:d.i+len(w)]) != w {
		return false
	}
	d.i += len(w)
	return true
}

// object walks one object, handing each key to field, which must
// consume the value after the colon.
func (d *jsonDec) object(field func(key []byte) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	for {
		key, ok := d.strBytes()
		if !ok || !d.eat(':') || !field(key) {
			return false
		}
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return true
		default:
			return false
		}
	}
}

// strBytes consumes a string of printable ASCII without escapes and
// returns its contents, aliasing the input.
func (d *jsonDec) strBytes() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (d *jsonDec) str(s *string) bool {
	v, ok := d.strBytes()
	if ok {
		*s = string(v)
	}
	return ok
}

// number consumes one literal in JSON's number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *jsonDec) number() ([]byte, bool) {
	d.peek()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case !d.digits():
		return nil, false
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if !d.digits() {
			return nil, false
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			return nil, false
		}
	}
	return d.b[start:d.i], true
}

// digits consumes one or more decimal digits.
func (d *jsonDec) digits() bool {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

func (d *jsonDec) float(f *float64) bool {
	v, ok := d.floatValue()
	if ok {
		*f = v
	}
	return ok
}

func (d *jsonDec) floatValue() (float64, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

func (d *jsonDec) int(n *int) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(int(v)) != v {
		return false
	}
	*n = int(v)
	return true
}

func (d *jsonDec) uint(n *uint64) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return false
	}
	*n = v
	return true
}

// array consumes null (setting *s to nil), [] (an empty non-nil
// slice) or a non-empty array, whose elements elem decodes into new
// storage sized once to the element count. It declines a non-empty
// array when s already has storage, which json.Unmarshal would reuse.
func array[T any](d *jsonDec, s *[]T, elem func() (T, bool)) bool {
	switch d.peek() {
	case 'n':
		if !d.word("null") {
			return false
		}
		*s = nil
		return true
	case '[':
		d.i++
	default:
		return false
	}
	if d.eat(']') {
		*s = []T{}
		return true
	}
	if cap(*s) > 0 {
		return false
	}
	v := make([]T, 0, d.remaining())
	for {
		x, ok := elem()
		if !ok {
			return false
		}
		v = append(v, x)
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			*s = v
			return true
		default:
			return false
		}
	}
}

// remaining estimates the elements left in the current array: one plus
// the commas before the next ']' (exact for arrays of numbers or bools).
func (d *jsonDec) remaining() int {
	rest := d.b[d.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{','}) + 1
}

func (d *jsonDec) floats(s *[]float64) bool { return array(d, s, d.floatValue) }

func (d *jsonDec) bools(s *[]bool) bool {
	return array(d, s, func() (bool, bool) {
		switch d.peek() {
		case 't':
			return true, d.word("true")
		case 'f':
			return false, d.word("false")
		}
		return false, false
	})
}

func (d *jsonDec) quoteField(k []byte, q *Quote) bool {
	switch string(k) {
	case "vehicle_id":
		return d.str(&q.VehicleID)
	case "others":
		return d.floats(&q.Others)
	case "cost":
		return d.object(func(k []byte) bool { return d.costField(k, &q.Cost) })
	case "round":
		return d.int(&q.Round)
	case "epoch":
		return d.uint(&q.Epoch)
	case "fleet_size":
		return d.int(&q.FleetSize)
	case "live":
		return d.bools(&q.Live)
	}
	return false
}

func (d *jsonDec) costField(k []byte, c *CostSpec) bool {
	switch string(k) {
	case "kind":
		return d.str(&c.Kind)
	case "beta_per_kwh":
		return d.float(&c.BetaPerKWh)
	case "alpha":
		return d.float(&c.Alpha)
	case "line_capacity_kw":
		return d.float(&c.LineCapacityKW)
	case "overload_kappa_per_kwh":
		return d.float(&c.OverloadKappaPerKWh)
	case "overload_capacity_kw":
		return d.float(&c.OverloadCapacityKW)
	}
	return false
}

func (d *jsonDec) requestField(k []byte, r *Request) bool {
	switch string(k) {
	case "vehicle_id":
		return d.str(&r.VehicleID)
	case "total_kw":
		return d.float(&r.TotalKW)
	case "draw_cap_kw":
		return d.float(&r.DrawCapKW)
	case "round":
		return d.int(&r.Round)
	case "epoch":
		return d.uint(&r.Epoch)
	case "own_kw_sum":
		return d.float(&r.OwnKWSum)
	}
	return false
}

func (d *jsonDec) scheduleField(k []byte, s *ScheduleMsg) bool {
	switch string(k) {
	case "vehicle_id":
		return d.str(&s.VehicleID)
	case "alloc_kw":
		return d.floats(&s.AllocKW)
	case "payment_per_hour":
		return d.float(&s.PaymentH)
	case "round":
		return d.int(&s.Round)
	}
	return false
}
