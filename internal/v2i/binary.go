package v2i

// The binary codec (wire version 1). Frames are length-prefixed with
// a fixed little-endian layout:
//
//	u32  payload length n (bytes after this prefix; 12 <= n < MaxFrameBytes)
//	u8   message type code (binCodes)
//	u8   body codec: 0 = typed binary body (the only one)
//	u16  len(From), then From bytes
//	u64  Seq
//	...  body (layout per message type)
//
// Scalars are little-endian; float64s are IEEE-754 bits; strings are
// u16-length-prefixed bytes; slices are a u32 element count followed
// by the elements (count 0 decodes to nil). The body layout is the
// only body encoding: Seal writes it into an Envelope, so a sealed
// envelope — the form in-memory links and wrappers such as the fault
// injector see — rides a connection with its body bytes forwarded
// verbatim, and a decoded frame is an Envelope of the same bytes. The
// decoder rejects any body codec value but 0; 1 is retired.
//
// Everything here is allocation-free in steady state: encoding
// appends into a caller-owned scratch buffer, and decoding aliases
// the FrameDecoder's receive buffer, interning the handful of
// distinct peer/vehicle ID strings a connection ever sees.

import (
	"fmt"
	"io"
	"math"
)

const (
	// binLenPrefix is the size of the u32 payload-length prefix.
	binLenPrefix = 4
	// binMinPayload is the smallest legal payload: type + codec +
	// empty From + Seq and an empty body.
	binMinPayload = 1 + 1 + 2 + 8
)

// typedBodyCodec is the typed-binary body codec value, the only one a
// frame may carry.
const typedBodyCodec = 0

// Message type codes. 0 is reserved as invalid.
var binCodes = map[MessageType]byte{
	TypeHello:     1,
	TypeQuote:     2,
	TypeRequest:   3,
	TypeSchedule:  4,
	TypeConverged: 5,
	TypeBye:       6,
	TypeHeartbeat: 7,
}

var binTypes = [...]MessageType{
	1: TypeHello,
	2: TypeQuote,
	3: TypeRequest,
	4: TypeSchedule,
	5: TypeConverged,
	6: TypeBye,
	7: TypeHeartbeat,
}

// --- append-style encoders -------------------------------------------------

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendStr16(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return dst, fmt.Errorf("v2i: string of %d bytes exceeds wire limit", len(s))
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

func appendI32(dst []byte, v int) ([]byte, error) {
	if v != int(int32(v)) {
		return dst, fmt.Errorf("v2i: integer %d exceeds wire limit", v)
	}
	return appendU32(dst, uint32(int32(v))), nil
}

func appendF64s(dst []byte, vs []float64) []byte {
	dst = appendU32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = appendF64(dst, v)
	}
	return dst
}

func appendBools(dst []byte, vs []bool) []byte {
	dst = appendU32(dst, uint32(len(vs)))
	for _, v := range vs {
		b := byte(0)
		if v {
			b = 1
		}
		dst = append(dst, b)
	}
	return dst
}

// --- per-type body encoders ------------------------------------------------

func appendHello(dst []byte, m *Hello) ([]byte, error) {
	dst, err := appendStr16(dst, m.VehicleID)
	if err != nil {
		return dst, err
	}
	dst = appendF64(dst, m.MaxPowerKW)
	dst = appendF64(dst, m.VelocityMS)
	dst = appendF64(dst, m.SOC)
	return dst, nil
}

func appendCostSpec(dst []byte, m *CostSpec) ([]byte, error) {
	// Kind travels as a string, not an enum byte: an old decoder can
	// then surface an unknown future kind verbatim instead of
	// mis-mapping it.
	dst, err := appendStr16(dst, m.Kind)
	if err != nil {
		return dst, err
	}
	dst = appendF64(dst, m.BetaPerKWh)
	dst = appendF64(dst, m.Alpha)
	dst = appendF64(dst, m.LineCapacityKW)
	dst = appendF64(dst, m.OverloadKappaPerKWh)
	dst = appendF64(dst, m.OverloadCapacityKW)
	return dst, nil
}

func appendQuote(dst []byte, m *Quote) ([]byte, error) {
	dst, err := appendStr16(dst, m.VehicleID)
	if err != nil {
		return dst, err
	}
	dst = appendF64s(dst, m.Others)
	if dst, err = appendCostSpec(dst, &m.Cost); err != nil {
		return dst, err
	}
	if dst, err = appendI32(dst, m.Round); err != nil {
		return dst, err
	}
	dst = appendU64(dst, m.Epoch)
	if dst, err = appendI32(dst, m.FleetSize); err != nil {
		return dst, err
	}
	dst = appendBools(dst, m.Live)
	return dst, nil
}

func appendRequest(dst []byte, m *Request) ([]byte, error) {
	dst, err := appendStr16(dst, m.VehicleID)
	if err != nil {
		return dst, err
	}
	dst = appendF64(dst, m.TotalKW)
	dst = appendF64(dst, m.DrawCapKW)
	if dst, err = appendI32(dst, m.Round); err != nil {
		return dst, err
	}
	return appendU64(dst, m.Epoch), nil
}

func appendSchedule(dst []byte, m *ScheduleMsg) ([]byte, error) {
	dst, err := appendStr16(dst, m.VehicleID)
	if err != nil {
		return dst, err
	}
	dst = appendF64s(dst, m.AllocKW)
	dst = appendF64(dst, m.PaymentH)
	return appendI32(dst, m.Round)
}

func appendConverged(dst []byte, m *Converged) ([]byte, error) {
	dst, err := appendI32(dst, m.Rounds)
	if err != nil {
		return dst, err
	}
	dst = appendF64(dst, m.CongestionDegree)
	dst = appendF64(dst, m.WelfarePerHour)
	return dst, nil
}

func appendBye(dst []byte, m *Bye) ([]byte, error) {
	return appendStr16(dst, m.Reason)
}

func appendHeartbeat(dst []byte, m *Heartbeat) ([]byte, error) {
	dst = appendU64(dst, m.Epoch)
	return appendI32(dst, m.Round)
}

// str16Size and f64sSize are the encoded sizes of appendStr16 and
// appendF64s.
func str16Size(s string) int       { return 2 + len(s) }
func f64sSize(vs []float64) int    { return 4 + 8*len(vs) }
func costSpecSize(m *CostSpec) int { return str16Size(m.Kind) + 5*8 }

// binaryBodySize is the exact size appendBinaryBody writes for a body
// passed by pointer, so Seal can encode it into one allocation. Any
// other body yields 0 and grows as it encodes.
func binaryBodySize(body any) int {
	switch m := body.(type) {
	case *Hello:
		return str16Size(m.VehicleID) + 3*8
	case *Quote:
		return str16Size(m.VehicleID) + f64sSize(m.Others) + costSpecSize(&m.Cost) + 4 + 8 + 4 + 4 + len(m.Live)
	case *Request:
		return str16Size(m.VehicleID) + 8 + 8 + 4 + 8
	case *ScheduleMsg:
		return str16Size(m.VehicleID) + f64sSize(m.AllocKW) + 8 + 4
	case *Converged:
		return 4 + 8 + 8
	case *Bye:
		return str16Size(m.Reason)
	case *Heartbeat:
		return 8 + 4
	}
	return 0
}

// appendBinaryBody dispatches on the concrete body type. ok=false
// means the type has no fixed layout.
func appendBinaryBody(dst []byte, body any) (_ []byte, ok bool, err error) {
	switch m := body.(type) {
	case *Hello:
		dst, err = appendHello(dst, m)
	case Hello:
		dst, err = appendHello(dst, &m)
	case *Quote:
		dst, err = appendQuote(dst, m)
	case Quote:
		dst, err = appendQuote(dst, &m)
	case *Request:
		dst, err = appendRequest(dst, m)
	case Request:
		dst, err = appendRequest(dst, &m)
	case *ScheduleMsg:
		dst, err = appendSchedule(dst, m)
	case ScheduleMsg:
		dst, err = appendSchedule(dst, &m)
	case *Converged:
		dst, err = appendConverged(dst, m)
	case Converged:
		dst, err = appendConverged(dst, &m)
	case *Bye:
		dst, err = appendBye(dst, m)
	case Bye:
		dst, err = appendBye(dst, &m)
	case *Heartbeat:
		dst, err = appendHeartbeat(dst, m)
	case Heartbeat:
		dst, err = appendHeartbeat(dst, &m)
	default:
		return dst, false, nil
	}
	return dst, true, err
}

// --- frame encoders --------------------------------------------------------

// finishFrame back-fills the length prefix written as a placeholder
// at start and enforces the frame bound.
func finishFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - binLenPrefix
	if n >= MaxFrameBytes {
		return dst, fmt.Errorf("v2i: send %d bytes: %w", n, ErrFrameTooLarge)
	}
	dst[start] = byte(n)
	dst[start+1] = byte(n >> 8)
	dst[start+2] = byte(n >> 16)
	dst[start+3] = byte(n >> 24)
	return dst, nil
}

func appendFrameHeader(dst []byte, code byte, from string, seq uint64) ([]byte, error) {
	dst = append(dst, 0, 0, 0, 0) // length prefix placeholder
	dst = append(dst, code, typedBodyCodec)
	dst, err := appendStr16(dst, from)
	if err != nil {
		return dst, err
	}
	return appendU64(dst, seq), nil
}

// AppendBinaryFrame appends one complete binary frame (length prefix
// included) for a typed message to dst and returns the extended
// slice. It allocates only when dst lacks capacity, so callers that
// reuse the returned slice reach zero steady-state allocations. A
// body type without a fixed layout is an error.
func AppendBinaryFrame(dst []byte, typ MessageType, from string, seq uint64, body any) ([]byte, error) {
	code, ok := binCodes[typ]
	if !ok {
		return dst, fmt.Errorf("v2i: no binary code for message type %q", typ)
	}
	start := len(dst)
	out, err := appendFrameHeader(dst, code, from, seq)
	if err != nil {
		return dst, err
	}
	out, ok, err = appendBinaryBody(out, body)
	if err != nil {
		return dst, err
	}
	if !ok {
		return dst, fmt.Errorf("v2i: %s body %T has no binary layout", typ, body)
	}
	return finishFrame(out, start)
}

// EncodeBinaryFrame appends one complete binary frame for a sealed or
// decoded Envelope to dst, forwarding its typed-binary body bytes
// verbatim.
func EncodeBinaryFrame(dst []byte, env Envelope) ([]byte, error) {
	code, ok := binCodes[env.Type]
	if !ok {
		return dst, fmt.Errorf("v2i: no binary code for message type %q", env.Type)
	}
	start := len(dst)
	out, err := appendFrameHeader(dst, code, env.From, env.Seq)
	if err != nil {
		return dst, err
	}
	out = append(out, env.Body...)
	return finishFrame(out, start)
}

// --- decoding --------------------------------------------------------------

// binReader is a bounds-checked cursor over a payload. All read
// methods return zero values once err is set, so decoders can read a
// whole struct and check err once.
type binReader struct {
	b   []byte
	off int
	err bool
}

func (r *binReader) fail() { r.err = true }

func (r *binReader) take(n int) []byte {
	if r.err || n < 0 || len(r.b)-r.off < n {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *binReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

func (r *binReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *binReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (r *binReader) i32() int { return int(int32(r.u32())) }

func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }

// str decodes a u16-length-prefixed string. It returns old, the
// destination's current value, when the bytes equal it, so opening
// into a reused target allocates no repeated ID; otherwise it interns
// through d when non-nil, so repeated IDs on one connection cost one
// allocation ever.
func (r *binReader) str(d *FrameDecoder, old string) string {
	b := r.take(int(r.u16()))
	if len(b) == 0 {
		return ""
	}
	if string(b) == old {
		return old
	}
	if d != nil {
		return d.intern(b)
	}
	return string(b)
}

// f64s decodes a float64 slice into dst's storage when it has the
// capacity. Count 0 yields nil.
func (r *binReader) f64s(dst []float64) []float64 {
	n := int(r.u32())
	if r.err || n <= 0 {
		if n != 0 {
			r.fail()
		}
		return nil
	}
	if len(r.b)-r.off < 8*n {
		r.fail()
		return nil
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		dst[i] = r.f64()
	}
	return dst
}

func (r *binReader) bools(dst []bool) []bool {
	n := int(r.u32())
	if r.err || n <= 0 {
		if n != 0 {
			r.fail()
		}
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	if cap(dst) < n {
		dst = make([]bool, n)
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		switch b[i] {
		case 0:
			dst[i] = false
		case 1:
			dst[i] = true
		default:
			r.fail()
			return nil
		}
	}
	return dst
}

// FrameDecoder carries the per-connection receive state of the
// binary codec: the payload scratch buffer the decoded Envelope
// aliases, and a small intern cache for the handful of distinct ID
// strings one connection sees. A decoded Envelope (and anything
// Opened out of it that aliases strings) is valid until the next
// Decode on the same FrameDecoder — the transport's Recv contract.
// The zero value is ready to use. Not safe for concurrent use.
type FrameDecoder struct {
	scratch []byte
	lenb    [binLenPrefix]byte
	// have counts the bytes of the current frame, length prefix
	// included, that readFrom has consumed so far.
	have int
	// unframed latches a length prefix out of bounds: the stream
	// position no longer falls on a frame boundary, so every later
	// readFrom fails with it instead of misreading payload as a prefix.
	unframed error
	names    [8]string
	nNames   int
}

// intern returns a string equal to b, reusing a previously decoded
// one when possible. The linear scan over at most 8 entries with a
// direct ==string(b) comparison is allocation-free.
func (d *FrameDecoder) intern(b []byte) string {
	for i := 0; i < d.nNames; i++ {
		if d.names[i] == string(b) {
			return d.names[i]
		}
	}
	s := string(b)
	if d.nNames < len(d.names) {
		d.names[d.nNames] = s
		d.nNames++
	}
	return s
}

// grow returns d's scratch buffer resized to n bytes, reallocating
// only when capacity is short.
func (d *FrameDecoder) grow(n int) []byte {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	d.scratch = d.scratch[:n]
	return d.scratch
}

// readFrom reads the rest of one frame from r into d's scratch buffer,
// resuming wherever an earlier call stopped: an error mid-frame (a
// read deadline, typically) keeps the bytes read so far, so the next
// call completes the same frame instead of reading its tail as a new
// length prefix. n is the number of bytes this call consumed. A length
// prefix out of bounds is rejected before any payload buffer is sized;
// the stream is then no longer framed, and the rejection sticks.
func (d *FrameDecoder) readFrom(r io.Reader) (n int, err error) {
	if d.unframed != nil {
		return 0, d.unframed
	}
	if d.have < binLenPrefix {
		m, err := io.ReadFull(r, d.lenb[d.have:])
		n += m
		d.have += m
		if err != nil {
			return n, fmt.Errorf("v2i: read: %w", err)
		}
		b := &d.lenb
		size := int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		if size >= MaxFrameBytes {
			d.unframed = fmt.Errorf("v2i: read %d bytes: %w", size, ErrFrameTooLarge)
			return n, d.unframed
		}
		if size < binMinPayload {
			d.unframed = fmt.Errorf("v2i: binary payload of %d bytes: truncated header", size)
			return n, d.unframed
		}
		d.grow(size)
	}
	m, err := io.ReadFull(r, d.scratch[d.have-binLenPrefix:])
	n += m
	d.have += m
	if err != nil {
		return n, fmt.Errorf("v2i: read: %w", err)
	}
	d.have = 0
	return n, nil
}

// Decode parses one complete binary frame — length prefix included,
// no trailing bytes — into an Envelope whose Body and From alias the
// frame (or d's intern cache). The frame bytes must stay untouched
// while the Envelope is in use.
func (d *FrameDecoder) Decode(frame []byte) (Envelope, error) {
	if len(frame) < binLenPrefix {
		return Envelope{}, fmt.Errorf("v2i: binary frame of %d bytes: short length prefix", len(frame))
	}
	n := int(uint32(frame[0]) | uint32(frame[1])<<8 | uint32(frame[2])<<16 | uint32(frame[3])<<24)
	if n != len(frame)-binLenPrefix {
		return Envelope{}, fmt.Errorf("v2i: binary frame length prefix %d does not match %d payload bytes", n, len(frame)-binLenPrefix)
	}
	return d.parsePayload(frame[binLenPrefix:])
}

// parsePayload decodes the payload that follows the length prefix.
func (d *FrameDecoder) parsePayload(p []byte) (Envelope, error) {
	if len(p) >= MaxFrameBytes {
		return Envelope{}, fmt.Errorf("v2i: recv %d bytes: %w", len(p), ErrFrameTooLarge)
	}
	if len(p) < binMinPayload {
		return Envelope{}, fmt.Errorf("v2i: binary payload of %d bytes: truncated header", len(p))
	}
	r := binReader{b: p}
	code := r.u8()
	codec := r.u8()
	from := r.str(d, "")
	seq := r.u64()
	if r.err {
		return Envelope{}, fmt.Errorf("v2i: binary payload of %d bytes: truncated header", len(p))
	}
	if int(code) >= len(binTypes) || binTypes[code] == "" {
		return Envelope{}, fmt.Errorf("v2i: unknown binary message code %d", code)
	}
	if codec != typedBodyCodec {
		return Envelope{}, fmt.Errorf("v2i: unknown body codec %d", codec)
	}
	return Envelope{Type: binTypes[code], From: from, Seq: seq, Body: p[r.off:], dec: d}, nil
}

// decodeBinaryBody decodes a typed-binary body into out, reusing
// out's slice storage. Trailing bytes are an error so corruption
// cannot hide behind a successful prefix parse.
func decodeBinaryBody(typ MessageType, body []byte, d *FrameDecoder, out any) error {
	r := binReader{b: body}
	switch m := out.(type) {
	case *Hello:
		m.VehicleID = r.str(d, m.VehicleID)
		m.MaxPowerKW = r.f64()
		m.VelocityMS = r.f64()
		m.SOC = r.f64()
	case *Quote:
		m.VehicleID = r.str(d, m.VehicleID)
		m.Others = r.f64s(m.Others)
		decodeCostSpec(&r, d, &m.Cost)
		m.Round = r.i32()
		m.Epoch = r.u64()
		m.FleetSize = r.i32()
		m.Live = r.bools(m.Live)
	case *Request:
		m.VehicleID = r.str(d, m.VehicleID)
		m.TotalKW = r.f64()
		m.DrawCapKW = r.f64()
		m.Round = r.i32()
		m.Epoch = r.u64()
	case *ScheduleMsg:
		m.VehicleID = r.str(d, m.VehicleID)
		m.AllocKW = r.f64s(m.AllocKW)
		m.PaymentH = r.f64()
		m.Round = r.i32()
	case *Converged:
		m.Rounds = r.i32()
		m.CongestionDegree = r.f64()
		m.WelfarePerHour = r.f64()
	case *Bye:
		m.Reason = r.str(d, m.Reason)
	case *Heartbeat:
		m.Epoch = r.u64()
		m.Round = r.i32()
	case *CostSpec:
		decodeCostSpec(&r, d, m)
	default:
		return fmt.Errorf("v2i: no binary decoder for %T", out)
	}
	if r.err {
		return fmt.Errorf("v2i: truncated %s body", typ)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("v2i: %d trailing bytes after %s body", len(r.b)-r.off, typ)
	}
	return nil
}

func decodeCostSpec(r *binReader, d *FrameDecoder, m *CostSpec) {
	m.Kind = r.str(d, m.Kind)
	m.BetaPerKWh = r.f64()
	m.Alpha = r.f64()
	m.LineCapacityKW = r.f64()
	m.OverloadKappaPerKWh = r.f64()
	m.OverloadCapacityKW = r.f64()
}

// DecodeBinaryFrame parses one complete binary frame with a fresh
// decoder. Convenience for tests and one-shot callers; hot paths
// hold a FrameDecoder and call its Decode.
func DecodeBinaryFrame(frame []byte) (Envelope, error) {
	var d FrameDecoder
	return d.Decode(frame)
}
