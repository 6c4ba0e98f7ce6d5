// Package v2i implements the vehicle-to-infrastructure messaging the
// paper's decentralized framework rides on: typed messages, an
// in-memory transport for simulation that carries them as sealed
// Envelopes, a TCP transport standing in for the paper's IEEE 802.11p
// / LTE links that carries them as length-prefixed binary frames, and
// a fault-injecting wrapper for failure testing.
//
// Every protocol body has one encoding, the fixed-layout binary body
// codec (binary.go): Seal writes it, a connection frame carries it,
// and Open reads it back. Float64s travel as their IEEE-754 bits, so a
// message crosses an in-memory link and a connection bit for bit
// alike. A body type with no fixed layout cannot be sealed.
package v2i

import "fmt"

// MessageType discriminates envelope payloads.
type MessageType string

// The protocol's message types.
const (
	// TypeHello registers an OLEV with the smart grid.
	TypeHello MessageType = "hello"
	// TypeQuote carries the smart grid's payment function state Ψ_n:
	// the background load and the section cost parameters.
	TypeQuote MessageType = "quote"
	// TypeRequest carries an OLEV's best-response total power request.
	TypeRequest MessageType = "request"
	// TypeSchedule notifies an OLEV of its water-filled allocation.
	TypeSchedule MessageType = "schedule"
	// TypeConverged tells agents the iteration has settled.
	TypeConverged MessageType = "converged"
	// TypeBye ends a session.
	TypeBye MessageType = "bye"
	// TypeHeartbeat is the coordinator's liveness beacon: agents use it
	// to distinguish "the grid is alive but hasn't reached my turn yet"
	// from "the control plane is gone", which arms the degraded-mode
	// fallback only in the second case.
	TypeHeartbeat MessageType = "heartbeat"
)

// Envelope is the frame around every message: the header of a binary
// frame and its typed-binary Body. A sealed Envelope and one decoded
// from a frame are the same value.
type Envelope struct {
	Type MessageType
	From string
	Seq  uint64
	Body []byte

	// dec is the decoder whose scratch a decoded Body aliases (its
	// intern cache keeps repeated ID strings allocation-free); nil for
	// a sealed envelope, which owns its Body.
	dec *FrameDecoder
}

// Hello registers a vehicle.
type Hello struct {
	VehicleID  string  `json:"vehicle_id"`
	MaxPowerKW float64 `json:"max_power_kw"`
	VelocityMS float64 `json:"velocity_ms"`
	SOC        float64 `json:"soc"`
}

// CostSpec serializes the shared section cost Z so agents can evaluate
// the quoted payment function locally.
type CostSpec struct {
	// Kind is "nonlinear" or "linear".
	Kind string `json:"kind"`
	// BetaPerKWh is the charging price coefficient in $/kWh.
	BetaPerKWh float64 `json:"beta_per_kwh"`
	// Alpha is the nonlinear policy's α (ignored for linear).
	Alpha float64 `json:"alpha,omitempty"`
	// LineCapacityKW normalizes the nonlinear price (ignored for
	// linear).
	LineCapacityKW float64 `json:"line_capacity_kw,omitempty"`
	// OverloadKappaPerKWh and OverloadCapacityKW parameterize the
	// overload penalty; zero kappa means no penalty.
	OverloadKappaPerKWh float64 `json:"overload_kappa_per_kwh,omitempty"`
	OverloadCapacityKW  float64 `json:"overload_capacity_kw,omitempty"`
}

// Quote is the smart grid's Ψ_n announcement (Eq. 20): everything an
// OLEV needs to evaluate its payment for any total request.
type Quote struct {
	VehicleID string    `json:"vehicle_id"`
	Others    []float64 `json:"others"`
	Cost      CostSpec  `json:"cost"`
	Round     int       `json:"round"`
	// Epoch is the schedule version the quoted background load was
	// computed against. Agents echo it in their Request so the grid
	// can tell a best-response to this quote from one computed against
	// an outdated background load (a late or replayed frame).
	Epoch uint64 `json:"epoch"`
	// FleetSize is the number of vehicles currently scheduled — the
	// denominator of the degraded-mode proportional split an agent
	// falls back to when the control plane goes silent.
	FleetSize int `json:"fleet_size,omitempty"`
	// Live, when present, flags which sections are energized; a dead
	// section (false) must receive no allocation. Absent means all
	// sections live.
	Live []bool `json:"live,omitempty"`
}

// Request is an OLEV's best-response total power request (Eq. 21).
type Request struct {
	VehicleID string  `json:"vehicle_id"`
	TotalKW   float64 `json:"total_kw"`
	// DrawCapKW carries the vehicle's Eq. (3) per-section coupling
	// limit so the grid's schedule honors it; zero means uncapped.
	DrawCapKW float64 `json:"draw_cap_kw,omitempty"`
	Round     int     `json:"round"`
	// Epoch echoes the Epoch of the Quote this request answers; the
	// grid discards requests whose epoch no longer matches the current
	// schedule version instead of water-filling a stale best-response.
	Epoch uint64 `json:"epoch"`
}

// ScheduleMsg notifies an OLEV of its allocation across sections.
type ScheduleMsg struct {
	VehicleID string    `json:"vehicle_id"`
	AllocKW   []float64 `json:"alloc_kw"`
	PaymentH  float64   `json:"payment_per_hour"`
	Round     int       `json:"round"`
}

// Converged announces the settled outcome.
type Converged struct {
	Rounds           int     `json:"rounds"`
	CongestionDegree float64 `json:"congestion_degree"`
	WelfarePerHour   float64 `json:"welfare_per_hour"`
}

// Bye closes a session; Reason is informational.
type Bye struct {
	Reason string `json:"reason,omitempty"`
}

// Heartbeat is the coordinator's periodic liveness beacon. Epoch and
// Round let an agent observe which coordinator incarnation is alive —
// after a failover the standby's heartbeats carry a fenced (strictly
// higher) epoch, so a partitioned primary's stale beacons are
// recognizable.
type Heartbeat struct {
	Epoch uint64 `json:"epoch"`
	Round int    `json:"round"`
}

// Seal encodes a body into an envelope. A body with a fixed binary
// layout — a protocol struct or a pointer to one — is written with the
// typed-binary body codec, a pointer into one allocation of its exact
// size, so floats keep their IEEE-754 bits; the error is then the
// codec's (a string longer than 65535 bytes, or an int outside int32,
// which the wire carries in four bytes). NaN and ±Inf are encoded like any
// other bits, as on a connection: receivers reject them where they are
// invalid. A body with no binary layout is an error.
func Seal(t MessageType, from string, seq uint64, body any) (Envelope, error) {
	raw, ok, err := appendBinaryBody(make([]byte, 0, binaryBodySize(body)), body)
	if err != nil {
		return Envelope{}, err
	}
	if !ok {
		return Envelope{}, fmt.Errorf("v2i: %s body %T has no binary layout", t, body)
	}
	return Envelope{Type: t, From: from, Seq: seq, Body: raw}, nil
}

// Open decodes an envelope's typed-binary body into out, checking the
// type tag. It reuses out's slice storage and rejects truncated or
// trailing bytes.
func Open(env Envelope, want MessageType, out any) error {
	if env.Type != want {
		return fmt.Errorf("v2i: got %s, want %s", env.Type, want)
	}
	return decodeBinaryBody(env.Type, env.Body, env.dec, out)
}
