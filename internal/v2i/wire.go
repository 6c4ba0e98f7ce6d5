package v2i

import (
	"context"
	"fmt"
)

// Wire identifies how a V2I link carries messages. The rule has no
// option behind it: in-memory links (NewPair) pass sealed Envelope
// values, and every connection-backed transport (Dial, Server.Accept,
// NewConnTransport, NewPipePair) carries length-prefixed binary frames
// from its first byte (DESIGN.md §14). Both carry the same
// typed-binary body bytes. WireOf reports which one a transport is;
// the coordinator sends coalesced QuoteBatch quotes only to
// WireBinary links.
type Wire uint8

// The wire codecs.
const (
	// WireJSON is an in-memory link passing sealed Envelope values
	// (named for the JSON bodies those once held).
	WireJSON Wire = iota
	// WireBinary is the length-prefixed fixed-layout binary codec.
	WireBinary
)

// String names the codec for logs and metric labels.
func (w Wire) String() string {
	switch w {
	case WireJSON:
		return "json"
	case WireBinary:
		return "binary"
	}
	return fmt.Sprintf("wire(%d)", uint8(w))
}

// TypedSender is implemented by transports that can encode a typed
// message body directly onto the wire, skipping the Envelope
// marshalling round trip: on a connection it is the zero-allocation
// send path. Wrappers that must see every frame as an Envelope — the
// fault injector in particular — deliberately do not implement it, so
// SendMsg through them falls back to the envelope path and the fault
// plan applies unchanged.
type TypedSender interface {
	SendTyped(ctx context.Context, typ MessageType, from string, seq uint64, body any) error
}

// SendMsg sends one typed message over any transport: the typed
// zero-alloc path when the transport offers it, Seal+Send otherwise.
// body should be a pointer to one of the protocol structs (a
// non-pointer value also works but may allocate).
func SendMsg(ctx context.Context, t Transport, typ MessageType, from string, seq uint64, body any) error {
	if ts, ok := t.(TypedSender); ok {
		return ts.SendTyped(ctx, typ, from, seq, body)
	}
	env, err := Seal(typ, from, seq, body)
	if err != nil {
		return err
	}
	return t.Send(ctx, env)
}

// Unwrapper is implemented by decorating transports (Instrumented,
// Faulty, the accept-slot wrapper) so callers can discover properties
// of the underlying connection without disturbing the decoration.
type Unwrapper interface {
	// Unwrap returns the transport this one decorates.
	Unwrap() Transport
}

// WireOf reports the codec a transport carries, unwrapping
// decorators: WireBinary when a connection-backed transport sits at
// the bottom of the chain, WireJSON otherwise (in-memory pairs,
// foreign implementations).
func WireOf(t Transport) Wire {
	if findWireStats(t) != nil {
		return WireBinary
	}
	return WireJSON
}
