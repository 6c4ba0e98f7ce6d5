package v2i

import "context"

// TypedSender is implemented by transports that can encode a typed
// message body directly into a frame, skipping the sealed Envelope
// and its body allocation: on a connection it is the zero-allocation
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
// Faulty) so an Instrumented link can find the connection's byte
// counters beneath the decoration (findWireStats).
type Unwrapper interface {
	// Unwrap returns the transport this one decorates.
	Unwrap() Transport
}
