package trace

import (
	"cliquemap/internal/fabric"
	"cliquemap/internal/wire"
)

// Span wire codec, shared by the TCP gateway frames and the Debug RPC.
// Each span is a raw nested message {1: code, 2: arg, 3: start, 4: dur}
// repeated on the caller's chosen tag.

// MaxWireSpans caps the spans accepted from one message — spans are
// diagnostic freight, so a malformed or hostile frame must not balloon
// memory.
const MaxWireSpans = 4096

// EncodeSpans appends spans as repeated nested messages under tag, each
// encoded in place in e.
func EncodeSpans(e *wire.Encoder, tag uint64, spans []fabric.Span) {
	for _, s := range spans {
		at := e.BeginMessage(tag)
		e.Uint(1, uint64(s.Code))
		e.Uint(2, uint64(s.Arg))
		e.Uint(3, s.Start)
		e.Uint(4, s.Dur)
		e.EndMessage(at)
	}
}

// DecodeSpan parses one nested span message. Malformed input degrades to
// zero fields rather than failing: span ids wider than 16 bits truncate,
// and a decode error yields whatever fields parsed — trace freight must
// never take down the RPC decoder around it.
func DecodeSpan(b []byte) fabric.Span {
	var s fabric.Span
	d := wire.NewRawDecoder(b)
	for d.Next() {
		switch d.Tag() {
		case 1:
			s.Code = uint16(d.Uint())
		case 2:
			s.Arg = uint32(d.Uint())
		case 3:
			s.Start = d.Uint()
		case 4:
			s.Dur = d.Uint()
		}
	}
	return s
}
