package rpc

import (
	"bytes"
	"slices"
	"testing"

	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
	"cliquemap/internal/wire"
)

// The reference decoders: the copying, per-field-allocating decoders the
// TCP path used before it decoded frames in place, kept verbatim. The
// fuzzers hold the in-place decoders to them, field for field.

func refDecodeTCPRequest(b []byte) (tcpRequest, error) {
	var r tcpRequest
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return r, err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.ID = d.Uint()
		case 2:
			r.Addr = d.String()
		case 3:
			r.Method = d.String()
		case 4:
			r.Principal = d.String()
		case 5:
			r.Payload = append([]byte(nil), d.Bytes()...)
		case 6:
			r.TraceID = d.Uint()
		case 7:
			r.Kind = d.String()
		case 8:
			r.Attempt = d.Uint()
		}
	}
	return r, d.Err()
}

func refDecodeTCPResponse(b []byte) (tcpResponse, error) {
	var r tcpResponse
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return r, err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.ID = d.Uint()
		case 2:
			r.OK = d.Bool()
		case 3:
			r.Payload = append([]byte(nil), d.Bytes()...)
		case 4:
			r.Err = d.String()
		case 5:
			r.TraceNs = d.Uint()
		case 6:
			if len(r.Spans) < trace.MaxWireSpans {
				r.Spans = append(r.Spans, trace.DecodeSpan(d.Bytes()))
			}
		}
	}
	return r, d.Err()
}

// message is what both frame types can do; frameOf encodes one the way a
// connection does and returns the message without its length prefix.
type message interface{ encode(*wire.Encoder) }

func frameOf(t testing.TB, m message) []byte {
	t.Helper()
	scratch := make([]byte, tcpPrefix, 64)
	e := beginTCPFrame(scratch)
	m.encode(&e)
	var sent bytes.Buffer
	if err := writeTCPFrame(&sent, &scratch, e.Encoded()); err != nil {
		t.Fatal(err)
	}
	frame, err := readTCPFrame(bufioOver(sent.Bytes()), nil)
	if err != nil {
		t.Fatalf("frame does not read back: %v", err)
	}
	return frame
}

func sameRequest(a, b tcpRequest) bool {
	return a.ID == b.ID && a.Addr == b.Addr && a.Method == b.Method && a.Principal == b.Principal &&
		bytes.Equal(a.Payload, b.Payload) && a.TraceID == b.TraceID && a.Kind == b.Kind && a.Attempt == b.Attempt
}

func sameResponse(a, b tcpResponse) bool {
	return a.ID == b.ID && a.OK == b.OK && bytes.Equal(a.Payload, b.Payload) && a.Err == b.Err &&
		a.TraceNs == b.TraceNs && slices.Equal(a.Spans, b.Spans)
}

// The TCP gateway decodes frames straight off the socket; malformed trace
// context — bogus span ids, truncated span messages, absurd lengths —
// must never panic the decoder, only degrade to zero values or an error:
// the same values and the same error as the reference decoder.
func FuzzTCPRequestFrame(f *testing.F) {
	f.Add(frameOf(f, &tcpRequest{ID: 1, Addr: "backend-0", Method: "CliqueMap.Get",
		Principal: "p", Payload: []byte("x")}))
	f.Add(frameOf(f, &tcpRequest{ID: 2, Addr: "backend-1", Method: "CliqueMap.Set",
		Principal: "p", TraceID: 99, Kind: "SET", Attempt: 3}))
	// Trace context with a garbage kind string and overflowing attempt.
	e := wire.NewEncoder()
	e.Uint(1, ^uint64(0))
	e.Uint(6, ^uint64(0))
	e.String(7, "\xff\xfe not-a-kind")
	e.Uint(8, ^uint64(0))
	f.Add(e.Encoded())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// One table across inputs, as across a connection's frames: later
	// inputs decode through its hits, its misses and its bound.
	names := make(internTable)
	f.Fuzz(func(t *testing.T, data []byte) {
		var r tcpRequest
		err := r.decode(data, names)
		want, wantErr := refDecodeTCPRequest(data)
		if (err == nil) != (wantErr == nil) || !sameRequest(r, want) {
			t.Fatalf("in-place decode = %+v, %v; reference = %+v, %v", r, err, want, wantErr)
		}
		if len(names) > internEntries {
			t.Fatalf("intern table grew to %d entries", len(names))
		}
		if err != nil {
			return
		}
		// Whatever decoded must re-encode without panicking.
		frameOf(t, &r)
	})
}

func FuzzTCPResponseFrame(f *testing.F) {
	f.Add(frameOf(f, &tcpResponse{ID: 1, OK: true, Payload: []byte("v"), TraceNs: 5000,
		Spans: []fabric.Span{{Code: 3, Arg: 1, Start: 0, Dur: 4000}}}))
	f.Add(frameOf(f, &tcpResponse{ID: 2, Err: "no such key"}))
	// Span list where one entry is a truncated varint and another has a
	// code wider than 16 bits.
	e := wire.NewEncoder()
	e.Uint(1, 3)
	e.Bytes(6, []byte{0x08})
	bad := wire.NewRawEncoder()
	bad.Uint(1, 0xFFFFF)
	bad.Uint(4, 12)
	e.Message(6, bad)
	f.Add(e.Encoded())
	// Spans interleaved with other fields, one of the wrong wire type, and
	// a truncated tail after the count has been taken.
	e = wire.NewEncoder()
	e.Bytes(6, nil)
	e.Uint(5, 9)
	e.Uint(6, 77)
	e.Bytes(3, []byte("late payload"))
	e.Bytes(6, []byte{0x08, 0x01})
	f.Add(e.Encoded())
	f.Add(append(e.Encoded(), 0x32, 0x7f))
	f.Add([]byte{})
	// One span slice across inputs, as a client connection reuses it.
	var spans []fabric.Span
	f.Fuzz(func(t *testing.T, data []byte) {
		var r, reused tcpResponse
		err := r.decode(data, nil)
		want, wantErr := refDecodeTCPResponse(data)
		if (err == nil) != (wantErr == nil) || !sameResponse(r, want) {
			t.Fatalf("in-place decode = %+v, %v; reference = %+v, %v", r, err, want, wantErr)
		}
		rerr := reused.decode(data, spans)
		spans = reused.Spans
		if (rerr == nil) != (wantErr == nil) || !sameResponse(reused, want) {
			t.Fatalf("decode into reused spans = %+v, %v; reference = %+v, %v", reused, rerr, want, wantErr)
		}
		if len(r.Spans) > trace.MaxWireSpans {
			t.Fatalf("decoder kept %d spans from %d input bytes", len(r.Spans), len(data))
		}
		if err != nil {
			return
		}
		frameOf(t, &r)
	})
}
