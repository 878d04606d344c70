package wire

import "testing"

// The decoder faces bytes from the network; it must never panic or loop,
// regardless of input.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder()
	e.Uint(1, 42)
	e.Bytes(2, []byte("payload"))
	appendFixed64(e, 3, 7)
	f.Add(e.Encoded())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Trace-context frame shapes: an op id + kind string + attempt count
	// (RPC request tags 6-8) and nested span messages (code/arg/start/dur),
	// including one with a truncated varint and one with a wide span id.
	tc := NewEncoder()
	tc.Uint(6, 0xDEADBEEF)
	tc.String(7, "GET")
	tc.Uint(8, 2)
	span := NewRawEncoder()
	span.Uint(1, 3)
	span.Uint(2, 1)
	span.Uint(3, 4200)
	span.Uint(4, 900)
	tc.Message(6, span)
	f.Add(tc.Encoded())
	bad := NewEncoder()
	bad.Bytes(6, []byte{0x08}) // span message: tag 1 varint with no value
	wide := NewRawEncoder()
	wide.Uint(1, 0xFFFFF) // span id wider than 16 bits
	wide.Uint(4, 12)
	bad.Message(6, wide)
	f.Add(bad.Encoded())
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		if err := d.Init(data); err != nil {
			return
		}
		fields := 0
		for d.Next() {
			_ = d.Tag()
			_ = d.Uint()
			_ = d.Bytes()
			fields++
			if fields > len(data)+2 {
				t.Fatal("decoder yielded more fields than input bytes; loop suspected")
			}
		}
	})
}
