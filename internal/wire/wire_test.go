package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// appendFixed64 writes a fixed64-typed field, a wire type no message
// declares but every decoder must step over.
func appendFixed64(e *Encoder, tag, v uint64) {
	e.header(tag, typeFixed64)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func mustDecoder(t *testing.T, b []byte) *Decoder {
	t.Helper()
	var d Decoder
	if err := d.Init(b); err != nil {
		t.Fatal(err)
	}
	return &d
}

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<32 - 1, 1 << 45, math.MaxUint64}
	for _, v := range cases {
		b := AppendUvarint(nil, v)
		got, n, err := Uvarint(b)
		if err != nil {
			t.Fatalf("Uvarint(%d): %v", v, err)
		}
		if got != v || n != len(b) {
			t.Errorf("Uvarint(%d) = %d (n=%d, len=%d)", v, got, n, len(b))
		}
	}
}

func TestUvarintProperty(t *testing.T) {
	f := func(v uint64) bool {
		got, n, err := Uvarint(AppendUvarint(nil, v))
		return err == nil && got == v && n == len(AppendUvarint(nil, v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarintTruncated(t *testing.T) {
	b := AppendUvarint(nil, 1<<40)
	for i := 0; i < len(b); i++ {
		if _, _, err := Uvarint(b[:i]); err == nil {
			t.Errorf("Uvarint of %d/%d bytes: want error", i, len(b))
		}
	}
}

func TestUvarintOverflow(t *testing.T) {
	// 11 continuation bytes cannot be a valid uint64.
	b := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := Uvarint(b); err != ErrOverflow {
		t.Errorf("overflow varint: got %v, want ErrOverflow", err)
	}
	// 10 bytes with high final byte also overflows.
	b = append(bytes.Repeat([]byte{0xff}, 9), 0x7f)
	if _, _, err := Uvarint(b); err != ErrOverflow {
		t.Errorf("10-byte high varint: got %v, want ErrOverflow", err)
	}
}

func TestEncodeDecodeAllTypes(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 42)
	e.Int(2, -7)
	e.Bool(3, true)
	appendFixed64(e, 4, 0xdeadbeefcafef00d)
	e.Bytes(6, []byte{9, 8, 7})
	e.String(7, "hello")
	nested := NewRawEncoder()
	nested.Uint(1, 99)
	e.Message(8, nested)

	d := mustDecoder(t, e.Encoded())
	seen := map[uint64]bool{}
	for d.Next() {
		seen[d.Tag()] = true
		switch d.Tag() {
		case 1:
			if d.Uint() != 42 {
				t.Errorf("tag1 = %d", d.Uint())
			}
		case 2:
			if d.Int() != -7 {
				t.Errorf("tag2 = %d", d.Int())
			}
		case 3:
			if !d.Bool() {
				t.Error("tag3 = false")
			}
		case 4:
			if d.Uint() != 0xdeadbeefcafef00d {
				t.Errorf("tag4 = %x", d.Uint())
			}
		case 6:
			if !bytes.Equal(d.Bytes(), []byte{9, 8, 7}) {
				t.Errorf("tag6 = %v", d.Bytes())
			}
		case 7:
			if d.String() != "hello" {
				t.Errorf("tag7 = %q", d.String())
			}
		case 8:
			nd := NewRawDecoder(d.Bytes())
			if !nd.Next() || nd.Uint() != 99 {
				t.Errorf("nested decode failed")
			}
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for _, tag := range []uint64{1, 2, 3, 4, 6, 7, 8} {
		if !seen[tag] {
			t.Errorf("tag %d not decoded", tag)
		}
	}
}

// TestUnknownFieldSkip is the forward-compatibility property: a decoder
// must silently pass over tags it does not understand, of every wire type.
func TestUnknownFieldSkip(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 10)
	e.Uint(1000, 5)                  // unknown varint
	appendFixed64(e, 1001, 7)        // unknown fixed
	e.Bytes(1002, make([]byte, 300)) // unknown bytes
	e.Uint(2, 20)

	d := mustDecoder(t, e.Encoded())
	var got []uint64
	for d.Next() {
		if d.Tag() == 1 || d.Tag() == 2 {
			got = append(got, d.Uint())
		}
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("known fields = %v, want [10 20]", got)
	}
}

func TestVersionMismatch(t *testing.T) {
	b := AppendUvarint(nil, FormatMajor+1)
	b = AppendUvarint(b, 0)
	var d Decoder
	if err := d.Init(b); err == nil {
		t.Error("major version mismatch not detected")
	}
}

func TestTruncatedMessage(t *testing.T) {
	e := NewEncoder()
	e.Bytes(1, make([]byte, 100))
	appendFixed64(e, 2, 1)
	full := e.Encoded()
	for i := 3; i < len(full); i++ {
		var d Decoder
		if err := d.Init(full[:i]); err != nil {
			continue // header itself truncated: acceptable failure point
		}
		for d.Next() {
		}
		// Must either consume cleanly (if cut at a field boundary) or error;
		// it must never panic or loop. Reaching here is the assertion.
		_ = d.Err()
	}
}

func TestDecoderTypeConfusion(t *testing.T) {
	e := NewEncoder()
	e.Bytes(1, []byte("abc"))
	e.Uint(2, 5)
	d := mustDecoder(t, e.Encoded())
	d.Next()
	if d.Uint() != 0 {
		t.Error("Uint on bytes field should return 0")
	}
	d.Next()
	if d.Bytes() != nil {
		t.Error("Bytes on varint field should return nil")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 1)
	e.Reset(true)
	e.Uint(2, 2)
	d := mustDecoder(t, e.Encoded())
	if !d.Next() || d.Tag() != 2 {
		t.Error("reset encoder retained old fields")
	}
}

func TestIntZigzagProperty(t *testing.T) {
	f := func(v int64) bool {
		e := NewRawEncoder()
		e.Int(1, v)
		d := NewRawDecoder(e.Encoded())
		return d.Next() && d.Int() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	f := func(p []byte) bool {
		e := NewRawEncoder()
		e.Bytes(3, p)
		d := NewRawDecoder(e.Encoded())
		return d.Next() && bytes.Equal(d.Bytes(), p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeSmallMessage(b *testing.B) {
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder()
		e.Uint(1, uint64(i))
		e.Bytes(2, payload)
		_ = e.Encoded()
	}
}

func BenchmarkDecodeSmallMessage(b *testing.B) {
	e := NewEncoder()
	e.Uint(1, 7)
	e.Bytes(2, make([]byte, 64))
	msg := e.Encoded()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var d Decoder
		_ = d.Init(msg)
		for d.Next() {
		}
	}
}

// BeginMessage/EndMessage must produce Message's bytes at every width of
// the length prefix: the body is shifted right by one byte up to 127, by
// two from 128, by three from 16384.
func TestInPlaceMessageMatchesMessage(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384} {
		body := bytes.Repeat([]byte{0xa5}, n)
		nested := NewRawEncoder()
		nested.Bytes(1, body)
		nested.Uint(2, uint64(n))
		want := NewEncoder()
		want.Uint(1, 7)
		want.Message(9, nested)
		want.String(10, "after")

		got := NewEncoder()
		got.Uint(1, 7)
		at := got.BeginMessage(9)
		got.Bytes(1, body)
		got.Uint(2, uint64(n))
		got.EndMessage(at)
		got.String(10, "after")
		if !bytes.Equal(got.Encoded(), want.Encoded()) {
			t.Errorf("%d-byte body: in-place nesting differs from Message", n)
		}
	}
}

// InitAppend encodes behind a caller's prefix, in the caller's storage when
// the message fits and in fresh storage — prefix carried along — when not.
func TestInitAppend(t *testing.T) {
	ref := NewEncoder()
	ref.String(1, "hello")
	for _, capacity := range []int{4, 64} {
		scratch := make([]byte, 4, capacity)
		copy(scratch, "PFX!")
		var e Encoder
		e.InitAppend(scratch)
		e.String(1, "hello")
		got := e.Encoded()
		if string(got[:4]) != "PFX!" || !bytes.Equal(got[4:], ref.Encoded()) {
			t.Errorf("cap %d: encoded %q", capacity, got)
		}
		if inPlace := &got[0] == &scratch[0]; inPlace != (capacity == 64) {
			t.Errorf("cap %d: message in the caller's storage = %v", capacity, inPlace)
		}
	}
}

// ReadFrameBody: a body of any size lands whole in a buffer of exactly that
// size, or in the caller's storage when that has room; and a size nothing
// backs costs one chunk, not the size.
func TestReadFrameBody(t *testing.T) {
	for _, n := range []int{0, 1, frameChunk - 1, frameChunk, frameChunk + 1, 3*frameChunk + 7} {
		src := make([]byte, n+5) // trailing bytes belong to the next frame
		for i := range src {
			src[i] = byte(i * 31)
		}
		for _, room := range []int{0, frameChunk, 3*frameChunk + 7} {
			dst := make([]byte, 3, room+3)[3:]
			r := bytes.NewReader(src)
			got, err := ReadFrameBody(dst, r, n)
			if err != nil || !bytes.Equal(got, src[:n]) {
				t.Errorf("size %d, room %d: read %d bytes, err %v", n, room, len(got), err)
			}
			if inPlace := n > 0 && cap(got) == cap(dst) && &got[0] == &dst[:1][0]; inPlace != (n > 0 && n <= room) {
				t.Errorf("size %d, room %d: body in the caller's storage = %v", n, room, inPlace)
			}
			if n > room && cap(got) != n {
				t.Errorf("size %d, room %d: read into cap %d, want exactly the size", n, room, cap(got))
			}
			if r.Len() != 5 {
				t.Errorf("size %d, room %d: %d bytes left unread, want 5", n, room, r.Len())
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrameBody(nil, bytes.NewReader(make([]byte, 10)), 64<<20)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a truncated body read as whole")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a 64 MiB size over a 10-byte stream allocated %d bytes", got)
	}
}
