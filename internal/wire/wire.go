// Package wire implements a compact, self-describing tag-length-value
// encoding used by every CliqueMap protocol message.
//
// The encoding is deliberately protobuf-like: each field is identified by a
// numeric tag and a wire type, and decoders skip fields they do not know.
// That unknown-field tolerance is what lets clients and backends be upgraded
// independently (§6 of the paper: "over a hundred changes to CliqueMap's
// protocol definitions" were shipped against live traffic). Messages are
// always prefixed by a format version; decoders accept any version whose
// major component matches.
package wire

import (
	"errors"
	"fmt"
	"io"
)

// Wire types. A field header is (tag<<3 | type) encoded as a uvarint.
const (
	typeVarint  = 0 // uint64, bool, enums
	typeFixed64 = 1 // uint64 little-endian; decoded only so it can be skipped
	typeBytes   = 2 // length-delimited: bytes, string, nested message
)

// Format versions carried on every message. Bump Minor for additive changes
// (old decoders skip the new fields); bump Major only for incompatible
// layout changes, which force clients onto the RPC fallback path until they
// refresh (§3, self-validating responses).
const (
	FormatMajor = 1
	FormatMinor = 4
)

var (
	// ErrTruncated reports a message that ended mid-field.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrVersion reports a major-version mismatch.
	ErrVersion = errors.New("wire: incompatible format version")
	// ErrOverflow reports a varint wider than 64 bits.
	ErrOverflow = errors.New("wire: varint overflows uint64")
)

// AppendUvarint appends v in LEB128 form.
func AppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// Uvarint decodes a LEB128 value, returning it and the bytes consumed.
func Uvarint(b []byte) (uint64, int, error) {
	var v uint64
	var shift uint
	for i, c := range b {
		if i == 10 {
			return 0, 0, ErrOverflow
		}
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, 0, ErrOverflow
			}
			return v | uint64(c)<<shift, i + 1, nil
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0, ErrTruncated
}

// Encoder builds a message. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder whose output begins with the current format
// version header.
func NewEncoder() *Encoder {
	e := &Encoder{buf: make([]byte, 0, 128)}
	e.buf = AppendUvarint(e.buf, FormatMajor)
	e.buf = AppendUvarint(e.buf, FormatMinor)
	return e
}

// InitSized readies a (typically stack-allocated) encoder with a sized
// buffer and the version header. Hot-path marshalers use a value Encoder
// with InitSized so only the returned buffer escapes to the heap.
func (e *Encoder) InitSized(capacity int) {
	if capacity < 16 {
		capacity = 16
	}
	e.buf = make([]byte, 0, capacity)
	e.buf = AppendUvarint(e.buf, FormatMajor)
	e.buf = AppendUvarint(e.buf, FormatMinor)
}

// InitAppend readies a (typically stack-allocated) encoder to append a
// message, version header first, to buf, whose storage it takes over:
// Encoded returns buf's bytes followed by the message, in buf's array when
// the message fits its capacity. A transport that keeps one send buffer per
// connection passes it here with room for its frame prefix in front.
func (e *Encoder) InitAppend(buf []byte) {
	e.buf = AppendUvarint(buf, FormatMajor)
	e.buf = AppendUvarint(e.buf, FormatMinor)
}

// NewRawEncoder returns an encoder with no version header, for nested
// messages.
func NewRawEncoder() *Encoder { return &Encoder{buf: make([]byte, 0, 64)} }

func (e *Encoder) header(tag uint64, wt byte) {
	e.buf = AppendUvarint(e.buf, tag<<3|uint64(wt))
}

// Uint encodes an unsigned field.
func (e *Encoder) Uint(tag uint64, v uint64) {
	e.header(tag, typeVarint)
	e.buf = AppendUvarint(e.buf, v)
}

// Int encodes a signed field with zigzag.
func (e *Encoder) Int(tag uint64, v int64) {
	e.Uint(tag, uint64(v<<1)^uint64(v>>63))
}

// Bool encodes a boolean field.
func (e *Encoder) Bool(tag uint64, v bool) {
	var u uint64
	if v {
		u = 1
	}
	e.Uint(tag, u)
}

// Bytes encodes a length-delimited field.
func (e *Encoder) Bytes(tag uint64, v []byte) {
	e.header(tag, typeBytes)
	e.buf = AppendUvarint(e.buf, uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// String encodes a string field.
func (e *Encoder) String(tag uint64, v string) {
	e.header(tag, typeBytes)
	e.buf = AppendUvarint(e.buf, uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Message encodes a nested raw-encoded message.
func (e *Encoder) Message(tag uint64, m *Encoder) { e.Bytes(tag, m.buf) }

// BeginMessage opens a nested message under tag that is encoded in place:
// the fields written until the matching EndMessage are its body, and no
// second buffer is involved. The bytes equal Message's.
func (e *Encoder) BeginMessage(tag uint64) (at int) {
	e.header(tag, typeBytes)
	return len(e.buf)
}

// EndMessage closes the nested message opened at at, shifting its body
// right to admit the length prefix.
func (e *Encoder) EndMessage(at int) {
	var pre [10]byte
	n := AppendUvarint(pre[:0], uint64(len(e.buf)-at))
	e.buf = append(e.buf, n...)
	copy(e.buf[at+len(n):], e.buf[at:])
	copy(e.buf[at:], n)
}

// Encoded returns the encoded message. The slice aliases internal storage.
func (e *Encoder) Encoded() []byte { return e.buf }

// Len returns the current encoded length.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse, re-emitting the version header if the
// encoder was created with one.
func (e *Encoder) Reset(withHeader bool) {
	e.buf = e.buf[:0]
	if withHeader {
		e.buf = AppendUvarint(e.buf, FormatMajor)
		e.buf = AppendUvarint(e.buf, FormatMinor)
	}
}

// Decoder iterates fields of an encoded message.
type Decoder struct {
	buf []byte
	pos int

	tag uint64
	wt  byte
	err error

	uval  uint64
	bval  []byte
	isVal bool
}

// Init readies a (typically stack-allocated) decoder over b, parsing the
// version header. Hot paths use a value Decoder with Init to keep message
// decoding allocation-free.
func (d *Decoder) Init(b []byte) error {
	*d = Decoder{buf: b}
	maj, n, err := Uvarint(b)
	if err != nil {
		return err
	}
	d.pos += n
	min, n, err := Uvarint(b[d.pos:])
	if err != nil {
		return err
	}
	d.pos += n
	if maj != FormatMajor {
		return fmt.Errorf("%w: got %d.%d, want major %d", ErrVersion, maj, min, FormatMajor)
	}
	return nil
}

// NewRawDecoder decodes a nested message (no version header).
func NewRawDecoder(b []byte) *Decoder {
	return &Decoder{buf: b}
}

// Next advances to the next field, returning false at end of message or on
// error; check Err afterwards.
func (d *Decoder) Next() bool {
	d.isVal = false
	if d.err != nil || d.pos >= len(d.buf) {
		return false
	}
	h, n, err := Uvarint(d.buf[d.pos:])
	if err != nil {
		d.err = err
		return false
	}
	d.pos += n
	d.tag = h >> 3
	d.wt = byte(h & 7)
	switch d.wt {
	case typeVarint:
		v, n, err := Uvarint(d.buf[d.pos:])
		if err != nil {
			d.err = err
			return false
		}
		d.pos += n
		d.uval = v
	case typeFixed64:
		if d.pos+8 > len(d.buf) {
			d.err = ErrTruncated
			return false
		}
		b := d.buf[d.pos:]
		d.uval = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		d.pos += 8
	case typeBytes:
		l, n, err := Uvarint(d.buf[d.pos:])
		if err != nil {
			d.err = err
			return false
		}
		d.pos += n
		if uint64(len(d.buf)-d.pos) < l {
			d.err = ErrTruncated
			return false
		}
		d.bval = d.buf[d.pos : d.pos+int(l)]
		d.pos += int(l)
	default:
		d.err = fmt.Errorf("wire: unknown wire type %d for tag %d", d.wt, d.tag)
		return false
	}
	d.isVal = true
	return true
}

// Count returns how many fields under tag follow the current one, so a
// repeated field can land in one exact-size slice. It scans a copy: d stays
// put.
func (d Decoder) Count(tag uint64) (n int) {
	for d.Next() {
		if d.tag == tag {
			n++
		}
	}
	return n
}

// Err returns the first decoding error encountered.
func (d *Decoder) Err() error { return d.err }

// Tag returns the current field's tag.
func (d *Decoder) Tag() uint64 { return d.tag }

// Uint returns the current field as an unsigned integer.
func (d *Decoder) Uint() uint64 {
	if !d.isVal || d.wt == typeBytes {
		return 0
	}
	return d.uval
}

// Int returns the current field zigzag-decoded.
func (d *Decoder) Int() int64 {
	u := d.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool returns the current field as a boolean.
func (d *Decoder) Bool() bool { return d.Uint() != 0 }

// Bytes returns the current length-delimited field. The slice aliases the
// input buffer.
func (d *Decoder) Bytes() []byte {
	if !d.isVal || d.wt != typeBytes {
		return nil
	}
	return d.bval
}

// String returns the current field as a string (copies).
func (d *Decoder) String() string { return string(d.Bytes()) }

// frameChunk is the largest buffer a frame's length prefix gets on its word
// alone; see ReadFrameBody.
const frameChunk = 64 << 10

// ReadFrameBody reads the size-byte body of a length-prefixed frame from r
// into dst's storage, or a fresh buffer of exactly that size. Bounds before
// bytes: size comes from a prefix a stranger wrote (the caller has checked
// it against its own frame limit), so a body past frameChunk and dst gets
// its buffer in doubling steps, each earned by the bytes before it.
func ReadFrameBody(dst []byte, r io.Reader, size int) ([]byte, error) {
	buf := dst[:min(size, cap(dst))]
	if len(buf) < min(size, frameChunk) {
		buf = make([]byte, min(size, frameChunk))
	}
	for got := 0; ; {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return nil, err
		}
		if got = len(buf); got == size {
			return buf, nil
		}
		next := make([]byte, min(size, 2*got))
		copy(next, buf)
		buf = next
	}
}
