package wire

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"
)

// The struct-tag codec: a message type declares its schema once, as
// `wire:"N[,zigzag][,flat][,omitzero][,max=K]"` tags on its exported
// fields, and Append / Decode derive the encoder and decoder from it.
//
//	N         field tag on the wire; stable and append-only
//	zigzag    signed integer that may be negative (Encoder.Int); without
//	          it an integer travels as uint64(v), like Encoder.Uint
//	flat      nested struct spliced into the parent's tag space: inner
//	          tag t lands on N+t-1 (truetime.Version at N, N+1, N+2)
//	omitzero  encode only when non-zero (a later-added field whose
//	          absence old decoders already read as zero); on a flat
//	          field it applies to each inner field
//	max=K     repeated field: keep at most K elements of a received
//	          frame and skip the rest (diagnostic freight from a hostile
//	          peer must not balloon memory)
//
// Bools and integers are varints; string and []byte are length-delimited;
// a struct is a nested headerless message; any other slice is its element
// repeated under the one tag. Untagged fields do not travel. Decoding
// skips unknown tags and reads a field of the wrong wire type as zero,
// exactly as hand-written Decoder loops do.
//
// The alias rule: a decoded []byte field is a view of the input frame
// (nil when empty), valid while the frame is; a caller that keeps one past
// the frame's life copies it. Strings are copies.

// header is the format version every message starts with.
var header = AppendUvarint(AppendUvarint(nil, FormatMajor), FormatMinor)

// sliceHeader is the layout of any Go slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// Append appends m, version header first, to b and returns the extended
// slice. A b with no room at all (nil, say) first grows once, to the
// exact encoded size; room that b has is trusted.
func Append[T any](b []byte, m *T) []byte { return appendMsg(b, m) }

// Decode reads the message b into *m; its []byte fields alias b. A field
// the frame carries overwrites m's; a repeated one replaces its elements,
// reusing the storage of a list of scalars, strings or []byte. On error *m
// holds the fields decoded so far. A malformed nested message fails the
// whole decode.
func Decode[T any](b []byte, m *T) error { return decodeMsg(b, m) }

// Append and Decode inline to these, whose escape analysis every caller
// sees: m stays where the caller put it.

func appendMsg(b []byte, m any) []byte {
	p, at := planOf(m)
	if len(b) == cap(b) {
		b = slices.Grow(b, len(header)+p.size(at))
	}
	return p.encode(append(b, header...), at)
}

func decodeMsg(b []byte, m any) error {
	var d Decoder
	if err := d.Init(b); err != nil {
		return err
	}
	p, at := planOf(m)
	return p.decode(d, at)
}

// encode appends the fields of the message at base, a list's elements
// each under its tag.
func (p *plan) encode(b []byte, base unsafe.Pointer) []byte {
	for i := range p.ops {
		o := &p.ops[i]
		at := unsafe.Add(base, o.off)
		switch o.kind {
		case kString, kBytes:
			if v, sent := o.body(at); sent {
				b = append(AppendUvarint(AppendUvarint(b, o.key), uint64(len(v))), v...)
			}
		case kMessage:
			b = o.sub.encode(AppendUvarint(AppendUvarint(b, o.key), uint64(o.sub.size(at))), at)
		case kList:
			s := (*sliceHeader)(at)
			for j := 0; j < s.len; j++ {
				b = o.sub.encode(b, unsafe.Add(s.data, uintptr(j)*o.esize))
			}
		case kWord:
			if u := *(*uint64)(at); u != 0 || !o.omitzero {
				b = AppendUvarint(AppendUvarint(b, o.key), u)
			}
		default:
			if u := o.load(at); u != 0 || !o.omitzero {
				b = AppendUvarint(AppendUvarint(b, o.key), u)
			}
		}
	}
	return b
}

// size is the length encode appends for the message at base.
func (p *plan) size(base unsafe.Pointer) (n int) {
	for i := range p.ops {
		o := &p.ops[i]
		at := unsafe.Add(base, o.off)
		body := -1 // a length-delimited field's length; -1 while none is sent
		switch o.kind {
		case kString, kBytes:
			if v, sent := o.body(at); sent {
				body = len(v)
			}
		case kMessage:
			body = o.sub.size(at)
		case kList:
			s := (*sliceHeader)(at)
			for j := 0; j < s.len; j++ {
				n += o.sub.size(unsafe.Add(s.data, uintptr(j)*o.esize))
			}
		case kWord:
			if u := *(*uint64)(at); u != 0 || !o.omitzero {
				n += uvarintLen(o.key) + uvarintLen(u)
			}
		default:
			if u := o.load(at); u != 0 || !o.omitzero {
				n += uvarintLen(o.key) + uvarintLen(u)
			}
		}
		if body >= 0 {
			n += uvarintLen(o.key) + uvarintLen(uint64(body)) + body
		}
	}
	return n
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// body reads a string or []byte field, and whether it is sent.
func (o *op) body(at unsafe.Pointer) ([]byte, bool) {
	if o.kind == kString {
		s := *(*string)(at)
		return unsafe.Slice(unsafe.StringData(s), len(s)), s != "" || !o.omitzero
	}
	v := *(*[]byte)(at)
	return v, v != nil || !o.omitzero
}

// load reads a bool or integer field as the varint it travels as.
func (o *op) load(at unsafe.Pointer) uint64 {
	var u uint64
	switch o.width {
	case 1:
		u = uint64(*(*uint8)(at))
	case 2:
		u = uint64(*(*uint16)(at))
	case 4:
		u = uint64(*(*uint32)(at))
	default:
		u = *(*uint64)(at)
	}
	if sh := 64 - 8*o.width; o.signed {
		u = uint64(int64(u<<sh) >> sh)
	}
	if o.kind == kZigzag {
		u = u<<1 ^ uint64(int64(u)>>63)
	}
	return u
}

// store writes a decoded varint to the bool or integer field at at,
// keeping its low bytes.
func (o *op) store(at unsafe.Pointer, u uint64) {
	switch o.width {
	case 1:
		*(*uint8)(at) = uint8(u)
	case 2:
		*(*uint16)(at) = uint16(u)
	case 4:
		*(*uint32)(at) = uint32(u)
	default:
		*(*uint64)(at) = u
	}
}

// decode reads the fields d holds into the message at base. d comes by
// value, so a nested message's decoder stays on the stack.
func (p *plan) decode(d Decoder, base unsafe.Pointer) error {
	var lists uint64 // the lists met so far
	for d.Next() {
		if d.tag >= uint64(len(p.byTag)) || p.byTag[d.tag] == 0 {
			continue
		}
		o := &p.ops[p.byTag[d.tag]-1]
		at := unsafe.Add(base, o.off)
		if o.kind == kList {
			if lists&o.bit == 0 {
				lists |= o.bit
				o.reset(&d, at)
			}
			s := (*sliceHeader)(at)
			if s.len == s.cap || o.max > 0 && s.len >= o.max {
				continue
			}
			at, o = unsafe.Add(s.data, uintptr(s.len)*o.esize), &o.sub.ops[0]
			s.len++
		}
		switch o.kind {
		case kString:
			*(*string)(at) = d.String()
		case kBytes:
			v := d.Bytes()
			if v = v[:len(v):len(v)]; len(v) == 0 {
				v = nil
			}
			*(*[]byte)(at) = v
		case kMessage:
			sub := Decoder{buf: d.Bytes()}
			if err := o.sub.decode(sub, at); err != nil {
				return fmt.Errorf("wire: %s (tag %d): %w", o.sub.name, o.key>>3, err)
			}
		case kWord:
			*(*uint64)(at) = d.Uint()
		case kZigzag:
			o.store(at, uint64(d.Int()))
		default:
			u := d.Uint()
			if o.boolean && u != 0 {
				u = 1
			}
			o.store(at, u)
		}
	}
	return d.err
}

// reset empties the list at at, with room for every element of its tag
// left in d, the current one included, up to its cap. A list of messages
// gets fresh storage; any other reuses its own.
func (o *op) reset(d *Decoder, at unsafe.Pointer) {
	n := d.Count(o.key>>3) + 1
	if o.max > 0 {
		n = min(n, o.max)
	}
	switch e := &o.sub.ops[0]; {
	case e.kind == kMessage:
		*(*sliceHeader)(at) = sliceHeader{data: o.alloc(n), cap: n}
	case e.kind == kString:
		regrow[string](at, n)
	case e.kind == kBytes:
		regrow[[]byte](at, n)
	case e.width == 1:
		regrow[uint8](at, n)
	case e.width == 2:
		regrow[uint16](at, n)
	case e.width == 4:
		regrow[uint32](at, n)
	default:
		regrow[uint64](at, n)
	}
}

func regrow[E any](at unsafe.Pointer, n int) { s := (*[]E)(at); *s = slices.Grow((*s)[:0], n) }
