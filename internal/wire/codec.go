package wire

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The struct-tag codec: a message type declares its schema once, as
// `wire:"N[,zigzag][,flat][,omitzero][,max=K]"` tags on its exported
// fields, and Marshal / Unmarshal derive the encoder and decoder from it.
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
// exactly as hand-written Decoder loops do; it copies every byte field out
// of the input.

// field is one leaf of a schema: where it lives in the struct and how it
// travels.
type field struct {
	tag              uint64
	index            []int // FieldByIndex path; deeper than one under a flat parent
	zigzag, omitzero bool
	repeated         bool
	max              int
}

type schema struct {
	fields []field // ascending tag: the encode order
	byTag  map[uint64]*field
}

var schemas sync.Map // reflect.Type → *schema

// schemaOf parses and caches t's tags. A malformed schema — tag 0, a
// duplicate, an unknown option — is a programming error and panics.
func schemaOf(t reflect.Type) *schema {
	if s, ok := schemas.Load(t); ok {
		return s.(*schema)
	}
	s := &schema{byTag: make(map[uint64]*field)}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		spec, ok := sf.Tag.Lookup("wire")
		if !ok {
			continue
		}
		opts := strings.Split(spec, ",")
		n, err := strconv.ParseUint(opts[0], 10, 32)
		if err != nil || n == 0 {
			panic(fmt.Sprintf("wire: %s.%s: bad tag %q", t, sf.Name, spec))
		}
		f := field{tag: n, index: []int{i}}
		f.repeated = sf.Type.Kind() == reflect.Slice && sf.Type.Elem().Kind() != reflect.Uint8
		flat := false
		for _, o := range opts[1:] {
			switch {
			case o == "zigzag":
				f.zigzag = true
			case o == "omitzero":
				f.omitzero = true
			case o == "flat":
				flat = true
			case strings.HasPrefix(o, "max="):
				if f.max, err = strconv.Atoi(o[len("max="):]); err != nil {
					panic(fmt.Sprintf("wire: %s.%s: bad option %q", t, sf.Name, o))
				}
			default:
				panic(fmt.Sprintf("wire: %s.%s: unknown option %q", t, sf.Name, o))
			}
		}
		if !flat {
			s.fields = append(s.fields, f)
			continue
		}
		for _, in := range schemaOf(sf.Type).fields {
			in.tag += n - 1
			in.index = append([]int{i}, in.index...)
			in.omitzero = in.omitzero || f.omitzero
			s.fields = append(s.fields, in)
		}
	}
	sort.Slice(s.fields, func(i, j int) bool { return s.fields[i].tag < s.fields[j].tag })
	for i := range s.fields {
		f := &s.fields[i]
		if s.byTag[f.tag] != nil {
			panic(fmt.Sprintf("wire: %s: duplicate tag %d", t, f.tag))
		}
		s.byTag[f.tag] = f
	}
	schemas.Store(t, s)
	return s
}

// Marshal encodes the tagged struct v (or pointer to one) as a message
// with the format version header.
func Marshal(v any) []byte {
	e := NewEncoder()
	e.encodeStruct(reflect.Indirect(reflect.ValueOf(v)))
	return e.buf
}

func (e *Encoder) encodeStruct(v reflect.Value) {
	s := schemaOf(v.Type())
	for i := range s.fields {
		f := &s.fields[i]
		fv := v.FieldByIndex(f.index)
		switch {
		case f.repeated:
			for j := 0; j < fv.Len(); j++ {
				e.encodeValue(f, fv.Index(j))
			}
		case !f.omitzero || !fv.IsZero():
			e.encodeValue(f, fv)
		}
	}
}

func (e *Encoder) encodeValue(f *field, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		e.Bool(f.tag, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if f.zigzag {
			e.Int(f.tag, v.Int())
		} else {
			e.Uint(f.tag, uint64(v.Int()))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.Uint(f.tag, v.Uint())
	case reflect.String:
		e.String(f.tag, v.String())
	case reflect.Slice: // []byte; every other slice is repeated
		e.Bytes(f.tag, v.Bytes())
	case reflect.Struct:
		at := e.BeginMessage(f.tag)
		e.encodeStruct(v)
		e.EndMessage(at)
	default:
		panic(fmt.Sprintf("wire: tag %d: unsupported kind %s", f.tag, v.Kind()))
	}
}

// Unmarshal decodes a message produced by Marshal (or by any encoder of
// the same schema) into the tagged struct v points to. On error v holds
// the fields decoded so far. A malformed nested message fails the whole
// decode.
func Unmarshal(b []byte, v any) error {
	var d Decoder
	if err := d.Init(b); err != nil {
		return err
	}
	return d.decodeStruct(reflect.ValueOf(v).Elem())
}

func (d *Decoder) decodeStruct(v reflect.Value) error {
	s := schemaOf(v.Type())
	for d.Next() {
		f := s.byTag[d.tag]
		if f == nil {
			continue
		}
		fv := v.FieldByIndex(f.index)
		if f.repeated {
			if f.max > 0 && fv.Len() >= f.max {
				continue
			}
			fv.Grow(1) // in place: reflect.Append allocates a slice header per call
			fv.SetLen(fv.Len() + 1)
			fv = fv.Index(fv.Len() - 1)
			fv.SetZero()
		}
		if err := d.decodeValue(f, fv); err != nil {
			return err
		}
	}
	return d.err
}

func (d *Decoder) decodeValue(f *field, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(d.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if f.zigzag {
			v.SetInt(d.Int())
		} else {
			v.SetInt(int64(d.Uint()))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(d.Uint())
	case reflect.String:
		v.SetString(d.String())
	case reflect.Slice:
		v.SetBytes(append([]byte(nil), d.Bytes()...))
	case reflect.Struct:
		if err := NewRawDecoder(d.Bytes()).decodeStruct(v); err != nil {
			return fmt.Errorf("wire: %s (tag %d): %w", v.Type(), f.tag, err)
		}
	default:
		panic(fmt.Sprintf("wire: tag %d: unsupported kind %s", f.tag, v.Kind()))
	}
	return nil
}
