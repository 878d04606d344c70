package proto

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"cliquemap/internal/wire"
)

// The reference codec: the reflective walk of the tags that wire's compiled
// plans replaced, kept as the test oracle. It reads the same tags field by
// field through reflect, so TestCodecDifferential holds the plan (offsets,
// kinds, unsafe reads and writes) to it on random values of every message,
// and it can decode into a type built at run time (reflect.StructOf),
// which the generic wire.Decode cannot name.

type refField struct {
	tag              uint64
	index            []int
	zigzag, omitzero bool
	repeated         bool
	max              int
}

func refFields(t reflect.Type) []refField {
	var fs []refField
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		spec, ok := sf.Tag.Lookup("wire")
		if !ok {
			continue
		}
		opts := strings.Split(spec, ",")
		n, _ := strconv.ParseUint(opts[0], 10, 32)
		f := refField{tag: n, index: []int{i}}
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
				f.max, _ = strconv.Atoi(o[len("max="):])
			}
		}
		if !flat {
			fs = append(fs, f)
			continue
		}
		for _, in := range refFields(sf.Type) {
			in.tag += n - 1
			in.index = append([]int{i}, in.index...)
			in.omitzero = in.omitzero || f.omitzero
			fs = append(fs, in)
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].tag < fs[j].tag })
	return fs
}

// refMarshal encodes the tagged struct v (or pointer to one) with the
// version header.
func refMarshal(v any) []byte {
	e := wire.NewEncoder()
	refEncodeStruct(e, reflect.Indirect(reflect.ValueOf(v)))
	return e.Encoded()
}

func refEncodeStruct(e *wire.Encoder, v reflect.Value) {
	for _, f := range refFields(v.Type()) {
		fv := v.FieldByIndex(f.index)
		switch {
		case f.repeated:
			for j := 0; j < fv.Len(); j++ {
				refEncodeValue(e, f, fv.Index(j))
			}
		case !f.omitzero || !fv.IsZero():
			refEncodeValue(e, f, fv)
		}
	}
}

func refEncodeValue(e *wire.Encoder, f refField, v reflect.Value) {
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
	case reflect.Slice:
		e.Bytes(f.tag, v.Bytes())
	case reflect.Struct:
		at := e.BeginMessage(f.tag)
		refEncodeStruct(e, v)
		e.EndMessage(at)
	}
}

// refUnmarshal decodes b into the tagged struct v points to, copying every
// byte field out of b.
func refUnmarshal(b []byte, v any) error {
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return err
	}
	return refDecodeStruct(&d, reflect.ValueOf(v).Elem())
}

func refDecodeStruct(d *wire.Decoder, v reflect.Value) error {
	byTag := make(map[uint64]refField)
	for _, f := range refFields(v.Type()) {
		byTag[f.tag] = f
	}
	for d.Next() {
		f, ok := byTag[d.Tag()]
		if !ok {
			continue
		}
		fv := v.FieldByIndex(f.index)
		if f.repeated {
			if f.max > 0 && fv.Len() >= f.max {
				continue
			}
			fv.Set(reflect.Append(fv, reflect.Zero(fv.Type().Elem())))
			fv = fv.Index(fv.Len() - 1)
		}
		if err := refDecodeValue(d, f, fv); err != nil {
			return err
		}
	}
	return d.Err()
}

func refDecodeValue(d *wire.Decoder, f refField, v reflect.Value) error {
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
		if err := refDecodeStruct(wire.NewRawDecoder(d.Bytes()), v); err != nil {
			return fmt.Errorf("wire: %s (tag %d): %w", v.Type(), f.tag, err)
		}
	}
	return nil
}
