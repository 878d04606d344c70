package wire

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Plan compilation, the one place this package uses reflect: a message
// type's tags are parsed once into a plan — per leaf field its header,
// kind, flags and byte offset, flat fields spliced in — that codec.go runs
// through unsafe.Pointer alone.

type kind uint8

const (
	kVarint kind = iota // bool or integer, sent as uint64(v)
	kWord               // 8-byte integer, sent as uint64(v): kVarint's common case
	kZigzag             // signed integer, zigzag
	kString
	kBytes
	kMessage // nested message: sub is its plan
	kList    // repeated field: sub is a one-field plan of an element at offset 0
)

// op is one leaf field of a plan.
type op struct {
	key      uint64  // the field header: tag<<3 | wire type
	off      uintptr // from the start of the message
	kind     kind
	width    uint8 // kVarint, kZigzag: bytes in memory
	signed   bool  // kVarint, kZigzag: sign-extend on load
	boolean  bool  // kVarint: decode as 0 or 1
	omitzero bool
	sub      *plan
	esize    uintptr // kList: element size
	bit      uint64  // kList: its bit in a decode's set of lists met
	max      int     // kList: elements kept of a received frame (0: all)
	// alloc returns zeroed storage for n elements of a list of messages:
	// the one use of reflect past compilation, once per decoded list.
	alloc func(n int) unsafe.Pointer
}

type plan struct {
	name  string
	ops   []op     // ascending tag: the encode order
	byTag []uint16 // tag → index+1 into ops; 0 = not in the schema
}

var (
	compileMu sync.Mutex
	compiled  = map[reflect.Type]*plan{} // every plan, nested ones included

	// byType finds a message's plan from the type word of its pointer,
	// without a lock: an open-addressed table whose slots are written once.
	byType  [512]atomic.Pointer[typedPlan]
	entries int
)

type typedPlan struct {
	typ uintptr // types never move
	p   *plan
}

// planOf returns the plan of the message m points to, compiling it on
// first use, and the message's address. Only m's type word is kept, so m
// does not escape. A malformed schema (tag 0, a duplicate, an unknown
// option or field type) is a programming error and panics.
func planOf(m any) (*plan, unsafe.Pointer) {
	e := (*[2]unsafe.Pointer)(unsafe.Pointer(&m)) // type, data
	typ := uintptr(e[0])
	for i := slotOf(typ); ; i = (i + 1) % len(byType) {
		if s := byType[i].Load(); s == nil {
			return register(typ), e[1]
		} else if s.typ == typ {
			return s.p, e[1]
		}
	}
}

func slotOf(typ uintptr) int { return int(uint64(typ) * 0x9e3779b97f4a7c15 >> 55) } // 9 bits

func register(typ uintptr) *plan {
	var probe any // a nil *T: the type word alone
	(*[2]uintptr)(unsafe.Pointer(&probe))[0] = typ
	compileMu.Lock()
	defer compileMu.Unlock()
	p := compile(reflect.TypeOf(probe).Elem())
	i := slotOf(typ)
	for s := byType[i].Load(); s != nil; s = byType[i].Load() {
		if s.typ == typ {
			return s.p
		}
		i = (i + 1) % len(byType)
	}
	if entries++; entries > len(byType)/2 {
		panic("wire: more message types than the plan table holds")
	}
	byType[i].Store(&typedPlan{typ, p})
	return p
}

// compile builds struct t's plan under compileMu. The plan is in compiled
// before its fields are, so a type may hold a list of itself.
func compile(t reflect.Type) *plan {
	if p := compiled[t]; p != nil {
		return p
	}
	p := &plan{name: t.String()}
	compiled[t] = p
	defer func() {
		if p.byTag == nil {
			delete(compiled, t) // it panicked
		}
	}()
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		spec, ok := sf.Tag.Lookup("wire")
		if !ok {
			continue
		}
		opts := strings.Split(spec, ",")
		n, err := strconv.ParseUint(opts[0], 10, 16)
		if err != nil || n == 0 {
			panic(fmt.Sprintf("wire: %s.%s: bad tag %q", t, sf.Name, spec))
		}
		o, flat, zigzag := op{key: n << 3, off: sf.Offset}, false, false
		for _, opt := range opts[1:] {
			switch {
			case opt == "zigzag":
				zigzag = true
			case opt == "omitzero":
				o.omitzero = true
			case opt == "flat":
				flat = true
			case strings.HasPrefix(opt, "max="):
				if o.max, err = strconv.Atoi(opt[len("max="):]); err != nil {
					panic(fmt.Sprintf("wire: %s.%s: bad option %q", t, sf.Name, opt))
				}
			default:
				panic(fmt.Sprintf("wire: %s.%s: unknown option %q", t, sf.Name, opt))
			}
		}
		ft := sf.Type
		switch {
		case flat:
			for _, in := range compile(ft).ops {
				in.key += (n - 1) << 3
				in.off += sf.Offset
				in.omitzero = in.omitzero || o.omitzero
				if in.kind == kList {
					elem := in.sub.ops[0]
					elem.key = in.key
					in.sub = &plan{ops: []op{elem}}
				}
				p.ops = append(p.ops, in)
			}
			continue
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() != reflect.Uint8:
			elem := fieldOp(op{key: o.key}, ft.Elem(), zigzag)
			o.kind, o.key, o.esize, o.sub = kList, elem.key, ft.Elem().Size(), &plan{ops: []op{elem}}
			if elem.kind == kMessage {
				o.alloc = func(n int) unsafe.Pointer { return reflect.MakeSlice(ft, n, n).UnsafePointer() }
			}
		default:
			o = fieldOp(o, ft, zigzag)
		}
		p.ops = append(p.ops, o)
	}
	sort.Slice(p.ops, func(i, j int) bool { return p.ops[i].key < p.ops[j].key })
	lists := 0
	for i := range p.ops {
		o := &p.ops[i]
		if i > 0 && p.ops[i-1].key>>3 == o.key>>3 {
			panic(fmt.Sprintf("wire: %s: duplicate tag %d", t, o.key>>3))
		}
		if o.omitzero && o.kind == kMessage {
			panic(fmt.Sprintf("wire: %s: omitzero on the nested message at tag %d", t, o.key>>3))
		}
		if o.kind == kList {
			if lists == 64 {
				panic(fmt.Sprintf("wire: %s: more than 64 repeated fields", t))
			}
			o.bit, lists = 1<<lists, lists+1
		}
	}
	top := uint64(0) // the highest tag; a non-nil byTag marks the plan done
	if len(p.ops) > 0 {
		top = p.ops[len(p.ops)-1].key >> 3
	}
	p.byTag = make([]uint16, top+1)
	for i, o := range p.ops {
		p.byTag[o.key>>3] = uint16(i + 1)
	}
	return p
}

// fieldOp fills in how o, a field or list element of type t, is kept and sent.
func fieldOp(o op, t reflect.Type, zigzag bool) op {
	o.width = uint8(t.Size())
	switch k := t.Kind(); {
	case k == reflect.Bool:
		o.boolean = true
	case zigzag && k >= reflect.Int && k <= reflect.Int64:
		o.kind, o.signed = kZigzag, true
	case o.width == 8 && k >= reflect.Int && k <= reflect.Uintptr:
		o.kind = kWord
	case k >= reflect.Int && k <= reflect.Int64:
		o.signed = true
	case k >= reflect.Uint && k <= reflect.Uintptr:
	case k == reflect.String:
		o.kind, o.key = kString, o.key|typeBytes
	case k == reflect.Slice && t.Elem().Kind() == reflect.Uint8:
		o.kind, o.key = kBytes, o.key|typeBytes
	case k == reflect.Struct:
		o.kind, o.key, o.sub = kMessage, o.key|typeBytes, compile(t)
	default:
		panic(fmt.Sprintf("wire: unsupported field type %s", t))
	}
	return o
}
