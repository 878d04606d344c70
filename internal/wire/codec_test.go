package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// stamp is a flat-spliced sub-struct, the shape of truetime.Version.
type stamp struct {
	Micros int64  `wire:"1"`
	Client uint64 `wire:"2"`
}

type leaf struct {
	Name string `wire:"1"`
	N    uint32 `wire:"2"`
}

// everything uses every tag option and every supported field kind.
type everything struct {
	ID      uint64   `wire:"1"`
	Shard   int      `wire:"2,zigzag"`
	Plain   int      `wire:"3"`
	On      bool     `wire:"4"`
	Late    bool     `wire:"5,omitzero"`
	Epoch   uint64   `wire:"6,omitzero"`
	Name    string   `wire:"7"`
	Key     []byte   `wire:"8"`
	At      stamp    `wire:"9,flat"` // tags 9, 10
	One     leaf     `wire:"11"`
	Leaves  []leaf   `wire:"12,max=3"`
	Keys    [][]byte `wire:"13"`
	Names   []string `wire:"14"`
	Counts  []uint64 `wire:"15"`
	Flags   []bool   `wire:"16"`
	Narrow  uint16   `wire:"17"`
	skipped int
	Local   string // untagged: does not travel
}

func TestCodecMatchesHandWrittenEncoder(t *testing.T) {
	long := strings.Repeat("a", 300) // a nested body whose length prefix takes two bytes
	in := everything{
		ID: 7, Shard: -2, Plain: -1, On: true, Name: "n", Key: []byte("k"),
		At: stamp{Micros: -5, Client: 6}, One: leaf{Name: "one", N: 1},
		Leaves: []leaf{{Name: long}, {N: 2}}, Keys: [][]byte{[]byte("x"), nil},
		Names: []string{"p", ""}, Counts: []uint64{0, 9}, Flags: []bool{true, false},
		Narrow: 65535, skipped: 1, Local: "stays home",
	}
	e := NewEncoder()
	e.Uint(1, 7)
	e.Int(2, -2)
	e.Uint(3, ^uint64(0))
	e.Bool(4, true)
	e.String(7, "n")
	e.Bytes(8, []byte("k"))
	e.Uint(9, uint64(0xFFFFFFFFFFFFFFFB))
	e.Uint(10, 6)
	one := NewRawEncoder()
	one.String(1, "one")
	one.Uint(2, 1)
	e.Message(11, one)
	a := NewRawEncoder()
	a.String(1, long)
	a.Uint(2, 0)
	e.Message(12, a)
	b := NewRawEncoder()
	b.String(1, "")
	b.Uint(2, 2)
	e.Message(12, b)
	e.Bytes(13, []byte("x"))
	e.Bytes(13, nil)
	e.String(14, "p")
	e.String(14, "")
	e.Uint(15, 0)
	e.Uint(15, 9)
	e.Bool(16, true)
	e.Bool(16, false)
	e.Uint(17, 65535)
	got := Append(nil, &in)
	if !bytes.Equal(got, e.Encoded()) {
		t.Fatalf("Append:\n got  %x\n want %x", got, e.Encoded())
	}
	if after := Append([]byte("prefix"), &in); string(after[:6]) != "prefix" || !bytes.Equal(after[6:], got) {
		t.Errorf("Append after a prefix gave %x", after)
	}

	var out everything
	if err := Decode(got, &out); err != nil {
		t.Fatal(err)
	}
	in.skipped, in.Local = 0, ""
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n in  %+v\n out %+v", in, out)
	}
}

func TestCodecDecodeEdges(t *testing.T) {
	// Unknown tags are skipped, a repeated field stops growing at its cap,
	// and an integer wider than its field truncates instead of failing.
	e := NewEncoder()
	e.Uint(99, 1)
	e.String(98, "from the future")
	for i := 0; i < 5; i++ {
		m := NewRawEncoder()
		m.Uint(2, uint64(i))
		m.Uint(77, 1)
		e.Message(12, m)
	}
	e.Uint(17, 0x1FFFF)
	out := everything{Leaves: []leaf{{Name: "stale"}}[:0]}
	if err := Decode(e.Encoded(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Leaves) != 3 || out.Leaves[2].N != 2 {
		t.Errorf("capped list: %+v", out.Leaves)
	}
	if out.Leaves[0].Name != "" {
		t.Errorf("an element appended into spare capacity kept what lay there: %+v", out.Leaves[0])
	}
	if out.Narrow != 0xFFFF {
		t.Errorf("narrow = %#x", out.Narrow)
	}

	// A nested message cut mid-field fails the whole decode and names
	// where; so does a cut top-level frame.
	bad := NewEncoder()
	bad.Uint(1, 5)
	bad.Bytes(11, []byte{0x10}) // leaf: header of tag 2, no value
	err := Decode(bad.Encoded(), &out)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated nested message: err = %v", err)
	}
	if out.ID != 5 {
		t.Errorf("fields before the error should be kept: %+v", out)
	}
	full := Append(nil, &everything{Name: "abcdef"})
	if err := Decode(full[:len(full)-1], &out); err == nil {
		t.Error("truncated frame decoded without error")
	}
	if err := Decode([]byte{9, 0}, &out); !errors.Is(err, ErrVersion) {
		t.Errorf("major version mismatch: err = %v", err)
	}
}

// TestCodecFlatOmitzero: omitzero on a flat field applies to each inner
// field, so a zero struct encodes to nothing and a partly zero one sends
// only its non-zero fields; either round-trips.
func TestCodecFlatOmitzero(t *testing.T) {
	type msg struct {
		ID uint64 `wire:"1"`
		At stamp  `wire:"2,flat,omitzero"` // tags 2, 3
	}
	e := NewEncoder()
	e.Uint(1, 7)
	if got := Append(nil, &msg{ID: 7}); !bytes.Equal(got, e.Encoded()) {
		t.Errorf("zero flat field: got %x, want %x", got, e.Encoded())
	}
	e.Uint(3, 6)
	if got := Append(nil, &msg{ID: 7, At: stamp{Client: 6}}); !bytes.Equal(got, e.Encoded()) {
		t.Errorf("partly zero flat field: got %x, want %x", got, e.Encoded())
	}
	for _, in := range []msg{{ID: 7}, {At: stamp{Micros: -5, Client: 6}}, {ID: 1, At: stamp{Client: 6}}} {
		var out msg
		if err := Decode(Append(nil, &in), &out); err != nil || out != in {
			t.Errorf("round trip of %+v: %+v, err %v", in, out, err)
		}
	}
}

// TestPlanConcurrentFirstUse: goroutines that meet a type for the first
// time together share one plan and encode alike.
func TestPlanConcurrentFirstUse(t *testing.T) {
	type fresh struct {
		A uint64 `wire:"1"`
		B []leaf `wire:"2"`
	}
	in := fresh{A: 9, B: []leaf{{Name: "x", N: 1}, {N: 2}}}
	frames := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames[i] = Append(nil, &in)
		}()
	}
	wg.Wait()
	for i, f := range frames {
		var out fresh
		if err := Decode(f, &out); err != nil || !reflect.DeepEqual(out, in) || !bytes.Equal(f, frames[0]) {
			t.Errorf("goroutine %d: frame %x decoded to %+v (err %v)", i, f, out, err)
		}
	}
}

func TestCodecRejectsMalformedSchema(t *testing.T) {
	for name, compile := range map[string]func(){
		"tag zero": func() {
			Append(nil, &struct {
				A int `wire:"0"`
			}{})
		},
		"duplicate": func() {
			Append(nil, &struct {
				A, B int `wire:"1"`
			}{})
		},
		"flat collision": func() {
			Append(nil, &struct {
				At stamp `wire:"1,flat"`
				B  int   `wire:"2"`
			}{})
		},
		"unknown option": func() {
			Append(nil, &struct {
				A int `wire:"1,packed"`
			}{})
		},
		"bad cap": func() {
			Append(nil, &struct {
				A []int `wire:"1,max=lots"`
			}{})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: schema accepted", name)
				}
			}()
			compile()
		}()
	}
}

// Decode faces frames from the network: whatever the bytes, it must
// not panic, must not fabricate more elements than there are input bytes,
// and whatever it accepts must re-encode to a frame that decodes to the
// same value (decode∘encode∘decode is a fixed point).
func FuzzUnmarshal(f *testing.F) {
	f.Add(Append(nil, &everything{
		ID: 1, Shard: -1, Plain: 3, On: true, Late: true, Epoch: 2, Name: "n", Key: []byte("k"),
		At: stamp{Micros: 5, Client: 6}, One: leaf{Name: "o", N: 1}, Leaves: []leaf{{Name: "a", N: 1}},
		Keys: [][]byte{{0, 0xff}}, Names: []string{"s"}, Counts: []uint64{^uint64(0)}, Flags: []bool{true},
		Narrow: 9,
	}))
	f.Add(Append(nil, &everything{}))
	// Wire types crossed with the schema (a varint where a message
	// belongs, bytes where a varint belongs), a nested message cut short,
	// and more list elements than the cap.
	e := NewEncoder()
	e.Uint(11, 7)
	e.Uint(12, 7)
	e.Bytes(1, []byte("not a number"))
	e.Bytes(9, []byte{1})
	appendFixed64(e, 2, 3)
	f.Add(e.Encoded())
	cut := NewEncoder()
	cut.Bytes(12, []byte{0x0a, 0x05, 'a'})
	f.Add(cut.Encoded())
	flood := NewEncoder()
	for i := 0; i < 8; i++ {
		flood.Bytes(12, nil)
	}
	f.Add(flood.Encoded())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var first everything
		if err := Decode(data, &first); err != nil {
			return
		}
		if len(first.Leaves) > 3 {
			t.Fatalf("kept %d leaves past the cap of 3", len(first.Leaves))
		}
		if n := len(first.Keys) + len(first.Names) + len(first.Counts) + len(first.Flags); n > len(data) {
			t.Fatalf("fabricated %d elements from %d input bytes", n, len(data))
		}
		frame := Append(nil, &first)
		var second everything
		if err := Decode(frame, &second); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("re-decode drift:\n first  %+v\n second %+v", first, second)
		}
		if again := Append(nil, &second); !bytes.Equal(again, frame) {
			t.Fatalf("re-encode drift:\n first  %x\n second %x", frame, again)
		}
	})
}
