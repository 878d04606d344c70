package layout

import (
	"errors"
	"testing"

	"cliquemap/internal/hashring"
	"cliquemap/internal/truetime"
)

// Decoders parse bytes produced by raw RMA reads of remote memory — which
// can be torn, half-rewritten, or (after a window mix-up) arbitrary. They
// must never panic; every outcome is either a valid entry or a retryable
// error. `go test` runs the seed corpus; `go test -fuzz=FuzzDecodeDataEntry`
// explores further.

func FuzzDecodeDataEntry(f *testing.F) {
	good := make([]byte, DataEntrySize(3, 5))
	EncodeDataEntry(good, []byte("key"), []byte("value"), truetime.Version{Micros: 1, ClientID: 2, Seq: 3})
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, DataEntryHeaderSize))
	torn := append([]byte(nil), good...)
	torn[DataEntryHeaderSize] ^= 0xff
	f.Add(torn)
	comp := make([]byte, DataEntrySize(1, 30))
	stored, ok := CompressValue(make([]byte, 4096))
	if ok && len(stored) <= 30 {
		EncodeDataEntryFlagged(comp[:DataEntrySize(1, len(stored))], []byte("k"), stored, truetime.Version{Micros: 9}, true)
		f.Add(comp)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeDataEntry(data)
		if err != nil {
			return // any error is fine; panics are not
		}
		// A decode that passes the checksum must also materialize without
		// panicking (decompression errors are allowed as errors).
		if _, merr := e.MaterializeValue(); merr != nil && !e.Compressed {
			t.Errorf("uncompressed materialize failed: %v", merr)
		}
	})
}

// FuzzDataEntryBitFlip models the chaos plane's registered-memory
// corruption hazard: up to three single-bit flips anywhere in a valid
// encoded DataEntry. CRC32C has Hamming distance 4 over these entry
// lengths, so every such flip MUST fail the checksum — a decode that
// succeeds on damaged bytes would be a silent false-accept, the §3
// self-validation failing at its one job. (Heavier damage may collide;
// the ≤3-bit bound is where detection is a guarantee, not a likelihood.)
func FuzzDataEntryBitFlip(f *testing.F) {
	f.Add([]byte("key"), []byte("value"), uint16(0), uint16(9), uint16(40))
	f.Add([]byte("k"), []byte{}, uint16(3), uint16(3), uint16(3))
	f.Add([]byte("a-much-longer-key-name"), make([]byte, 2048), uint16(17), uint16(1999), uint16(64))

	f.Fuzz(func(t *testing.T, key, value []byte, p1, p2, p3 uint16) {
		if len(key) == 0 || len(key) > 256 || len(value) > 4096 {
			return
		}
		buf := make([]byte, DataEntrySize(len(key), len(value)))
		EncodeDataEntry(buf, key, value, truetime.Version{Micros: 7, ClientID: 1, Seq: 2})
		if _, err := DecodeDataEntry(buf); err != nil {
			t.Fatalf("pristine entry failed decode: %v", err)
		}
		// Distinct bit positions only: flipping one bit twice heals it.
		bits := map[uint64]bool{}
		for _, p := range []uint16{p1, p2, p3} {
			bits[uint64(p)%uint64(len(buf)*8)] = true
		}
		for b := range bits {
			buf[b/8] ^= 1 << (b % 8)
		}
		if _, err := DecodeDataEntry(buf); err == nil {
			t.Fatalf("false accept: %d flipped bits decoded clean (len=%d)", len(bits), len(buf))
		}
	})
}

// FuzzDecodeIndexEntry feeds arbitrary bytes (a torn or corrupted bucket
// slot) to the IndexEntry decoder: it must never panic, and any decode of
// a full-size slot must re-encode to the same bytes it consumed —
// corruption may yield a garbage entry (the quorum and data checksum
// reject it downstream) but never an unstable one.
func FuzzDecodeIndexEntry(f *testing.F) {
	var e IndexEntry
	good := make([]byte, IndexEntrySize)
	EncodeIndexEntry(good, e)
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, IndexEntrySize-1))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeIndexEntry(data)
		if err != nil {
			return
		}
		out := make([]byte, IndexEntrySize)
		EncodeIndexEntry(out, e)
		for i := 0; i < IndexEntrySize-8; i++ { // trailing word is reserved
			if out[i] != data[i] {
				t.Fatalf("round-trip unstable at byte %d: %#x != %#x", i, out[i], data[i])
			}
		}
	})
}

func FuzzDecodeBucket(f *testing.F) {
	g := Geometry{Buckets: 1, Ways: 4}
	raw := make([]byte, g.BucketSize())
	EncodeBucketHeader(raw, 1, 0)
	f.Add(raw, 4)
	f.Add([]byte{}, 4)
	f.Add(make([]byte, 10), 2)
	f.Fuzz(func(t *testing.T, data []byte, ways int) {
		if ways <= 0 || ways > 64 {
			return
		}
		b, err := DecodeBucket(data, ways)
		if err != nil {
			return
		}
		if len(b.Entries) != ways {
			t.Errorf("decoded %d entries, want %d", len(b.Entries), ways)
		}
	})
}

// FuzzBucketScanMatchesDecode holds the in-place scanner to the reference
// decoder: on arbitrary bytes and associativity, ViewBucket fails exactly
// when DecodeBucket does (ErrCorrupt on short input), and the header
// fields, every slot, and Find — probed with each stored hash, so
// duplicate hashes exercise first-slot-wins, and with an absent one —
// agree. The serving NIC and the client scan with RawBucket; tests and the
// benchmark's decode probe keep DecodeBucket, so the two must never drift.
func FuzzBucketScanMatchesDecode(f *testing.F) {
	g := Geometry{Buckets: 1, Ways: 4}
	raw := make([]byte, g.BucketSize())
	EncodeBucketHeader(raw, 7, OverflowFlag)
	dup := IndexEntry{Hash: hashring.KeyHash{Hi: 5, Lo: 9}, Version: truetime.Version{Micros: 1}, Ptr: Pointer{Window: 1, Offset: 64, Size: 128}}
	EncodeIndexEntry(raw[SlotOffset(1):], dup)
	dup.Version.Micros = 2 // same hash, later slot: must lose to slot 1
	EncodeIndexEntry(raw[SlotOffset(3):], dup)
	f.Add(raw, 4, uint64(5), uint64(9))
	f.Add(raw, 2, uint64(5), uint64(9))                            // fewer ways than bytes: the tail is ignored
	f.Add(raw[:len(raw)-1], 4, uint64(0), uint64(0))               // one byte short
	f.Add([]byte{}, 0, uint64(0), uint64(0))                       // shorter than a header
	f.Add(make([]byte, BucketHeaderSize), 0, uint64(1), uint64(1)) // header only

	f.Fuzz(func(t *testing.T, data []byte, ways int, hi, lo uint64) {
		if ways < 0 || ways > 64 {
			return
		}
		dec, derr := DecodeBucket(data, ways)
		view, verr := ViewBucket(data, ways)
		if (derr == nil) != (verr == nil) {
			t.Fatalf("DecodeBucket err=%v, ViewBucket err=%v", derr, verr)
		}
		if derr != nil {
			if !errors.Is(derr, ErrCorrupt) || !errors.Is(verr, ErrCorrupt) {
				t.Fatalf("short input: %v / %v, want ErrCorrupt", derr, verr)
			}
			return
		}
		if view.Ways() != ways || view.ConfigID() != dec.ConfigID || view.Flags() != dec.Flags {
			t.Fatalf("header: view ways=%d id=%d flags=%#x, decoded ways=%d id=%d flags=%#x",
				view.Ways(), view.ConfigID(), view.Flags(), ways, dec.ConfigID, dec.Flags)
		}
		probes := []hashring.KeyHash{{Hi: hi, Lo: lo}, {}}
		for i, e := range dec.Entries {
			if view.Hash(i) != e.Hash || view.Entry(i) != e {
				t.Fatalf("slot %d: view %+v, decoded %+v", i, view.Entry(i), e)
			}
			probes = append(probes, e.Hash)
		}
		for _, h := range probes {
			we, ws, wok := dec.Find(h)
			ge, gs, gok := view.Find(h)
			if ge != we || gs != ws || gok != wok {
				t.Fatalf("Find(%v): view (%+v, %d, %v), decoded (%+v, %d, %v)", h, ge, gs, gok, we, ws, wok)
			}
		}
	})
}

// TestBucketScanFirstSlotWins pins the duplicate-hash rule outside the
// fuzz corpus, and that a view never reaches past its own bucket.
func TestBucketScanFirstSlotWins(t *testing.T) {
	g := Geometry{Buckets: 1, Ways: 3}
	raw := make([]byte, g.BucketSize()+IndexEntrySize) // a neighbour's slot follows
	h := hashring.KeyHash{Hi: 1, Lo: 2}
	for slot, micros := range []int64{0, 10, 20, 30} {
		if slot == 0 {
			continue
		}
		EncodeIndexEntry(raw[SlotOffset(slot):], IndexEntry{Hash: h, Version: truetime.Version{Micros: micros}})
	}
	view, err := ViewBucket(raw, g.Ways)
	if err != nil {
		t.Fatal(err)
	}
	if e, slot, ok := view.Find(h); !ok || slot != 1 || e.Version.Micros != 10 {
		t.Errorf("Find = (%+v, %d, %v), want slot 1", e, slot, ok)
	}
	if view.Ways() != g.Ways || len(view) != g.BucketSize() || cap(view) != g.BucketSize() {
		t.Errorf("view spans %d/%d bytes, %d ways; want exactly one %d-byte bucket", len(view), cap(view), view.Ways(), g.BucketSize())
	}
	if _, err := ViewBucket(raw, -1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("negative ways: err=%v, want ErrCorrupt", err)
	}
	if RawBucket(nil).Ways() != 0 {
		t.Error("the nil bucket must have no slots")
	}
	if _, _, ok := RawBucket(nil).Find(h); ok {
		t.Error("Find on the nil bucket matched")
	}
}
