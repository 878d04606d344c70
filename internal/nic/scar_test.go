package nic_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/pony"
	"cliquemap/internal/rmem"
	"cliquemap/internal/truetime"
)

// scarRig is a Pony client and server on a manual clock, the server
// holding an index window of four 14-way buckets and a 64 KiB data window.
type scarRig struct {
	conn          *nic.Conn
	idx, data     *rmem.Region
	idxWin, dataW rmem.WindowID
	geo           layout.Geometry
}

// scarRequest is the bytes a SCAR's request bills: descriptor, hash and
// geometry.
const scarRequest = 96

// scarReply is a SCAR reply's size before the DataEntry: the bucket's
// header and one slot.
const scarReply = layout.BucketHeaderSize + layout.IndexEntrySize

func newScarRig(t testing.TB) *scarRig {
	t.Helper()
	clk := &fabric.ManualClock{}
	clk.Advance(1_000_000)
	f := fabric.New(2, fabric.Params{Clock: clk})
	r := &scarRig{geo: layout.Geometry{Buckets: 4, Ways: layout.DefaultWays}}
	reg := rmem.NewRegistry()
	r.idx = rmem.NewRegion(r.geo.RegionBytes(), r.geo.RegionBytes())
	r.data = rmem.NewRegion(1<<16, 1<<16)
	r.idxWin, r.dataW = reg.Register(r.idx, 1).ID, reg.Register(r.data, 1).ID
	client := pony.New(f.Host(0), nil, pony.CostModel{}, pony.EngineConfig{}, nil)
	server := pony.New(f.Host(1), reg, pony.CostModel{}, pony.EngineConfig{}, nil)
	r.conn = nic.Dial(f, client, server)
	return r
}

// bucket writes bucket b whole: its header, then slots (the rest empty).
// It returns the bucket's bytes.
func (r *scarRig) bucket(t testing.TB, b int, configID, flags uint64, slots []layout.IndexEntry) []byte {
	t.Helper()
	raw := make([]byte, r.geo.BucketSize())
	layout.EncodeBucketHeader(raw, configID, flags)
	for i, e := range slots {
		layout.EncodeIndexEntry(raw[layout.SlotOffset(i):], e)
	}
	if err := r.idx.Write(r.geo.BucketOffset(b), raw); err != nil {
		t.Fatal(err)
	}
	return raw
}

// entry stores key's DataEntry at off and returns the slot that names it.
func (r *scarRig) entry(t testing.TB, off int, key, value string) (layout.IndexEntry, []byte) {
	t.Helper()
	v := truetime.Version{Micros: int64(off) + 1, ClientID: 1, Seq: 1}
	raw := make([]byte, layout.DataEntrySize(len(key), len(value)))
	layout.EncodeDataEntry(raw, []byte(key), []byte(value), v)
	if err := r.data.Write(off, raw); err != nil {
		t.Fatal(err)
	}
	return layout.IndexEntry{Hash: hashring.DefaultHash([]byte(key)), Version: v,
		Ptr: layout.Pointer{Window: r.dataW, Offset: uint64(off), Size: uint64(len(raw))}}, raw
}

func (r *scarRig) scar(b int, h hashring.KeyHash) (nic.ScarResult, fabric.OpTrace, error) {
	return r.conn.AppendScanAndRead(nil, nil, 0, r.idxWin, r.geo.BucketOffset(b), r.geo.BucketSize(), h, r.geo.Ways)
}

// TestScarReplyIsHeaderAndMatch: a SCAR answers with a one-slot bucket —
// the scanned bucket's 16-byte header, then the 72-byte slot that matched
// (a zeroed one on a miss) — and the DataEntry the slot names, nothing of
// the bucket's other slots. Read through layout.ViewBucket(reply, 1), the
// reply gives the client the ConfigID, the flags and the entry the whole
// bucket would.
func TestScarReplyIsHeaderAndMatch(t *testing.T) {
	r := newScarRig(t)
	slots := make([]layout.IndexEntry, r.geo.Ways)
	entries := make([][]byte, r.geo.Ways)
	for i := range slots {
		slots[i], entries[i] = r.entry(t, i*256, fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d", i))
	}
	damaged := slots[3]
	damaged.Ptr.Size = 1 << 40
	slots[3] = damaged
	full := r.bucket(t, 0, 0xC0FFEE, 0, slots)
	spilled := r.bucket(t, 1, 7, layout.OverflowFlag, slots[:2])
	absent := hashring.DefaultHash([]byte("absent"))
	if one, _ := layout.ViewBucket(spilled, 1); one.Flags()&layout.OverflowFlag == 0 {
		t.Fatal("fixture: the spilled bucket has no overflow flag")
	}

	for _, tc := range []struct {
		name   string
		b      int
		bucket []byte
		h      hashring.KeyHash
		slot   int    // the slot the reply carries; -1: a zeroed one
		data   []byte // the DataEntry the reply carries
	}{
		{"hit in slot 0", 0, full, slots[0].Hash, 0, entries[0]},
		{"hit in the last slot", 0, full, slots[r.geo.Ways-1].Hash, r.geo.Ways - 1, entries[r.geo.Ways-1]},
		{"miss in an overflowed bucket", 1, spilled, absent, -1, nil},
		{"damaged pointer", 0, full, damaged.Hash, 3, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, tr, err := r.scar(tc.b, tc.h)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]byte(nil), tc.bucket[:layout.BucketHeaderSize]...)
			if tc.slot < 0 {
				want = append(want, make([]byte, layout.IndexEntrySize)...)
			} else {
				off := layout.SlotOffset(tc.slot)
				want = append(want, tc.bucket[off:off+layout.IndexEntrySize]...)
			}
			if !bytes.Equal(res.Bucket, want) {
				t.Errorf("reply = %x\nwant %x", res.Bucket, want)
			}
			if res.Found != (tc.data != nil) || !bytes.Equal(res.Data, tc.data) || (res.Data == nil) != (tc.data == nil) {
				t.Errorf("found=%v data=%q, want the entry %q", res.Found, res.Data, tc.data)
			}
			if size := scarReply + len(tc.data); len(res.Bucket)+len(res.Data) != size || tr.Bytes != uint64(scarRequest+size) {
				t.Errorf("reply %d+%d bytes, billed %d; want %d, billed %d", len(res.Bucket), len(res.Data), tr.Bytes, size, scarRequest+size)
			}

			// The client's view of the reply answers as the whole bucket.
			one, err := layout.ViewBucket(res.Bucket, 1)
			if err != nil {
				t.Fatal(err)
			}
			whole, _ := layout.ViewBucket(tc.bucket, r.geo.Ways)
			if one.ConfigID() != whole.ConfigID() || one.Flags() != whole.Flags() {
				t.Errorf("reply stamped %#x flags %#x, bucket %#x flags %#x", one.ConfigID(), one.Flags(), whole.ConfigID(), whole.Flags())
			}
			ge, _, gok := one.Find(tc.h)
			we, _, wok := whole.Find(tc.h)
			if ge != we || gok != wok {
				t.Errorf("reply finds (%+v, %v), bucket (%+v, %v)", ge, gok, we, wok)
			}
		})
	}
}

// TestScarReplyShortExtent: an extent too short for ways slots — a
// geometry the initiator got wrong — yields an empty reply, so the
// client's one-slot view of it fails with ErrCorrupt, as its view of the
// whole short extent did.
func TestScarReplyShortExtent(t *testing.T) {
	r := newScarRig(t)
	e, _ := r.entry(t, 0, "k", "v")
	r.bucket(t, 0, 9, 0, []layout.IndexEntry{e})
	for _, n := range []int{0, 8, layout.BucketHeaderSize, scarReply, r.geo.BucketSize() - 1} {
		res, tr, err := r.conn.AppendScanAndRead(nil, nil, 0, r.idxWin, 0, n, e.Hash, r.geo.Ways)
		if err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		if res.Found || res.Data != nil || len(res.Bucket) != 0 || tr.Bytes != scarRequest {
			t.Errorf("%d bytes: found=%v, %d data bytes, %d reply bytes, billed %d; want an empty reply", n, res.Found, len(res.Data), len(res.Bucket), tr.Bytes)
		}
		if _, err := layout.ViewBucket(res.Bucket, 1); !errors.Is(err, layout.ErrCorrupt) {
			t.Errorf("%d bytes: one-slot view err = %v, want ErrCorrupt", n, err)
		}
	}
}

// TestScarReplyRacesWriters: the NIC scans the bucket under the index
// region's lock, so a slot rewritten in one locked write (as the backend
// publishes an IndexEntry) reaches the reply whole — the old entry or the
// new, never a mix — while a writer rewrites it under the scans.
func TestScarReplyRacesWriters(t *testing.T) {
	r := newScarRig(t)
	var versions [2]layout.IndexEntry
	var raws [2][]byte
	for i := range versions {
		versions[i], _ = r.entry(t, i*256, "hot", fmt.Sprintf("value-%d", i))
		raws[i] = make([]byte, layout.IndexEntrySize)
		layout.EncodeIndexEntry(raws[i], versions[i])
	}
	r.bucket(t, 0, 1, 0, versions[:1])
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := r.idx.Write(layout.SlotOffset(0), raws[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()
	for i := 0; i < 2000; i++ {
		res, _, err := r.scar(0, versions[0].Hash)
		if err != nil || !res.Found {
			t.Fatalf("scan %d: found=%v err=%v", i, res.Found, err)
		}
		slot := res.Bucket[layout.BucketHeaderSize:]
		if !bytes.Equal(slot, raws[0]) && !bytes.Equal(slot, raws[1]) {
			t.Fatalf("scan %d: torn slot %x", i, slot)
		}
	}
}

// FuzzScarReplyMatchesBucket: for any bucket bytes, associativity and key
// hash, the one-slot reply answers ConfigID, Flags and Find(h) as the whole
// bucket does, and fails to view exactly when the bucket does. A reply
// carries data exactly when the matched slot names an extent of a
// registered window, and the data is that extent. The zero hash is
// skipped: it marks an empty slot, and no key hashes to it
// (hashring.HashFunc).
func FuzzScarReplyMatchesBucket(f *testing.F) {
	r := newScarRig(f)
	e, _ := r.entry(f, 64, "seed-key", "seed-value")
	hit := r.bucket(f, 0, 0xC0FFEE, 0, []layout.IndexEntry{{Hash: hashring.KeyHash{Hi: 1, Lo: 1}}, e})
	spilled := r.bucket(f, 0, 3, layout.OverflowFlag, nil)
	f.Add(hit, layout.DefaultWays, e.Hash.Hi, e.Hash.Lo)
	f.Add(hit, 2, e.Hash.Hi, e.Hash.Lo)
	f.Add(hit, 1, e.Hash.Hi, e.Hash.Lo) // the match lies past the ways scanned
	f.Add(spilled, layout.DefaultWays, uint64(5), uint64(6))
	f.Add(hit[:layout.SlotOffset(3)-1], 3, e.Hash.Hi, e.Hash.Lo) // one byte short
	f.Add([]byte{1, 2, 3}, 0, uint64(1), uint64(1))

	f.Fuzz(func(t *testing.T, bucket []byte, ways int, hi, lo uint64) {
		h := hashring.KeyHash{Hi: hi, Lo: lo}
		if ways < 0 || ways > layout.DefaultWays || len(bucket) > r.geo.BucketSize() || h.Zero() {
			return
		}
		if err := r.idx.Write(0, bucket); err != nil {
			t.Fatal(err)
		}
		res, _, err := r.conn.AppendScanAndRead(nil, nil, 0, r.idxWin, 0, len(bucket), h, ways)
		if err != nil {
			t.Fatal(err)
		}
		whole, werr := layout.ViewBucket(bucket, ways)
		one, oerr := layout.ViewBucket(res.Bucket, 1)
		if (werr == nil) != (oerr == nil) {
			t.Fatalf("bucket view err=%v, reply view err=%v", werr, oerr)
		}
		if werr != nil {
			if res.Found || res.Data != nil || len(res.Bucket) != 0 {
				t.Fatalf("short bucket: found=%v, %d data bytes, %d reply bytes", res.Found, len(res.Data), len(res.Bucket))
			}
			return
		}
		if len(res.Bucket) != scarReply || one.ConfigID() != whole.ConfigID() || one.Flags() != whole.Flags() {
			t.Fatalf("reply %d bytes id=%#x flags=%#x, bucket id=%#x flags=%#x", len(res.Bucket), one.ConfigID(), one.Flags(), whole.ConfigID(), whole.Flags())
		}
		ge, _, gok := one.Find(h)
		we, _, wok := whole.Find(h)
		if ge != we || gok != wok {
			t.Fatalf("Find: reply (%+v, %v), bucket (%+v, %v)", ge, gok, we, wok)
		}
		p := we.Ptr
		region := map[rmem.WindowID]*rmem.Region{r.idxWin: r.idx, r.dataW: r.data}[p.Window]
		in := wok && !p.Nil() && region != nil && region.InBounds(int(p.Offset), int(p.Size))
		if res.Found != in {
			t.Fatalf("found=%v, want %v for pointer %+v", res.Found, in, p)
		}
		if in {
			if want, _ := region.Read(int(p.Offset), int(p.Size)); !bytes.Equal(res.Data, want) {
				t.Fatalf("data %x, want %x", res.Data, want)
			}
		}
	})
}
