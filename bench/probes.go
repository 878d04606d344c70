package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cliquemap/internal/checksum"
	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/eviction"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/onerma"
	"cliquemap/internal/pony"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/slab"
	"cliquemap/internal/truetime"
	"cliquemap/internal/wire"
	"cliquemap/internal/workload"
)

// A layer probe is one timed loop around one public function of one layer,
// single-threaded, on inputs shaped like the workload's: its key, its value
// size, its bucket associativity. Iteration counts are fixed so that the
// alloc and byte figures repeat exactly; the ns are a hot-cache floor (the
// probe's working set is a handful of buckets and entries, the workload's
// is the whole region) and are informational.

type probeCost struct{ ns, allocs, bytes float64 }

// probe runs fn n times after a tenth as many warm-up calls.
func probe(n int, fn func(i int)) probeCost {
	for i := 0; i < n/10+1; i++ {
		fn(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return probeCost{
		ns:     float64(el.Nanoseconds()) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}
}

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// slabClass is the slab size class an entry of n bytes occupies.
func slabClass(n int) int {
	c := 64
	for c < n {
		c *= 2
	}
	return c
}

// residentEntries is how many of the workload's entries one backend holds
// at once: all that were preloaded, or as many as its data region fits.
func residentEntries(sp spec) int {
	entry := layout.DataEntrySize(len(workload.Key(0)), sp.valueSize)
	return min(sp.preload, sp.dataBytes/slabClass(entry))
}

// memFixture is one backend's worth of registered memory laid out like the
// workload's: its index geometry, and as many entries as stay resident
// there, each where its key hashes. Probes that read it walk the keys in a
// scattered order, so they pay the cache misses the workload pays.
type memFixture struct {
	geo       layout.Geometry
	reg       *rmem.Registry
	idx, data *rmem.Region
	idxWin    *rmem.Window
	hashes    []hashring.KeyHash
	entryOff  []int
	entrySize int
}

func newMemFixture(sp spec, g *generator, ver truetime.Version) (*memFixture, error) {
	n := residentEntries(sp)
	f := &memFixture{
		geo:       layout.Geometry{Buckets: sp.buckets, Ways: layout.DefaultWays},
		reg:       rmem.NewRegistry(),
		entrySize: layout.DataEntrySize(len(g.keys[0]), sp.valueSize),
	}
	f.idx = rmem.NewRegion(f.geo.RegionBytes(), f.geo.RegionBytes())
	f.data = rmem.NewRegion(n*f.entrySize, n*f.entrySize)
	f.idxWin = f.reg.Register(f.idx, 1)
	dataWin := f.reg.Register(f.data, 1)
	hdr := make([]byte, layout.BucketHeaderSize)
	layout.EncodeBucketHeader(hdr, 1, 0)
	for b := 0; b < f.geo.Buckets; b++ {
		if err := f.idx.Write(f.geo.BucketOffset(b), hdr); err != nil {
			return nil, err
		}
	}
	fill := make([]uint8, f.geo.Buckets)
	entry := make([]byte, f.entrySize)
	slot := make([]byte, layout.IndexEntrySize)
	for i := 0; i < n; i++ {
		h := hashring.DefaultHash(g.keys[i])
		b := int(h.Lo % uint64(f.geo.Buckets))
		if int(fill[b]) == f.geo.Ways {
			continue // the workload would have evicted; the probe just skips
		}
		off := len(f.hashes) * f.entrySize
		layout.EncodeDataEntry(entry, g.keys[i], g.vals[i%len(g.vals)], ver)
		layout.EncodeIndexEntry(slot, layout.IndexEntry{Hash: h, Version: ver,
			Ptr: layout.Pointer{Window: dataWin.ID, Offset: uint64(off), Size: uint64(f.entrySize)}})
		if err := f.data.Write(off, entry); err != nil {
			return nil, err
		}
		if err := f.idx.Write(f.geo.BucketOffset(b)+layout.BucketHeaderSize+int(fill[b])*layout.IndexEntrySize, slot); err != nil {
			return nil, err
		}
		fill[b]++
		f.hashes = append(f.hashes, h)
		f.entryOff = append(f.entryOff, off)
	}
	return f, nil
}

// pick scatters iteration i over the fixture's entries.
func (f *memFixture) pick(i int) int { return int(uint32(i) * 2654435761 % uint32(len(f.hashes))) }

func (f *memFixture) bucketOff(k int) int {
	return f.geo.BucketOffset(int(f.hashes[k].Lo % uint64(f.geo.Buckets)))
}

// runProbes measures every layer probe for sp and returns them by metric
// name. scale shortens the loops for the tests' smoke runs.
func runProbes(sp spec, g *generator, scale float64) (map[string]float64, error) {
	n := func(base int) int { return max(10, int(float64(base)*scale)) }
	out := map[string]float64{}
	set := func(prefix string, c probeCost) {
		out[prefix+"_ns"], out[prefix+"_allocs"], out[prefix+"_bytes"] = c.ns, c.allocs, c.bytes
	}
	ctx := context.Background()
	key, value := g.keys[0], g.vals[0]
	ver := truetime.NewGenerator(truetime.NewSystemClock(), 7).Next()
	entrySize := layout.DataEntrySize(len(key), len(value))
	entry := make([]byte, entrySize)
	layout.EncodeDataEntry(entry, key, value, ver)

	// hashring, truetime, checksum, encode: pure functions of hot inputs.
	set("hashring.hash", probe(n(200_000), func(int) { sink += hashring.DefaultHash(key).Lo }))
	gen := truetime.NewGenerator(truetime.NewSystemClock(), 8)
	set("truetime.next", probe(n(200_000), func(int) { sink += gen.Next().Seq }))
	set("checksum.sum", probe(n(20_000), func(int) { sink += checksum.Sum(key, value) }))
	scratch := make([]byte, entrySize)
	set("layout.encode_entry", probe(n(20_000), func(int) { sink += uint64(layout.EncodeDataEntry(scratch, key, value, ver)) }))

	// layout decode, rmem and the two NICs read the workload-shaped fixture.
	f, err := newMemFixture(sp, g, ver)
	if err != nil {
		return nil, err
	}
	set("layout.decode_bucket", probe(n(50_000), func(i int) {
		raw, err := f.idx.View(f.bucketOff(f.pick(i)), f.geo.BucketSize())
		if err != nil {
			panic(err)
		}
		b, err := layout.DecodeBucket(raw, f.geo.Ways)
		if err != nil {
			panic(err)
		}
		sink += b.ConfigID
	}))
	set("layout.decode_entry", probe(n(20_000), func(i int) {
		raw, err := f.data.View(f.entryOff[f.pick(i)], f.entrySize)
		if err != nil {
			panic(err)
		}
		de, err := layout.DecodeDataEntry(raw)
		if err != nil {
			panic(err)
		}
		sink += uint64(len(de.Value))
	}))
	set("rmem.read", probe(n(20_000), func(i int) {
		b, err := f.data.Read(f.entryOff[f.pick(i)], f.entrySize)
		if err != nil {
			panic(err)
		}
		sink += uint64(b[0])
	}))
	set("rmem.view", probe(n(200_000), func(i int) {
		b, err := f.data.View(f.entryOff[f.pick(i)], f.entrySize)
		if err != nil {
			panic(err)
		}
		sink += uint64(len(b))
	}))
	set("rmem.write_chunked", probe(n(20_000), func(i int) {
		if err := f.data.WriteChunked(f.entryOff[f.pick(i)], entry); err != nil {
			panic(err)
		}
	}))

	fab := fabric.New(2, fabric.Params{})
	set("fabric.deliver", probe(n(200_000), func(int) { sink += fab.Host(0).Deliver(entrySize) }))

	ponyConn := pony.Dial(fab,
		pony.New(fab.Host(1), nil, pony.CostModel{}, pony.EngineConfig{}, nil),
		pony.New(fab.Host(0), f.reg, pony.CostModel{}, pony.EngineConfig{}, nil))
	set("pony.read", probe(n(50_000), func(i int) {
		b, _, err := ponyConn.Read(0, f.idxWin.ID, f.bucketOff(f.pick(i)), f.geo.BucketSize())
		if err != nil {
			panic(err)
		}
		sink += uint64(len(b))
	}))
	oneConn := onerma.Dial(fab,
		onerma.New(fab.Host(1), nil, onerma.CostModel{}, nil, nil),
		onerma.New(fab.Host(0), f.reg, onerma.CostModel{}, nil, nil))
	set("onerma.read", probe(n(50_000), func(i int) {
		b, _, err := oneConn.Read(0, f.idxWin.ID, f.bucketOff(f.pick(i)), f.geo.BucketSize())
		if err != nil {
			panic(err)
		}
		sink += uint64(len(b))
	}))
	// write_chunked above overwrote entries with key 0's; restore nothing —
	// SCAR matches on the index hash and returns whatever the pointer holds.
	set("pony.scar", probe(n(20_000), func(i int) {
		k := f.pick(i)
		res, _, err := ponyConn.ScanAndRead(0, f.idxWin.ID, f.bucketOff(k), f.geo.BucketSize(), f.hashes[k], f.geo.Ways)
		if err != nil || !res.Found {
			panic(fmt.Sprint("scar probe: ", err, res.Found))
		}
		sink += uint64(len(res.Data))
	}))

	// wire and proto: the mutation request and the lookup response are the
	// two messages that carry a value.
	set("wire.encode", probe(n(50_000), func(int) {
		var e wire.Encoder
		e.InitSized(len(key) + len(value) + 48)
		e.Bytes(1, key)
		e.Bytes(2, value)
		e.Uint(3, 42)
		sink += uint64(e.Len())
	}))
	setReq := proto.SetReq{Key: key, Value: value, Version: ver, ConfigID: 1}.Marshal()
	set("wire.decode", probe(n(50_000), func(int) {
		var d wire.Decoder
		if err := d.Init(setReq); err != nil {
			panic(err)
		}
		for d.Next() {
			if d.Tag() <= 2 {
				sink += uint64(len(d.Bytes()))
			}
		}
	}))
	set("proto.set_roundtrip", probe(n(20_000), func(int) {
		req, err := proto.UnmarshalSetReq(proto.SetReq{Key: key, Value: value, Version: ver, ConfigID: 1}.Marshal())
		if err != nil {
			panic(err)
		}
		resp, err := proto.UnmarshalMutateResp(proto.MutateResp{Applied: true, Stored: req.Version}.Marshal())
		if err != nil {
			panic(err)
		}
		sink += resp.Stored.Seq
	}))
	set("proto.get_roundtrip", probe(n(20_000), func(int) {
		req, err := proto.UnmarshalGetReq(proto.GetReq{Key: key, ConfigID: 1}.Marshal())
		if err != nil {
			panic(err)
		}
		resp, err := proto.UnmarshalGetResp(proto.GetResp{Found: true, Value: value, Version: ver}.Marshal())
		if err != nil {
			panic(err)
		}
		sink += uint64(len(req.Key) + len(resp.Value))
	}))

	// rpc: the dispatch floor, in-process and across the loopback socket.
	net := rpc.NewNetwork(fab, rpc.CostModel{}, nil)
	net.Serve("echo", 0).Handle("Echo", func(_ context.Context, _ string, req []byte) ([]byte, error) { return req, nil })
	inproc := net.Client(1, "probe")
	set("rpc.echo", probe(n(50_000), func(int) {
		resp, _, err := inproc.Call(ctx, "echo", "Echo", key)
		if err != nil {
			panic(err)
		}
		sink += uint64(len(resp))
	}))
	gw, err := rpc.ServeTCP(net, "127.0.0.1:0", 1)
	if err != nil {
		return nil, err
	}
	defer gw.Close()
	tcp, err := rpc.DialTCP(gw.Addr(), "probe")
	if err != nil {
		return nil, err
	}
	defer tcp.Close()
	set("rpc_tcp.echo", probe(n(3_000), func(int) {
		resp, _, err := tcp.Call(ctx, "echo", "Echo", key)
		if err != nil {
			panic(err)
		}
		sink += uint64(len(resp))
	}))

	// backend: the exported Apply* on a standalone task shaped like one of
	// the workload's — its index, its data region — cycling over half the
	// keys that fit where the workload is resident and twice as many where
	// it is not, so that a SET evicts exactly where the workload's do. The
	// RPC lookup handler is reached through the in-process network.
	store := config.NewStore(config.CellConfig{Mode: config.R1, Shards: 1, ShardAddrs: []string{"probe-backend"},
		Backends: []config.BackendInfo{{Shard: 0, Addr: "probe-backend", HostID: 0}}})
	b, err := backend.New(backend.Options{Shard: 0, HostID: 0, Addr: "probe-backend",
		Geometry:  layout.Geometry{Buckets: sp.buckets, Ways: layout.DefaultWays},
		DataBytes: sp.dataBytes, DataMaxBytes: sp.dataBytes, ReshapeEnabled: true,
	}, store, rmem.NewRegistry(), net, truetime.NewGenerator(truetime.NewSystemClock(), 9), nil)
	if err != nil {
		return nil, err
	}
	cycle := residentEntries(sp) / 2
	if !sp.resident {
		cycle = 2 * sp.dataBytes / slabClass(entrySize)
	}
	bkeys := make([][]byte, cycle)
	for i := range bkeys {
		bkeys[i] = []byte(workload.Key(uint64(1<<40 + i)))
	}
	vgen := truetime.NewGenerator(truetime.NewSystemClock(), 10)
	var last truetime.Version
	applySet := func(i int) {
		last = vgen.Next()
		if applied, _, _ := b.ApplySet(bkeys[i%cycle], value, last); !applied {
			panic("apply_set probe: not applied")
		}
	}
	for i := 0; i < cycle; i++ {
		applySet(i)
	}
	set("backend.apply_set", probe(n(20_000), applySet))
	// CAS and ERASE act on the key just set, so that they find it resident
	// at a known version; only the call itself is timed.
	after := func(n int, fn func(i int)) float64 {
		var ns int64
		for i := 0; i < n; i++ {
			applySet(i)
			t0 := time.Now()
			fn(i)
			ns += int64(time.Since(t0))
		}
		return float64(ns) / float64(n)
	}
	out["backend.apply_cas_ns"] = after(n(10_000), func(i int) {
		if applied, _ := b.ApplyCas(bkeys[i%cycle], value, last, vgen.Next()); !applied {
			panic("apply_cas probe: not applied")
		}
	})
	out["backend.apply_erase_ns"] = after(n(10_000), func(i int) {
		if applied, _ := b.ApplyErase(bkeys[i%cycle], vgen.Next()); !applied {
			panic("apply_erase probe: not applied")
		}
	})
	for i := 0; i < min(cycle, 4096); i++ {
		applySet(i)
	}
	set("backend.rpc_get", probe(n(20_000), func(i int) {
		resp, _, err := inproc.Call(ctx, "probe-backend", proto.MethodGet, proto.GetReq{Key: bkeys[i%min(cycle, 4096)]}.Marshal())
		if err != nil {
			panic(err)
		}
		sink += uint64(len(resp))
	}))

	// slab and eviction: the two structures a SET under memory pressure
	// touches besides the regions.
	alloc, err := slab.New(16<<20, 256<<10, nil)
	if err != nil {
		return nil, err
	}
	held := make([]slab.Ref, 0, 256)
	for i := 0; i < cap(held); i++ {
		ref, err := alloc.Alloc(entrySize)
		if err != nil {
			return nil, err
		}
		held = append(held, ref)
	}
	out["slab.internal_frag"] = alloc.Stats().InternalFrag
	set("slab.alloc_free", probe(n(100_000), func(int) {
		ref, err := alloc.Alloc(entrySize)
		if err != nil {
			panic(err)
		}
		if err := alloc.Free(ref, entrySize); err != nil {
			panic(err)
		}
	}))
	pol, err := eviction.New("lru", 0)
	if err != nil {
		return nil, err
	}
	for _, k := range g.keys[:min(len(g.keys), 4096)] {
		pol.AddBytes(k)
	}
	set("eviction.touch", probe(n(200_000), func(i int) { pol.TouchBytes(g.keys[i%min(len(g.keys), 4096)]) }))
	// The victim re-enters as the newest key, so the population holds.
	set("eviction.add_evict", probe(n(100_000), func(int) {
		victim, ok := pol.Victim()
		if !ok {
			panic("eviction probe: no victim")
		}
		pol.Remove(victim)
		pol.Add(victim)
	}))
	return out, nil
}
