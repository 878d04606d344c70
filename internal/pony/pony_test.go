package pony

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/rmem"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// testRig wires a client NIC and a backend NIC with one bucket and one
// stored KV pair.
type testRig struct {
	f       *fabric.Fabric
	conn    *Conn
	idxWin  *rmem.Window
	dataWin *rmem.Window
	geo     layout.Geometry
	hash    hashring.KeyHash
	acct    *stats.CPUAccount
}

func newRig(t *testing.T, key, value []byte) *testRig {
	t.Helper()
	f := fabric.New(2, fabric.Params{})
	acct := stats.NewCPUAccount()
	reg := rmem.NewRegistry()

	geo := layout.Geometry{Buckets: 8, Ways: 4}
	idx := rmem.NewRegion(geo.RegionBytes(), geo.RegionBytes())
	data := rmem.NewRegion(1<<16, 1<<16)
	idxWin := reg.Register(idx, 1)
	dataWin := reg.Register(data, 1)

	// Store the entry: DataEntry at offset 0, IndexEntry in its bucket.
	v := truetime.Version{Micros: 1, ClientID: 1, Seq: 1}
	entry := make([]byte, layout.DataEntrySize(len(key), len(value)))
	layout.EncodeDataEntry(entry, key, value, v)
	if err := data.Write(0, entry); err != nil {
		t.Fatal(err)
	}
	h := hashring.DefaultHash(key)
	b := int(h.Lo % uint64(geo.Buckets))
	ie := make([]byte, layout.IndexEntrySize)
	layout.EncodeIndexEntry(ie, layout.IndexEntry{
		Hash:    h,
		Version: v,
		Ptr:     layout.Pointer{Window: dataWin.ID, Offset: 0, Size: uint64(len(entry))},
	})
	if err := idx.Write(geo.BucketOffset(b)+layout.BucketHeaderSize, ie); err != nil {
		t.Fatal(err)
	}

	server := New(f.Host(1), reg, CostModel{}, EngineConfig{}, acct)
	client := New(f.Host(0), nil, CostModel{}, EngineConfig{}, acct)
	return &testRig{
		f: f, conn: Dial(f, client, server),
		idxWin: idxWin, dataWin: dataWin, geo: geo, hash: h, acct: acct,
	}
}

// scarReply is a SCAR reply's size before the DataEntry: the bucket's
// header and the one slot the scan matched.
const scarReply = layout.BucketHeaderSize + layout.IndexEntrySize

func (r *testRig) bucketOff() int {
	return r.geo.BucketOffset(int(r.hash.Lo % uint64(r.geo.Buckets)))
}

func TestReadReturnsRegisteredBytes(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("hello-pony"))
	got, tr, err := rig.conn.Read(0, rig.dataWin.ID, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 {
		t.Fatalf("read %d bytes", len(got))
	}
	e, err := layout.DecodeDataEntry(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(e.Value) != "hello-pony" {
		t.Errorf("value = %q", e.Value)
	}
	if tr.Ns == 0 || tr.Bytes == 0 {
		t.Error("trace not populated")
	}
}

func TestReadRevokedWindow(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("v"))
	rig.conn.Target().Registry().Revoke(rig.dataWin.ID)
	_, _, err := rig.conn.Read(0, rig.dataWin.ID, 0, 64)
	if err == nil {
		t.Fatal("read of revoked window succeeded")
	}
}

func TestScarHit(t *testing.T) {
	rig := newRig(t, []byte("scar-key"), []byte("scar-value"))
	res, tr, err := rig.conn.ScanAndRead(0, rig.idxWin.ID, rig.bucketOff(), rig.geo.BucketSize(), rig.hash, rig.geo.Ways)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("SCAR did not find the entry")
	}
	e, err := layout.DecodeDataEntry(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	if string(e.Value) != "scar-value" {
		t.Errorf("value = %q", e.Value)
	}
	if len(res.Bucket) != scarReply {
		t.Errorf("reply carries %d bytes before the entry, want the header and one slot (%d)", len(res.Bucket), scarReply)
	}
	if tr.Bytes < uint64(scarReply+len(res.Data)) {
		t.Error("trace bytes must include the reply")
	}
}

func TestScarMissReturnsBucketOnly(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("v"))
	other := hashring.DefaultHash([]byte("absent"))
	// Force same bucket but different hash so the scan runs and misses.
	other.Lo = rig.hash.Lo
	res, _, err := rig.conn.ScanAndRead(0, rig.idxWin.ID, rig.bucketOff(), rig.geo.BucketSize(), other, rig.geo.Ways)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.Data != nil {
		t.Error("miss returned data")
	}
	if len(res.Bucket) != scarReply {
		t.Errorf("miss returned %d bytes, want the header and a zeroed slot (%d)", len(res.Bucket), scarReply)
	}
}

// TestScarSingleRoundTrip verifies SCAR's latency advantage: a SCAR is
// materially faster than 2×R's two dependent round trips for small values.
func TestScarSingleRoundTrip(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("small"))
	var scar, twoR uint64
	const n = 50
	for i := 0; i < n; i++ {
		_, tr, err := rig.conn.ScanAndRead(0, rig.idxWin.ID, rig.bucketOff(), rig.geo.BucketSize(), rig.hash, rig.geo.Ways)
		if err != nil {
			t.Fatal(err)
		}
		scar += tr.Ns

		_, tr1, err := rig.conn.Read(0, rig.idxWin.ID, rig.bucketOff(), rig.geo.BucketSize())
		if err != nil {
			t.Fatal(err)
		}
		_, tr2, err := rig.conn.Read(0, rig.dataWin.ID, 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		twoR += tr1.Ns + tr2.Ns
	}
	if scar >= twoR {
		t.Errorf("SCAR (%d) not faster than 2xR (%d) for small values", scar/n, twoR/n)
	}
}

func TestCPUBilled(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("v"))
	rig.conn.Read(0, rig.dataWin.ID, 0, 64)
	if rig.acct.TotalNanos("pony") == 0 {
		t.Error("no pony CPU billed")
	}
}

// TestScarCheaperCPUThan2xR is Figure 7's core claim: SCAR halves the
// per-GET pony CPU relative to 2×R because it removes a full second RMA op.
func TestScarCheaperCPUThan2xR(t *testing.T) {
	rigA := newRig(t, []byte("k"), []byte("v"))
	for i := 0; i < 100; i++ {
		rigA.conn.ScanAndRead(0, rigA.idxWin.ID, rigA.bucketOff(), rigA.geo.BucketSize(), rigA.hash, rigA.geo.Ways)
	}
	scarCPU := rigA.acct.TotalNanos("pony")

	rigB := newRig(t, []byte("k"), []byte("v"))
	for i := 0; i < 100; i++ {
		rigB.conn.Read(0, rigB.idxWin.ID, rigB.bucketOff(), rigB.geo.BucketSize())
		rigB.conn.Read(0, rigB.dataWin.ID, 0, 64)
	}
	twoRCPU := rigB.acct.TotalNanos("pony")
	if scarCPU >= twoRCPU {
		t.Errorf("SCAR CPU %d ≥ 2xR CPU %d", scarCPU, twoRCPU)
	}
}

func TestDownNICUnreachable(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("v"))
	rig.conn.Target().SetDown(true)
	if _, _, err := rig.conn.Read(0, rig.dataWin.ID, 0, 64); err != nic.ErrUnreachable {
		t.Errorf("down NIC: got %v", err)
	}
	if _, _, err := rig.conn.ScanAndRead(0, rig.idxWin.ID, 0, rig.geo.BucketSize(), rig.hash, rig.geo.Ways); err != nic.ErrUnreachable {
		t.Errorf("down NIC SCAR: got %v", err)
	}
	rig.conn.Target().SetDown(false)
	if _, _, err := rig.conn.Read(0, rig.dataWin.ID, 0, 64); err != nil {
		t.Errorf("after recovery: %v", err)
	}
}

func TestClientOnlyNICCannotServe(t *testing.T) {
	f := fabric.New(2, fabric.Params{})
	a := New(f.Host(0), nil, CostModel{}, EngineConfig{}, nil)
	b := New(f.Host(1), nil, CostModel{}, EngineConfig{}, nil)
	conn := Dial(f, a, b)
	if _, _, err := conn.Read(0, 1, 0, 16); err != nic.ErrUnreachable {
		t.Errorf("client-only target: got %v", err)
	}
}

// setClock is a fabric.Clock a serial test sets by hand, backwards too.
type setClock struct{ now uint64 }

func (c *setClock) NowNs() uint64     { return c.now }
func (c *setClock) SleepNs(ns uint64) { c.now += ns }

// slowEngineConn dials a client NIC to a serving NIC whose engine costs
// 100µs per read, under the default 0.70 / 0.25 scale-out calibration, so
// a one-engine server saturates at 10K reads per second of clock.
func slowEngineConn(clock fabric.Clock) (*Conn, rmem.WindowID) {
	f := fabric.New(2, fabric.Params{Clock: clock})
	reg := rmem.NewRegistry()
	w := reg.Register(rmem.NewRegion(1<<12, 1<<12), 1)
	server := New(f.Host(1), reg, CostModel{EngineServiceNs: 100_000}, EngineConfig{}, nil)
	return Dial(f, New(f.Host(0), nil, CostModel{}, EngineConfig{}, nil), server), w.ID
}

// TestEngineScaleOutUnderLoad drives the serving engine at fixed rates of
// the fabric clock: ρ 0.625 stays on one engine, ρ 1.0 scales out to two
// (ρ 0.5 each), and ρ 0.1 scales back in.
func TestEngineScaleOutUnderLoad(t *testing.T) {
	clk := &fabric.ManualClock{}
	conn, win := slowEngineConn(clk)
	server := conn.Target()
	run := func(gapNs uint64, ops int) {
		for i := 0; i < ops; i++ {
			clk.Advance(gapNs)
			if _, _, err := conn.Read(0, win, 0, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, step := range []struct {
		gapNs   uint64
		ops     int
		engines int
	}{
		{160_000, 1000, 1},  // 6 250/s: below ScaleOutAt
		{100_000, 1000, 2},  // 10 000/s: above it
		{1_000_000, 200, 1}, // 1 000/s: below ScaleInAt
	} {
		run(step.gapNs, step.ops)
		if got := int(server.Saturation().Engines); got != step.engines {
			t.Errorf("%dns between reads: engines = %d, want %d (ρ %.3f)", step.gapNs, got, step.engines, float64(server.Saturation().RhoMilli)/1000)
		}
	}
	if server.Saturation().Ops != 2200 {
		t.Errorf("ops = %d, want 2200", server.Saturation().Ops)
	}
}

// TestBackwardsInstantLeavesRate: a caller that read the clock and was
// preempted presents an instant older than one already recorded. The rate
// window must not wrap: ρ and the engine count stay where they were.
func TestBackwardsInstantLeavesRate(t *testing.T) {
	clk := &setClock{}
	conn, win := slowEngineConn(clk)
	server := conn.Target()
	for i := 0; i < 1000; i++ {
		clk.now += 100_000
		conn.Read(0, win, 0, 64)
	}
	before := server.Saturation()
	clk.now = 0
	conn.Read(0, win, 0, 64)
	after := server.Saturation()
	if after.RhoMilli != before.RhoMilli || after.Engines != before.Engines {
		t.Errorf("backwards instant moved ρ %d → %d, engines %d → %d", before.RhoMilli, after.RhoMilli, before.Engines, after.Engines)
	}
}

// TestFanOutQueueingIgnoresHostSpeed: a client reads one value from each of
// three servers, every leg pinned to one op start, the way a GET fans out.
// Each leg's traffic is billed at its issue slot, so the legs' traces are
// the same whether the host ran them 1 µs apart or had already run for a
// millisecond; and three 16 KiB responses still queue on the client's
// downlink behind each other while three 128 B ones do not.
func TestFanOutQueueingIgnoresHostSpeed(t *testing.T) {
	const at = 1_000_000
	fanOut := func(size int, clockAt func(leg int) uint64) []fabric.OpTrace {
		clk := &setClock{}
		f := fabric.New(4, fabric.Params{Clock: clk})
		client := New(f.Host(0), nil, CostModel{}, EngineConfig{}, nil)
		var trs []fabric.OpTrace
		for leg := 0; leg < 3; leg++ {
			reg := rmem.NewRegistry()
			w := reg.Register(rmem.NewRegion(size, size), 1)
			conn := Dial(f, client, New(f.Host(leg+1), reg, CostModel{}, EngineConfig{}, nil))
			clk.now = clockAt(leg)
			_, tr, err := conn.Read(at, w.ID, 0, size)
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
		return trs
	}
	fast := func(leg int) uint64 { return at + uint64(leg+1)*1_000 }
	slow := func(int) uint64 { return at + 1_000_000 }
	for _, tc := range []struct {
		size   int
		queues bool
	}{{16 << 10, true}, {128, false}} {
		a, b := fanOut(tc.size, fast), fanOut(tc.size, slow)
		for leg := range a {
			if a[leg].Ns != b[leg].Ns || !slices.Equal(a[leg].Spans, b[leg].Spans) {
				t.Fatalf("%d B leg %d: %dns on a fast host, %dns on a slow one", tc.size, leg, a[leg].Ns, b[leg].Ns)
			}
			if leg == 0 {
				continue
			}
			if waited := a[leg].Ns > a[leg-1].Ns+1_000; waited != tc.queues {
				t.Errorf("%d B leg %d: %dns after the leg before it took %dns; queued=%v, want %v", tc.size, leg, a[leg].Ns, a[leg-1].Ns, waited, tc.queues)
			}
		}
	}
}

func TestSupportsScar(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("v"))
	if !rig.conn.SupportsScar() {
		t.Error("pony must support SCAR")
	}
}

func BenchmarkPonyRead(b *testing.B) {
	f := fabric.New(2, fabric.Params{})
	reg := rmem.NewRegistry()
	region := rmem.NewRegion(1<<16, 1<<16)
	w := reg.Register(region, 1)
	server := New(f.Host(1), reg, CostModel{}, EngineConfig{}, nil)
	client := New(f.Host(0), nil, CostModel{}, EngineConfig{}, nil)
	conn := Dial(f, client, server)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := conn.Read(0, w.ID, 0, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("v"))
	rig.conn.Target().SetMsgHandler(func(req []byte) ([]byte, error) {
		return append([]byte("pong:"), req...), nil
	})
	resp, tr, err := rig.conn.Message(0, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "pong:ping" {
		t.Errorf("resp = %q", resp)
	}
	if tr.Ns == 0 || tr.Bytes == 0 {
		t.Error("trace empty")
	}
}

func TestMessageNoHandler(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("v"))
	if _, _, err := rig.conn.Message(0, []byte("x")); err != nic.ErrUnreachable {
		t.Errorf("no handler: %v", err)
	}
}

func TestMessageHandlerError(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("v"))
	boom := errSentinel("boom")
	rig.conn.Target().SetMsgHandler(func([]byte) ([]byte, error) { return nil, boom })
	if _, _, err := rig.conn.Message(0, nil); err != boom {
		t.Errorf("handler error: %v", err)
	}
}

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// TestMessageCostlierThanRead: a two-sided message pays the thread wakeup
// a one-sided read avoids (the Figure 7 MSG premium).
func TestMessageCostlierThanRead(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("v"))
	rig.conn.Target().SetMsgHandler(func(req []byte) ([]byte, error) { return req, nil })

	acct := rig.acct
	base := acct.TotalNanos("pony")
	for i := 0; i < 50; i++ {
		rig.conn.Read(0, rig.dataWin.ID, 0, 64)
	}
	readCPU := acct.TotalNanos("pony") - base

	base = acct.TotalNanos("pony")
	for i := 0; i < 50; i++ {
		rig.conn.Message(0, make([]byte, 64))
	}
	msgCPU := acct.TotalNanos("pony") - base
	if msgCPU <= readCPU {
		t.Errorf("MSG CPU %d not above one-sided read CPU %d", msgCPU, readCPU)
	}
}

func TestMessageDownNIC(t *testing.T) {
	rig := newRig(t, []byte("k"), []byte("v"))
	rig.conn.Target().SetMsgHandler(func(req []byte) ([]byte, error) { return req, nil })
	rig.conn.Target().SetDown(true)
	if _, _, err := rig.conn.Message(0, nil); err != nic.ErrUnreachable {
		t.Errorf("down NIC message: %v", err)
	}
}

// TestScarResponseIsOneBuffer: a SCAR response is one buffer — the
// bucket's header and the matched slot, cap-limited, then the DataEntry —
// and only the header and slot on a miss or a failed pointer chase, in
// both forms; the append form's buffer is dst's tail. The modelled side
// (latency, wire bytes, span codes/args/starts/durations) is pinned to the
// values of the one-slot reply; the whole-bucket reply before it billed
// 216 more bytes per answered leg (hit 5793 ns 458 B, miss 5780 ns 400 B)
// and a serving engine and a receive that differ only in those bytes.
func TestScarResponseIsOneBuffer(t *testing.T) {
	absent := func(r *testRig) hashring.KeyHash {
		h := hashring.DefaultHash([]byte("absent"))
		h.Lo = r.hash.Lo // same bucket, so the scan runs and misses
		return h
	}
	stored := func(r *testRig) hashring.KeyHash { return r.hash }
	prefix := append(make([]byte, 0, 4096), "prefix"...)
	forms := []struct {
		name string
		scar func(r *testRig, h hashring.KeyHash) (nic.ScarResult, fabric.OpTrace, error)
	}{
		{"ScanAndRead", func(r *testRig, h hashring.KeyHash) (nic.ScarResult, fabric.OpTrace, error) {
			return r.conn.ScanAndRead(0, r.idxWin.ID, r.bucketOff(), r.geo.BucketSize(), h, r.geo.Ways)
		}},
		{"AppendScanAndRead", func(r *testRig, h hashring.KeyHash) (nic.ScarResult, fabric.OpTrace, error) {
			return r.conn.AppendScanAndRead(prefix, nil, 0, r.idxWin.ID, r.bucketOff(), r.geo.BucketSize(), h, r.geo.Ways)
		}},
	}
	for _, tc := range []struct {
		name    string
		hash    func(*testRig) hashring.KeyHash
		prep    func(*testRig)
		found   bool
		wantErr error
		ns      uint64
		bytes   uint64
		spans   []fabric.Span
	}{
		{"hit", stored, nil, true, nil, 5749, 242,
			[]fabric.Span{{Code: 9, Dur: 440}, {Code: 10, Arg: 146, Start: 2721, Dur: 514}, {Code: 11, Start: 5524, Dur: 225}}},
		{"miss", absent, nil, false, nil, 5736, 184,
			[]fabric.Span{{Code: 9, Dur: 440}, {Code: 10, Arg: 88, Start: 2721, Dur: 512}, {Code: 11, Start: 5513, Dur: 223}}},
		{"failed pointer chase", stored,
			func(r *testRig) { r.conn.Target().Registry().Revoke(r.dataWin.ID) }, false, nil, 5736, 184,
			[]fabric.Span{{Code: 9, Dur: 440}, {Code: 10, Arg: 88, Start: 2721, Dur: 512}, {Code: 11, Start: 5513, Dur: 223}}},
		{"revoked index window", stored,
			func(r *testRig) { r.conn.Target().Registry().Revoke(r.idxWin.ID) }, false, rmem.ErrRevoked, 5509, 96,
			[]fabric.Span{{Code: 9, Dur: 440}, {Code: 10, Start: 2721, Dur: 512}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, form := range forms {
				t.Run(form.name, func(t *testing.T) {
					rig := newRig(t, []byte("scar-key"), []byte("scar-value"))
					if tc.prep != nil {
						tc.prep(rig)
					}
					res, tr, err := form.scar(rig, tc.hash(rig))
					if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
						t.Fatalf("err = %v, want %v", err, tc.wantErr)
					}
					if tr.Ns != tc.ns || tr.Bytes != tc.bytes || !slices.Equal(tr.Spans, tc.spans) {
						t.Errorf("trace = %dns %dB %v\n want %dns %dB %v", tr.Ns, tr.Bytes, tr.Spans, tc.ns, tc.bytes, tc.spans)
					}
					if err != nil {
						if res.Bucket != nil || res.Data != nil || res.Found {
							t.Errorf("failed op returned %+v", res)
						}
						return
					}
					if len(res.Bucket) != scarReply || cap(res.Bucket) != len(res.Bucket) {
						t.Fatalf("reply len=%d cap=%d, want both %d", len(res.Bucket), cap(res.Bucket), scarReply)
					}
					if form.name == "AppendScanAndRead" && &res.Bucket[0] != &prefix[:len(prefix)+1][len(prefix)] {
						t.Error("the response did not land in dst's tail")
					}
					if res.Found != tc.found {
						t.Fatalf("found = %v, want %v", res.Found, tc.found)
					}
					if !tc.found {
						if res.Data != nil {
							t.Errorf("slot-only response carries %d data bytes", len(res.Data))
						}
						return
					}
					entry := append([]byte(nil), res.Data...)
					if grown := append(res.Bucket, 0xff); &grown[0] == &res.Bucket[0] {
						t.Error("append to the bucket reused the response buffer")
					}
					if !bytes.Equal(res.Data, entry) {
						t.Error("appending to res.Bucket changed res.Data")
					}
					if e, err := layout.DecodeDataEntry(res.Data); err != nil || string(e.Value) != "scar-value" {
						t.Errorf("entry = %q, %v", e.Value, err)
					}
				})
			}
		})
	}

	// Legs that share one receive buffer: a SCAR appended after an earlier
	// response must leave that response as it was.
	rig := newRig(t, []byte("scar-key"), []byte("scar-value"))
	first, _, err := rig.conn.AppendScanAndRead(prefix, nil, 0, rig.idxWin.ID, rig.bucketOff(), rig.geo.BucketSize(), rig.hash, rig.geo.Ways)
	if err != nil || !first.Found {
		t.Fatalf("found=%v err=%v", first.Found, err)
	}
	snapshot := append(slices.Clone(first.Bucket), first.Data...)
	held := prefix[:len(prefix)+len(snapshot)]
	otherOff := rig.geo.BucketOffset((int(rig.hash.Lo%uint64(rig.geo.Buckets)) + 1) % rig.geo.Buckets)
	if _, _, err := rig.conn.AppendScanAndRead(held, nil, 0, rig.idxWin.ID, otherOff, rig.geo.BucketSize(), rig.hash, rig.geo.Ways); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(slices.Clone(first.Bucket), first.Data...), snapshot) || string(prefix) != "prefix" {
		t.Error("a later SCAR rewrote an earlier response")
	}
}

// TestAppendFormMatchesOldForm: Read and ScanAndRead are wrappers over the
// append form, so on every outcome — hit, miss, a damaged pointer, a
// revoked window, an unreachable target — the two return the same bytes,
// trace and error, on twin fixtures. The append form's response follows
// dst's bytes, and an error hands dst back as it was.
func TestAppendFormMatchesOldForm(t *testing.T) {
	stored := func(r *testRig) hashring.KeyHash { return r.hash }
	absent := func(r *testRig) hashring.KeyHash {
		h := hashring.DefaultHash([]byte("absent"))
		h.Lo = r.hash.Lo
		return h
	}
	entry := func(r *testRig) (rmem.WindowID, int, int) { return r.dataWin.ID, 0, 64 }
	bucket := func(r *testRig) (rmem.WindowID, int, int) { return r.idxWin.ID, r.bucketOff(), r.geo.BucketSize() }
	damage := func(r *testRig) {
		ie := make([]byte, layout.IndexEntrySize)
		layout.EncodeIndexEntry(ie, layout.IndexEntry{Hash: r.hash, Version: truetime.Version{Micros: 1},
			Ptr: layout.Pointer{Window: r.dataWin.ID, Size: 1 << 40}})
		idx, _ := r.conn.Target().Registry().Lookup(r.idxWin.ID)
		if err := idx.Region.Write(r.bucketOff()+layout.BucketHeaderSize, ie); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		prep func(*testRig)
		hash func(*testRig) hashring.KeyHash          // the SCAR's key
		read func(*testRig) (rmem.WindowID, int, int) // the Read's extent
	}{
		{"hit", nil, stored, entry},
		{"miss", nil, absent, bucket},
		{"damaged pointer", damage, stored, func(r *testRig) (rmem.WindowID, int, int) { return r.dataWin.ID, 0, 1 << 40 }},
		{"revoked data window", func(r *testRig) { r.conn.Target().Registry().Revoke(r.dataWin.ID) }, stored, entry},
		{"revoked index window", func(r *testRig) { r.conn.Target().Registry().Revoke(r.idxWin.ID) }, stored, bucket},
		{"unreachable target", func(r *testRig) { r.conn.Target().SetDown(true) }, stored, entry},
	} {
		for _, dst := range [][]byte{nil, []byte("prefix"), append(make([]byte, 0, 4096), "prefix"...)} {
			twins := func() (*testRig, *testRig) {
				a, b := newRig(t, []byte("scar-key"), []byte("scar-value")), newRig(t, []byte("scar-key"), []byte("scar-value"))
				if tc.prep != nil {
					tc.prep(a)
					tc.prep(b)
				}
				return a, b
			}
			name := fmt.Sprintf("%s/dst len %d cap %d", tc.name, len(dst), cap(dst))
			t.Run(name+"/Read", func(t *testing.T) {
				old, app := twins()
				win, off, n := tc.read(old)
				want, wtr, werr := old.conn.Read(0, win, off, n)
				got, gtr, gerr := app.conn.AppendRead(dst, make([]fabric.Span, 0, 4), 0, win, off, n)
				sameOutcome(t, wtr, gtr, werr, gerr)
				if gerr != nil {
					if len(got) != len(dst) || cap(got) != cap(dst) || len(dst) > 0 && &got[0] != &dst[0] {
						t.Errorf("an error handed back %d bytes of %d, not dst (%d of %d)", len(got), cap(got), len(dst), cap(dst))
					}
				} else if !bytes.Equal(got[:len(dst)], dst) || !bytes.Equal(got[len(dst):], want) {
					t.Errorf("append form read %q, old form %q after dst %q", got, want, dst)
				}
			})
			t.Run(name+"/ScanAndRead", func(t *testing.T) {
				old, app := twins()
				want, wtr, werr := old.conn.ScanAndRead(0, old.idxWin.ID, old.bucketOff(), old.geo.BucketSize(), tc.hash(old), old.geo.Ways)
				got, gtr, gerr := app.conn.AppendScanAndRead(dst, make([]fabric.Span, 0, 4), 0, app.idxWin.ID, app.bucketOff(), app.geo.BucketSize(), tc.hash(app), app.geo.Ways)
				sameOutcome(t, wtr, gtr, werr, gerr)
				if got.Found != want.Found || !bytes.Equal(got.Bucket, want.Bucket) || !bytes.Equal(got.Data, want.Data) || (got.Data == nil) != (want.Data == nil) {
					t.Errorf("append form %+v, old form %+v", got, want)
				}
				if dst != nil && string(dst) != "prefix" {
					t.Errorf("dst now reads %q", dst)
				}
			})
		}
	}
}

// sameOutcome fails t unless two legs' traces and errors are identical.
func sameOutcome(t *testing.T, want, got fabric.OpTrace, werr, gerr error) {
	t.Helper()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Errorf("err = %v, old form %v", gerr, werr)
	}
	if got.Ns != want.Ns || got.Bytes != want.Bytes || !slices.Equal(got.Spans, want.Spans) {
		t.Errorf("trace = %dns %dB %v\n old form %dns %dB %v", got.Ns, got.Bytes, got.Spans, want.Ns, want.Bytes, want.Spans)
	}
}

// TestDamagedPointerIsBoundsError: an IndexEntry pointer is read out of
// RMA-visible memory, so a flipped size bit or a stale offset reaches the
// serving NIC as-is. It must cost ErrOutOfBounds (Read) or a response of
// the header and the matched slot alone (SCAR) — never an allocation sized
// by the damage.
func TestDamagedPointerIsBoundsError(t *testing.T) {
	for _, tc := range []struct {
		name string
		ptr  layout.Pointer
	}{
		{"size 1<<40", layout.Pointer{Offset: 0, Size: 1 << 40}},
		{"offset MaxInt64-8", layout.Pointer{Offset: math.MaxInt64 - 8, Size: 64}},
		{"offset and size wrap", layout.Pointer{Offset: math.MaxInt64 - 8, Size: math.MaxInt64 - 8}},
		{"size top bit", layout.Pointer{Offset: 0, Size: 1 << 63}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, []byte("k"), []byte("v"))
			tc.ptr.Window = rig.dataWin.ID
			ie := make([]byte, layout.IndexEntrySize)
			layout.EncodeIndexEntry(ie, layout.IndexEntry{Hash: rig.hash, Version: truetime.Version{Micros: 1}, Ptr: tc.ptr})
			idx, err := rig.conn.Target().Registry().Lookup(rig.idxWin.ID)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Region.Write(rig.bucketOff()+layout.BucketHeaderSize, ie); err != nil {
				t.Fatal(err)
			}

			if _, _, err := rig.conn.Read(0, tc.ptr.Window, int(tc.ptr.Offset), int(tc.ptr.Size)); !errors.Is(err, rmem.ErrOutOfBounds) {
				t.Errorf("Read err = %v, want ErrOutOfBounds", err)
			}
			res, _, err := rig.conn.ScanAndRead(0, rig.idxWin.ID, rig.bucketOff(), rig.geo.BucketSize(), rig.hash, rig.geo.Ways)
			if err != nil {
				t.Fatalf("ScanAndRead: %v", err)
			}
			if res.Found || res.Data != nil || len(res.Bucket) != scarReply {
				t.Errorf("response = found %v, %d data bytes, %d reply bytes; want the header and slot alone (%d)", res.Found, len(res.Data), len(res.Bucket), scarReply)
			}
		})
	}

	// The initiator's geometry is a claim too.
	rig := newRig(t, []byte("k"), []byte("v"))
	for _, n := range []int{1 << 40, -1, math.MaxInt64} {
		_, tr, err := rig.conn.ScanAndRead(0, rig.idxWin.ID, rig.bucketOff(), n, rig.hash, rig.geo.Ways)
		if !errors.Is(err, rmem.ErrOutOfBounds) {
			t.Errorf("bucketLen %d: err = %v, want ErrOutOfBounds", n, err)
		}
		// The refused peek still visited the serving engine.
		if len(tr.Spans) != 2 || tr.Spans[1].Code != trace.SpanEngineService {
			t.Errorf("bucketLen %d: spans %v, want the serving engine's visit after the issue", n, tr.Spans)
		}
	}
}
