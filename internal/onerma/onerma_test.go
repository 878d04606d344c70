package onerma

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/rmem"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
)

func newPair(hw *stats.Histogram) (*Conn, *rmem.Window) { return newPairOn(nil, hw) }

// newPairOn is newPair on clock (nil: the wall).
func newPairOn(clock fabric.Clock, hw *stats.Histogram) (*Conn, *rmem.Window) {
	f := fabric.New(2, fabric.Params{Clock: clock})
	reg := rmem.NewRegistry()
	region := rmem.NewRegion(1<<16, 1<<16)
	for i := 0; i < 1<<16; i += 4096 {
		region.Write(i, []byte{byte(i)})
	}
	w := reg.Register(region, 1)
	server := New(f.Host(1), reg, CostModel{}, nil, nil)
	client := New(f.Host(0), nil, CostModel{}, stats.NewCPUAccount(), hw)
	return Dial(f, client, server), w
}

func TestReadBasic(t *testing.T) {
	conn, w := newPair(nil)
	data, tr, err := conn.Read(0, w.ID, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1024 {
		t.Fatalf("read %d bytes", len(data))
	}
	if tr.Ns == 0 {
		t.Error("no latency traced")
	}
}

func TestNoScar(t *testing.T) {
	conn, _ := newPair(nil)
	if conn.SupportsScar() {
		t.Error("1RMA must not support SCAR")
	}
	if _, _, err := conn.ScanAndRead(0, 1, 0, 64, hashring.KeyHash{Hi: 1}, 4); err != nic.ErrNotSupported {
		t.Errorf("SCAR on 1RMA: got %v", err)
	}
}

func TestHWTimestampsRecorded(t *testing.T) {
	var hw stats.Histogram
	conn, w := newPair(&hw)
	for i := 0; i < 10; i++ {
		conn.Read(0, w.ID, 0, 4096)
	}
	if hw.Count() != 10 {
		t.Errorf("hw timestamps = %d, want 10", hw.Count())
	}
	// HW component must exclude client CPU: it should be below the total.
	_, tr, _ := conn.Read(0, w.ID, 0, 4096)
	if hw.Max() >= tr.Ns+hw.Max() {
		t.Error("sanity") // structural check only
	}
	if hw.Percentile(50) == 0 {
		t.Error("hw latency zero")
	}
}

// woke reports whether an op paid the C-state wake.
func woke(tr fabric.OpTrace) bool {
	for _, sp := range tr.Spans {
		if sp.Code == trace.SpanCStateWake {
			return true
		}
	}
	return false
}

// TestCStatePenaltyAtIdle reproduces the §7.2.4 observation: the first op
// after an idle gap pays a wake penalty, so latency is highest at lowest
// load. An op one ns short of the gap pays nothing; an op a full gap after
// the last one pays the wake.
func TestCStatePenaltyAtIdle(t *testing.T) {
	clk := &fabric.ManualClock{}
	conn, w := newPairOn(clk, nil)
	const gap = cstateIdleGap

	if _, first, _ := conn.Read(0, w.ID, 0, 64); !woke(first) {
		t.Error("first op on a new NIC paid no wake")
	}
	clk.Advance(gap - 1)
	_, warm, err := conn.Read(0, w.ID, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(gap)
	_, cold, err := conn.Read(0, w.ID, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if woke(warm) || !woke(cold) {
		t.Errorf("wake after gap-1: %v, after gap: %v; want false, true", woke(warm), woke(cold))
	}
	if cold.Ns < warm.Ns+cstateWakeNs/2 {
		t.Errorf("idle op %dns vs warm %dns: C-state penalty missing", cold.Ns, warm.Ns)
	}
}

// setClock is a fabric.Clock a serial test sets by hand, backwards too.
type setClock struct{ now uint64 }

func (c *setClock) NowNs() uint64     { return c.now }
func (c *setClock) SleepNs(ns uint64) { c.now += ns }

// TestBackwardsInstantNoSpuriousWake: a caller preempted between reading
// the clock and stamping the NIC presents an instant older than one already
// recorded. The last-op stamp must not move back with it, or the next op
// sees an idle gap that never happened and pays a wake.
func TestBackwardsInstantNoSpuriousWake(t *testing.T) {
	clk := &setClock{}
	conn, w := newPairOn(clk, nil)
	for i, at := range []uint64{1_000_000, 0, 200_000} {
		clk.now = at
		_, tr, err := conn.Read(0, w.ID, 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		if want := i == 0; woke(tr) != want {
			t.Errorf("op %d at %dns: wake %v, want %v", i+1, at, woke(tr), want)
		}
	}
}

// TestServerLoadInsensitive is 1RMA's differentiator: the serving path is
// hardware, so hammering the server does not inflate 1RMA service the way
// a software engine would queue. (Only fabric terms grow with bytes.)
func TestServerLoadInsensitive(t *testing.T) {
	var hw stats.Histogram
	conn, w := newPair(&hw)
	for i := 0; i < 200; i++ {
		conn.Read(0, w.ID, 0, 64)
	}
	early := hw.Snapshot().Percentile(50)
	for i := 0; i < 5000; i++ {
		conn.Read(0, w.ID, 0, 64)
	}
	late := hw.Percentile(99)
	// p99 after heavy load should stay within a small multiple of the
	// early median — no software queue blow-up (fabric jitter remains).
	if late > early*4 {
		t.Errorf("hw p99 %d vs early p50 %d: unexpected software-like queueing", late, early)
	}
}

func TestDownAndClientOnly(t *testing.T) {
	conn, w := newPair(nil)
	conn.Target().SetDown(true)
	if _, _, err := conn.Read(0, w.ID, 0, 64); err != nic.ErrUnreachable {
		t.Errorf("down target: %v", err)
	}
	conn.Target().SetDown(false)
	if _, _, err := conn.Read(0, w.ID, 0, 64); err != nil {
		t.Errorf("after recovery: %v", err)
	}

	f := fabric.New(2, fabric.Params{})
	clientOnly := Dial(f, New(f.Host(0), nil, CostModel{}, nil, nil), New(f.Host(1), nil, CostModel{}, nil, nil))
	if _, _, err := clientOnly.Read(0, 1, 0, 64); err != nic.ErrUnreachable {
		t.Errorf("client-only target: %v", err)
	}
}

func TestRevokedWindowError(t *testing.T) {
	conn, w := newPair(nil)
	conn.Target().Registry().Revoke(w.ID)
	if _, _, err := conn.Read(0, w.ID, 0, 64); err == nil {
		t.Error("revoked window read succeeded")
	}
}

func BenchmarkOneRMARead(b *testing.B) {
	conn, w := newPair(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := conn.Read(0, w.ID, 0, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDamagedPointerIsBoundsError: the 2×R data leg reads wherever the
// IndexEntry pointer says, and that pointer came out of RMA-visible
// memory. A flipped size bit or a wrapped offset must come back as
// ErrOutOfBounds from the serving side, not as an allocation or a panic.
func TestDamagedPointerIsBoundsError(t *testing.T) {
	conn, w := newPair(nil)
	for _, tc := range []struct{ off, n int }{
		{0, 1 << 40},
		{math.MaxInt64 - 8, 64},
		{math.MaxInt64 - 8, math.MaxInt64 - 8},
		{0, -1},
	} {
		data, tr, err := conn.Read(0, w.ID, tc.off, tc.n)
		if !errors.Is(err, rmem.ErrOutOfBounds) || data != nil {
			t.Errorf("Read(%d, %d) = %d bytes, %v; want ErrOutOfBounds", tc.off, tc.n, len(data), err)
		}
		if tr.Ns == 0 {
			t.Errorf("Read(%d, %d): the refused command still crossed the fabric and must be billed", tc.off, tc.n)
		}
	}
}

// TestAppendFormMatchesOldForm: Read is a wrapper over AppendRead (and
// ScanAndRead over AppendScanAndRead), so on every outcome — a hit, a
// damaged pointer, a revoked window, an unreachable target — the two
// return the same bytes, trace and error on twin fixtures. The append
// form's response follows dst's bytes, and an error hands dst back as it
// was.
func TestAppendFormMatchesOldForm(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prep   func(*Conn, *rmem.Window)
		off, n int
	}{
		{"hit", func(_ *Conn, w *rmem.Window) { w.Region.Write(4100, []byte("one-sided")) }, 4096, 1024},
		{"damaged pointer", nil, 0, 1 << 40},
		{"revoked window", func(c *Conn, w *rmem.Window) { c.Target().Registry().Revoke(w.ID) }, 0, 64},
		{"unreachable target", func(c *Conn, _ *rmem.Window) { c.Target().SetDown(true) }, 0, 64},
	} {
		for _, dst := range [][]byte{nil, []byte("prefix"), append(make([]byte, 0, 4096), "prefix"...)} {
			t.Run(fmt.Sprintf("%s/dst len %d cap %d", tc.name, len(dst), cap(dst)), func(t *testing.T) {
				old, ow := newPairOn(&fabric.ManualClock{}, nil)
				app, aw := newPairOn(&fabric.ManualClock{}, nil)
				if tc.prep != nil {
					tc.prep(old, ow)
					tc.prep(app, aw)
				}
				want, wtr, werr := old.Read(0, ow.ID, tc.off, tc.n)
				got, gtr, gerr := app.AppendRead(dst, make([]fabric.Span, 0, 4), 0, aw.ID, tc.off, tc.n)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Errorf("err = %v, old form %v", gerr, werr)
				}
				if gtr.Ns != wtr.Ns || gtr.Bytes != wtr.Bytes || !slices.Equal(gtr.Spans, wtr.Spans) {
					t.Errorf("trace = %dns %dB %v\n old form %dns %dB %v", gtr.Ns, gtr.Bytes, gtr.Spans, wtr.Ns, wtr.Bytes, wtr.Spans)
				}
				if gerr != nil {
					if len(got) != len(dst) || cap(got) != cap(dst) || len(dst) > 0 && &got[0] != &dst[0] {
						t.Errorf("an error handed back %d bytes of %d, not dst (%d of %d)", len(got), cap(got), len(dst), cap(dst))
					}
				} else if !bytes.Equal(got[:len(dst)], dst) || !bytes.Equal(got[len(dst):], want) {
					t.Errorf("append form read %d bytes after dst %q, old form %d", len(got)-len(dst), got[:len(dst)], len(want))
				}
			})
		}
	}
	old, _ := newPair(nil)
	res, tr, err := old.AppendScanAndRead([]byte("prefix"), nil, 0, 1, 0, 64, hashring.KeyHash{Hi: 1}, 4)
	if err != nic.ErrNotSupported || res.Bucket != nil || tr.Ns != 0 || tr.Spans != nil {
		t.Errorf("AppendScanAndRead on 1RMA: %+v %+v %v", res, tr, err)
	}
}
