package fabric

import (
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultsApplied(t *testing.T) {
	f := New(2, Params{})
	p := f.Params()
	if p.BaseRTTNs == 0 || p.HostGbps == 0 || p.MTU == 0 {
		t.Errorf("defaults not applied: %+v", p)
	}
	if f.NumHosts() != 2 {
		t.Errorf("NumHosts = %d", f.NumHosts())
	}
}

func TestHostOutOfRangePanics(t *testing.T) {
	f := New(1, Params{})
	defer func() {
		if recover() == nil {
			t.Error("Host(5) did not panic")
		}
	}()
	f.Host(5)
}

// TestIsolateHostCutsBothDirections: an isolated host reaches no other
// host and none reaches it, in either direction, until HealLinks; the
// other hosts stay linked, and isolating twice is one isolation.
func TestIsolateHostCutsBothDirections(t *testing.T) {
	f := New(3, Params{})
	f.IsolateHost(1)
	f.IsolateHost(1)
	for _, c := range []struct {
		src, dst int
		want     bool
	}{{0, 1, false}, {1, 0, false}, {2, 1, false}, {1, 2, false}, {0, 2, true}, {2, 0, true}, {1, 1, true}} {
		if got := f.Linked(c.src, c.dst); got != c.want {
			t.Errorf("Linked(%d, %d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
	f.HealLinks()
	if !f.Linked(0, 1) || !f.Linked(1, 0) || f.isolated.Load() != 0 {
		t.Errorf("after HealLinks: linked %v/%v, %d isolated", f.Linked(0, 1), f.Linked(1, 0), f.isolated.Load())
	}
}

func TestDeliverLatencyComponents(t *testing.T) {
	f := New(2, Params{JitterFrac: 1e-9}) // effectively no jitter
	h := f.Host(0)

	small := h.Deliver(64)
	if small < f.Params().BaseRTTNs/2 {
		t.Errorf("latency %d below propagation floor", small)
	}
	// A 64KB transfer at 50Gbps ≈ 10.5µs serialization; must dominate.
	big := f.Host(1).Deliver(64 * 1024)
	if big < 10000 {
		t.Errorf("64KB delivery only %dns; serialization missing", big)
	}
	if big <= small {
		t.Error("larger transfer not slower")
	}
}

func TestAntagonistInflatesLatency(t *testing.T) {
	// Two fabrics, same seed: identical jitter streams, so the comparison
	// isolates the antagonist term.
	base, loaded := New(1, Params{}), New(1, Params{})
	loaded.Host(0).SetExternalLoad(0.95)
	var sumBase, sumLoaded uint64
	for i := 0; i < 200; i++ {
		sumBase += base.Host(0).Deliver(4096)
		sumLoaded += loaded.Host(0).Deliver(4096)
	}
	if sumLoaded < sumBase*3 {
		t.Errorf("95%% antagonist inflated latency only %dx/100", sumLoaded*100/sumBase)
	}
}

func TestExternalLoadClamped(t *testing.T) {
	f := New(1, Params{})
	f.Host(0).SetExternalLoad(2.0)
	if got := f.Host(0).ExternalLoad(); got > 0.99 {
		t.Errorf("load not clamped: %v", got)
	}
	f.Host(0).SetExternalLoad(-1)
	if got := f.Host(0).ExternalLoad(); got != 0 {
		t.Errorf("negative load not clamped: %v", got)
	}
}

// TestIncastQueueing reproduces the §6.3 incast mechanism: several large
// responses arriving at one host back-to-back must queue behind each other,
// so the last arrival sees much higher latency than the first.
func TestIncastQueueing(t *testing.T) {
	f := New(1, Params{JitterFrac: 1e-9})
	h := f.Host(0)
	const sz = 64 * 1024
	first := h.Deliver(sz)
	var last uint64
	for i := 0; i < 9; i++ {
		last = h.Deliver(sz)
	}
	if last < first*5 {
		t.Errorf("10-way incast: first %dns, last %dns — queueing too weak", first, last)
	}
}

func TestBacklogDrainsOverTime(t *testing.T) {
	clk := &ManualClock{}
	f := New(1, Params{JitterFrac: 1e-9, Clock: clk})
	h := f.Host(0)
	for i := 0; i < 20; i++ {
		h.Deliver(64 * 1024)
	}
	congested := h.Deliver(1024)
	if h.Backlog() == 0 {
		t.Fatal("21 back-to-back deliveries left no backlog")
	}
	clk.Advance(h.Backlog()) // the clock moving drains the backlog
	if b := h.Backlog(); b != 0 {
		t.Errorf("backlog %dns after advancing past it", b)
	}
	drained := h.Deliver(1024)
	if drained >= congested {
		t.Errorf("backlog did not drain: %d then %d", congested, drained)
	}
}

func TestFrameOverheadPerMTU(t *testing.T) {
	f := New(1, Params{MTU: 1000, FrameOverhead: 100})
	if got := f.frameBytes(2500); got != 2500+3*100 {
		t.Errorf("frameBytes(2500) = %d, want 2800", got)
	}
	if got := f.frameBytes(0); got != 100 {
		t.Errorf("frameBytes(0) = %d, want 100", got)
	}
}

func TestOpTrace(t *testing.T) {
	var tr OpTrace
	tr.Add(100)
	tr.AddBytes(50)
	tr.AddBytes(-5) // ignored
	leg := OpTrace{Ns: 300, Bytes: 10}
	tr.Merge(leg) // parallel: max latency
	if tr.Ns != 300 || tr.Bytes != 60 {
		t.Errorf("after merge: %+v", tr)
	}
	tr.Sequence(OpTrace{Ns: 50, Bytes: 1})
	if tr.Ns != 350 || tr.Bytes != 61 {
		t.Errorf("after sequence: %+v", tr)
	}
	if tr.Duration() != 350*time.Nanosecond {
		t.Errorf("duration = %v", tr.Duration())
	}
}

func TestOpTraceMergeProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		t1 := OpTrace{Ns: a}
		t1.Merge(OpTrace{Ns: b})
		want := a
		if b > a {
			want = b
		}
		return t1.Ns == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueueModel(t *testing.T) {
	if QueueModel(1000, 0) != 0 {
		t.Error("zero utilization must not queue")
	}
	lo, hi := QueueModel(1000, 0.3), QueueModel(1000, 0.9)
	if hi <= lo {
		t.Error("queue wait must grow with utilization")
	}
	// Saturation is clamped, not infinite.
	if QueueModel(1000, 5.0) == 0 || QueueModel(1000, 5.0) > 1000*100 {
		t.Errorf("saturated queue = %d", QueueModel(1000, 5.0))
	}
}

func TestJitterReproducible(t *testing.T) {
	a, b := New(3, Params{Seed: 42}), New(3, Params{Seed: 42})
	for i := 0; i < 100; i++ {
		if a.Host(i%3).Deliver(1000) != b.Host(i%3).Deliver(1000) {
			// Arrival clocks differ between fabrics, so exact equality can
			// break only via the `now` term; with an empty queue both see
			// queue=0, so latencies must match exactly.
			t.Fatal("same seed produced different latencies")
		}
	}
}

func TestConcurrentDeliverSafe(t *testing.T) {
	f := New(4, Params{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				f.Host(g % 4).Deliver(1024)
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkDeliver(b *testing.B) {
	f := New(1, Params{})
	h := f.Host(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Deliver(4096)
	}
}

// TestDeliverAtPinsArrival is the incast mechanism: parallel legs of one op
// pass a common virtual start instant so their responses queue behind each
// other on the downlink even when the simulation issues them sequentially
// in real time.
func TestDeliverAtPinsArrival(t *testing.T) {
	clk := &ManualClock{}
	clk.Advance(1) // at == 0 means "now"; pin a real instant
	f := New(1, Params{JitterFrac: 1e-9, Clock: clk})
	h := f.Host(0)
	at := f.NowNs()
	const sz = 64 * 1024
	first := h.DeliverAt(at, sz)
	clk.Advance(2_000_000)        // time passes; backlog would drain
	second := h.DeliverAt(at, sz) // but the pinned arrival still queues
	if second < first+first/2 {
		t.Errorf("pinned second leg %dns did not queue behind first %dns", second, first)
	}
	// An unpinned delivery later sees a drained queue.
	clk.Advance(2_000_000)
	third := h.Deliver(sz)
	if third >= second {
		t.Errorf("unpinned delivery %dns should be faster than pinned-queued %dns", third, second)
	}
}

func TestDeliverAtZeroMeansNow(t *testing.T) {
	f := New(1, Params{JitterFrac: 1e-9})
	a := f.Host(0).DeliverAt(0, 1024)
	b := f.Host(0).Deliver(1024)
	// Both are "now" deliveries of the same size on an idle link: within
	// a serialization quantum of each other.
	diff := int64(a) - int64(b)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(a) {
		t.Errorf("DeliverAt(0) = %d vs Deliver = %d", a, b)
	}
}

// quietHost is a one-host fabric on a manual clock parked at 10 ms, with
// jitter too small to register, so DeliverAt returns exactly half the base
// RTT plus serialisation plus queueing.
func quietHost() (*Host, uint64) {
	clk := &ManualClock{}
	clk.Advance(10_000_000)
	f := New(1, Params{JitterFrac: 1e-9, Clock: clk})
	return f.Host(0), f.Params().BaseRTTNs / 2
}

// TestOutOfOrderLegsGetTheirOwnGaps: a leg that executes after another but
// arrives virtually before it — its goroutine stalled between pinning its
// instant and billing it — queues behind nothing that arrived after it,
// and a leg that does overlap earlier traffic still waits out exactly the
// overlap. A single drain clock billed the first case ~400 µs.
func TestOutOfOrderLegsGetTheirOwnGaps(t *testing.T) {
	h, half := quietHost()
	const sz = 64 << 10
	idle := h.DeliverAt(500_000, sz)
	ser := idle - half
	if got := h.DeliverAt(100_000, sz); got != idle {
		t.Errorf("leg at 100µs after one at 500µs: %dns, want the idle %dns", got, idle)
	}
	if got, want := h.DeliverAt(500_000+ser/2, sz), idle+ser/2; got != want {
		t.Errorf("leg inside the 500µs leg's transfer: %dns, want %dns", got, want)
	}
	// The gap between the two earlier legs fits one more transfer exactly.
	if got := h.DeliverAt(100_000+ser, sz); got != idle {
		t.Errorf("leg in the gap between them: %dns, want the idle %dns", got, idle)
	}
}

// TestInOrderLegsQueueAsOneDrainClock: when legs are billed in virtual
// order — an op's parallel legs at one instant, a serial client's legs at
// rising instants — each queues exactly as behind one downlink drain clock
// (start = max(arrival, the previous leg's end)), which is the whole model
// the figures' incast and serialisation rows were calibrated on.
func TestInOrderLegsQueueAsOneDrainClock(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for round := 0; round < 50; round++ {
		h, half := quietHost()
		var drain uint64
		at := uint64(1) // 0 would mean now
		for leg := 0; leg < 200; leg++ {
			if rng.IntN(3) > 0 { // a third of the legs share the previous instant
				at += uint64(rng.IntN(30_000))
			}
			sz := 1 + rng.IntN(64<<10)
			ref, _ := quietHost()
			idle := ref.DeliverAt(1, sz)
			start := max(drain, at)
			drain = start + idle - half
			if got, want := h.DeliverAt(at, sz), idle+start-at; got != want {
				t.Fatalf("round %d leg %d (%dB at %dns): %dns, want %dns", round, leg, sz, at, got, want)
			}
		}
		if got := h.StallNs(); got != 0 {
			t.Fatalf("round %d: in-order legs billed %dns of stall", round, got)
		}
	}
}

// TestLegOlderThanRingIsFree: once more busy periods than the ring holds
// were billed after an instant, a leg at that instant queues behind none
// of them, even where it overlaps a forgotten one.
func TestLegOlderThanRingIsFree(t *testing.T) {
	h, _ := quietHost()
	const sz = 64 << 10
	idle := h.DeliverAt(1_000_000, sz)
	for i := 1; i <= ringLen; i++ {
		h.DeliverAt(1_000_000+uint64(i)*100_000, sz)
	}
	if got := h.DeliverAt(1_000_000, sz); got != idle {
		t.Errorf("leg at the forgotten first leg's instant: %dns, want the idle %dns", got, idle)
	}
}

// TestStallShareCountsOnlyLateLegs: the stall share sums the queue of legs
// that trailed the newest interval by more than a base RTT, and none of
// the queue an op's parallel legs pay at the newest instant.
func TestStallShareCountsOnlyLateLegs(t *testing.T) {
	h, half := quietHost()
	const sz = 64 << 10
	idle := h.DeliverAt(100_000, sz)
	h.DeliverAt(200_000, sz)
	incast := h.DeliverAt(200_000, sz) - idle // a parallel leg: queued, not late
	late := h.DeliverAt(100_000+1, sz) - idle // overlaps the first leg, 100µs behind the newest
	if incast == 0 || late == 0 {
		t.Fatalf("queues: incast %dns, late %dns; both legs should have queued", incast, late)
	}
	if got := h.StallNs(); got != late {
		t.Errorf("StallNs = %dns, want the late leg's %dns (incast %dns, half RTT %dns)", got, late, incast, half)
	}
}

// TestDeliverAtAllocatesNothing: billing sits on every RMA and RPC leg.
func TestDeliverAtAllocatesNothing(t *testing.T) {
	h, _ := quietHost()
	at := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		at += 997
		h.DeliverAt(at%5_000_000, 4096)
	}); n != 0 {
		t.Errorf("DeliverAt allocates %v per call", n)
	}
}
