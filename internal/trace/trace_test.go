package trace

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"cliquemap/internal/fabric"
	"cliquemap/internal/wire"
)

func opTrace(ns uint64, spans ...fabric.Span) fabric.OpTrace {
	return fabric.OpTrace{Ns: ns, Spans: spans}
}

func TestKindTransportRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if got := KindOf(k.String()); got != k {
			t.Errorf("KindOf(%q) = %v, want %v", k.String(), got, k)
		}
	}
	names := make(map[string]Transport)
	for tp := Transport(0); tp < numTransports; tp++ {
		if other, dup := names[tp.String()]; dup {
			t.Errorf("transports %d and %d share the name %q", other, tp, tp.String())
		}
		names[tp.String()] = tp
	}
	if KindOf("garbage") != KindOther {
		t.Error("unknown kind must map to KindOther")
	}
	if Transport(200).String() != "RPC" {
		t.Error("unknown transport must map to TransportRPC")
	}
}

// retiredCodes are the span codes no live span uses any more.
var retiredCodes = []uint16{16, 20, 21}

// TestCodeNameCoversAllCodes: every code up to the newest, SpanRPCQueue,
// is named unless it is retired.
func TestCodeNameCoversAllCodes(t *testing.T) {
	for c := uint16(1); c <= SpanRPCQueue; c++ {
		if name := CodeName(c); !slices.Contains(retiredCodes, c) && strings.HasPrefix(name, "span-") {
			t.Errorf("code %d has no name", c)
		}
	}
	if CodeName(999) != "span-999" {
		t.Errorf("unknown code rendering = %q", CodeName(999))
	}
}

// TestRetiredSpanCodesStayRetired: a retired code names nothing, so a
// span from an older peer renders numerically and no new code reuses it.
func TestRetiredSpanCodesStayRetired(t *testing.T) {
	for _, c := range retiredCodes {
		if got, want := CodeName(c), fmt.Sprintf("span-%d", c); got != want {
			t.Errorf("CodeName(%d) = %q, want %q", c, got, want)
		}
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	ctx := new(OpContext)
	sc := ctx.Init(context.Background(), SpanContext{OpID: 7, Kind: KindSet, Attempt: 2})
	if got := FromContext(ctx); got != sc || *got != (SpanContext{OpID: 7, Kind: KindSet, Attempt: 2}) {
		t.Fatalf("FromContext = %p %+v, want %p", got, got, sc)
	}
	// The op's opener bumps Attempt through its pointer; layers below, even
	// behind derived contexts, must see it.
	sc.Attempt = 5
	sinkCtx, _ := AttachSink(ctx, GetSink())
	child, cancel := context.WithCancel(sinkCtx)
	defer cancel()
	if got := FromContext(child); got != sc || got.Attempt != 5 {
		t.Fatalf("derived FromContext = %+v, want the same node with Attempt 5", got)
	}
	if SinkFrom(child) == nil {
		t.Fatal("values attached below the span context must stay reachable")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must yield nil")
	}
}

func TestSinkCollectsAndRecycles(t *testing.T) {
	s := GetSink()
	s.Annotate(SpanStripeWait, 3, 1500)
	s.Annotate(SpanEngineService, 0, 200)
	got := s.Take()
	if len(got) != 2 || got[0].Code != SpanStripeWait || got[0].Dur != 1500 {
		t.Fatalf("sink spans = %+v", got)
	}
	PutSink(s)
	s2 := GetSink()
	if len(s2.Take()) != 0 {
		t.Fatal("pooled sink not reset")
	}
	ctx, slot := AttachSink(context.Background(), s2)
	if slot != nil || SinkFrom(ctx) != s2 {
		t.Fatal("SinkFrom lost the sink")
	}
}

// TestSinkSlotIsClaimedNeverAssumed walks the ownership rule of an op
// node's sink slot: the first leg of an op takes it and its handler finds
// the sink there at no cost; while it is held, a concurrent leg and the
// handler's own nested call both get a node of their own; so does a call
// made under such a node, which would shadow the slot; released, the slot
// is free again.
func TestSinkSlotIsClaimedNeverAssumed(t *testing.T) {
	ctx := new(OpContext)
	ctx.Init(context.Background(), SpanContext{OpID: 1})
	a, b := GetSink(), GetSink()
	actx, slot := AttachSink(ctx, a)
	if slot == nil || actx != ctx || SinkFrom(ctx) != a {
		t.Fatalf("first leg: slot %p, handler sees %p, want sink %p in the op's own node", slot, SinkFrom(ctx), a)
	}
	child, cancel := context.WithCancel(ctx)
	defer cancel()
	if SinkFrom(child) != a {
		t.Fatal("a context derived from the op's must reach the slot")
	}
	bctx, bslot := AttachSink(child, b)
	if bslot != nil || SinkFrom(bctx) != b || SinkFrom(ctx) != a {
		t.Fatal("a second leg must wrap, and each handler see its own sink")
	}
	slot.ReleaseSink()
	if SinkFrom(ctx) != nil {
		t.Fatal("released slot still visible")
	}
	if nctx, nslot := AttachSink(bctx, a); nslot != nil || SinkFrom(nctx) != a {
		t.Fatal("a call under a wrapped sink took the slot: its handler would find the wrong sink")
	}
	if _, slot = AttachSink(ctx, b); slot == nil {
		t.Fatal("released slot cannot be claimed again")
	}
	slot.ReleaseSink()

	// Concurrent legs of one op: at most one holds the slot at a time, and
	// every handler finds its own sink. Run under -race.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := GetSink()
				hctx, slot := AttachSink(ctx, s)
				SinkFrom(hctx).Annotate(SpanStripeWait, 0, 1)
				if got := s.Take(); len(got) != 1 {
					t.Errorf("a leg's sink holds %d spans, want its handler's 1", len(got))
				}
				if slot != nil {
					slot.ReleaseSink()
				}
				PutSink(s)
			}
		}()
	}
	wg.Wait()
}

func TestTracerRecordsHistogramsPerKindTransport(t *testing.T) {
	tr := NewTracer()
	tr.Record(tr.NextID(), KindGet, TransportSCAR, 1, opTrace(7_000))
	tr.Record(tr.NextID(), KindGet, TransportSCAR, 1, opTrace(9_000))
	tr.Record(tr.NextID(), KindSet, TransportRPC, 1, opTrace(100_000))
	if got := tr.hists[KindGet][TransportSCAR].Count(); got != 2 {
		t.Errorf("GET/SCAR count = %d", got)
	}
	if got := tr.hists[KindSet][TransportRPC].Count(); got != 1 {
		t.Errorf("SET/RPC count = %d", got)
	}
	if got := tr.overall.Count(); got != 3 {
		t.Errorf("overall count = %d", got)
	}
	if tr.Ops() != 3 {
		t.Errorf("ops = %d", tr.Ops())
	}
}

func TestSlowPromotionUsesThreshold(t *testing.T) {
	tr := NewTracer()
	tr.SetSlowThreshold(10_000)
	tr.Record(tr.NextID(), KindGet, Transport2xR, 1, opTrace(9_999))
	if tr.SlowOpsSeen() != 0 {
		t.Fatal("below-threshold op promoted")
	}
	spans := []fabric.Span{{Code: SpanEngineService, Dur: 11_000}}
	tr.Record(77, KindGet, Transport2xR, 2, opTrace(11_000, spans...))
	if tr.SlowOpsSeen() != 1 {
		t.Fatal("above-threshold op not promoted")
	}
	snap := tr.Snapshot(0)
	if len(snap.Slow) != 1 {
		t.Fatalf("slow log = %d entries", len(snap.Slow))
	}
	s := snap.Slow[0]
	if s.ID != 77 || s.Attempts != 2 || s.WallNs == 0 {
		t.Errorf("slow record = %+v", s)
	}
	if len(s.Spans) != 1 || s.Spans[0].Code != SpanEngineService {
		t.Errorf("slow record spans = %+v", s.Spans)
	}
}

func TestRollingThresholdRefreshes(t *testing.T) {
	tr := NewTracer()
	// Saturate past a refresh boundary with 10µs ops; the rolling
	// threshold should settle near max(2×p99, MinSlowNs) = MinSlowNs.
	for i := 0; i < thresholdEvery+1; i++ {
		tr.Record(tr.NextID(), KindGet, Transport2xR, 1, opTrace(10_000))
	}
	if th := tr.SlowThreshold(); th != MinSlowNs {
		t.Errorf("threshold = %d, want floor %d", th, MinSlowNs)
	}
	// With a genuinely slow p99 the threshold scales with it.
	tr2 := NewTracer()
	for i := 0; i < thresholdEvery; i++ {
		tr2.Record(tr2.NextID(), KindGet, Transport2xR, 1, opTrace(2_000_000))
	}
	if th := tr2.SlowThreshold(); th < 2*1_800_000 {
		t.Errorf("threshold = %d, want ≈2×p99 of 2ms", th)
	}
}

func TestExemplarReservoirBounded(t *testing.T) {
	tr := NewTracer()
	tr.SetSlowThreshold(1 << 62)
	for i := 0; i < 10_000; i++ {
		tr.Record(tr.NextID(), KindGet, TransportSCAR, 1, opTrace(uint64(1000+i)))
	}
	snap := tr.Snapshot(0)
	if len(snap.Exemplars) > exemplarsPerKind {
		t.Fatalf("exemplars = %d, cap %d", len(snap.Exemplars), exemplarsPerKind)
	}
	if len(snap.Exemplars) != exemplarsPerKind {
		t.Fatalf("reservoir not filled: %d", len(snap.Exemplars))
	}
}

// TestTracerKeepsCopies: a recorded op's spans are the tracer's own copy,
// and what Snapshot hands out is the caller's. A client op records its
// leased span buffer and reuses it for the next op; the slot storage
// behind an exemplar or slow record is overwritten in place.
func TestTracerKeepsCopies(t *testing.T) {
	tr := NewTracer()
	tr.SetSlowThreshold(1) // every op is slow, so all three retain it
	spans := []fabric.Span{{Code: SpanIndexFetch, Arg: 3, Dur: 4200}, {Code: SpanDataRead, Arg: 1, Start: 4200, Dur: 900}}
	want := slices.Clone(spans)
	tr.Record(1, KindGet, TransportSCAR, 1, opTrace(5100, spans...))
	for i := range spans { // the caller reuses its buffer
		spans[i] = fabric.Span{Code: SpanRetry}
	}
	snap := tr.Snapshot(0)
	for name, got := range map[string][]fabric.Span{
		"Snapshot.Slow": snap.Slow[0].Spans, "Snapshot.Exemplars": snap.Exemplars[0].Spans,
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s after the caller reused its buffer: %+v, want %+v", name, got, want)
		}
	}

	// Every slot the snapshot came from is overwritten: the slow log (64)
	// wraps, and the reservoir replaces exemplars.
	for i := 0; i < 600; i++ {
		tr.Record(uint64(100+i), KindGet, TransportSCAR, 1, opTrace(7, fabric.Span{Code: SpanRetry, Arg: uint32(i)}))
	}
	for name, got := range map[string][]fabric.Span{
		"Snapshot.Slow": snap.Slow[0].Spans, "Snapshot.Exemplars": snap.Exemplars[0].Spans,
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s after 600 more Records: %+v, want %+v", name, got, want)
		}
	}

	// Once the slots hold storage, an op that is not slow costs nothing.
	tr.SetSlowThreshold(1 << 62)
	if n := testing.AllocsPerRun(100, func() {
		tr.Record(tr.NextID(), KindGet, TransportSCAR, 1, opTrace(7, want...))
	}); n != 0 {
		t.Errorf("Record allocates %v times", n)
	}
}

// TestTracerRecordCopiesOnlyKeptOps: a tracer keeps no per-op copy beyond
// its slow log and its exemplar reservoir, so on a fresh tracer, once the
// reservoir is full, an op that is not slow allocates nothing.
func TestTracerRecordCopiesOnlyKeptOps(t *testing.T) {
	tr := NewTracer()
	spans := []fabric.Span{{Code: SpanIndexFetch, Arg: 3, Dur: 4200}, {Code: SpanDataRead, Arg: 1, Start: 4200, Dur: 900}}
	for i := 0; i < exemplarsPerKind; i++ {
		tr.Record(tr.NextID(), KindGet, TransportSCAR, 1, opTrace(5100, spans...))
	}
	tr.SetSlowThreshold(1 << 62)
	if n := testing.AllocsPerRun(100, func() {
		tr.Record(tr.NextID(), KindGet, TransportSCAR, 1, opTrace(5100, spans...))
	}); n != 0 {
		t.Errorf("Record allocates %v times", n)
	}
}

// TestLeasesReuseOneRecord: an op's record comes back to the next op, and
// the spare keeps nothing of the context it was armed under; a second op
// while the first holds the record gets one of its own.
func TestLeasesReuseOneRecord(t *testing.T) {
	var ls Leases
	a := ls.Take()
	ctx := context.WithValue(context.Background(), ctxKey(99), "caller")
	sc := a.Init(ctx, SpanContext{OpID: 3})
	if FromContext(&a.OpContext) != sc || len(a.Spans) < 15 {
		t.Fatal("a leased record must carry its span context and a span buffer for a 2×R GET")
	}
	if b := ls.Take(); b == a {
		t.Fatal("a record held by an op was leased again")
	}
	ls.Put(a)
	if a.Context != nil {
		t.Error("the spare keeps its last op's caller context alive")
	}
	if ls.Take() != a {
		t.Error("the returned record was not reused")
	}
}

// TestLeaseArena: a leg that outgrows the receive arena reads into its own
// buffer and the arena regrows for the legs after it, leaving what earlier
// legs hold where it was; after one op of three 17.5 KiB legs the next
// allocates nothing; and an op whose legs total past MaxRecv leaves the
// spare holding no more than MaxRecv. Spans past the leg storage, on a
// retrying op, come from a fresh slice of the same capacity.
func TestLeaseArena(t *testing.T) {
	var ls Leases
	var src [3][]byte // leg i's response bytes
	for i := range src {
		src[i] = bytes.Repeat([]byte{byte('a' + i)}, 120<<10)
	}
	op := func(n int) {
		l := ls.Take()
		var views [3][]byte
		for i := range views {
			dst, spans := l.Leg()
			if cap(spans) != legSpans || len(spans) != 0 {
				t.Fatalf("leg spans len %d cap %d, want room for %d", len(spans), cap(spans), legSpans)
			}
			views[i] = append(dst, src[i][:n]...)
			l.Received(len(views[i]))
		}
		for i, v := range views {
			if !bytes.Equal(v, src[i][:n]) {
				t.Fatalf("leg %d's bytes changed under the legs after it", i)
			}
		}
		ls.Put(l)
	}
	op(17_920)
	if n := testing.AllocsPerRun(20, func() { op(17_920) }); n != 0 {
		t.Errorf("a warmed op of three 17.5 KiB legs allocates %v times", n)
	}
	op(120 << 10)
	l := ls.Take()
	if c := cap(l.Recv); c > MaxRecv || c < 3*17_920 {
		t.Errorf("after an op of three 120 KiB legs the arena holds %d bytes, want between %d and %d", c, 3*17_920, MaxRecv)
	}
	for i := 0; i < len(l.slots)/legSpans+1; i++ {
		if _, spans := l.Leg(); cap(spans) != legSpans {
			t.Fatalf("leg %d: span room %d, want %d", i, cap(spans), legSpans)
		}
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	const g, per = 8, 2000
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				k := Kind(j % int(numKinds))
				tp := Transport(j % int(numTransports))
				tr.Record(tr.NextID(), k, tp, 1, opTrace(uint64(j+1)))
			}
		}(i)
	}
	wg.Wait()
	if tr.Ops() != g*per {
		t.Fatalf("ops = %d, want %d", tr.Ops(), g*per)
	}
	var hist uint64
	snap := tr.Snapshot(0)
	for _, h := range snap.Hists {
		hist += h.Count
	}
	if hist != g*per {
		t.Fatalf("histogram counts sum to %d, want %d", hist, g*per)
	}
}

func TestWireSpanRoundTrip(t *testing.T) {
	in := []fabric.Span{
		{Code: SpanIndexFetch, Arg: 3, Start: 0, Dur: 4200},
		{Code: SpanQuorumWait, Arg: 2, Start: 4200, Dur: 900},
		{Code: SpanDataRead, Arg: 1, Start: 5100, Dur: 3100},
	}
	e := wire.NewRawEncoder()
	EncodeSpans(e, 8, in)
	d := wire.NewRawDecoder(e.Encoded())
	var out []fabric.Span
	for d.Next() {
		if d.Tag() == 8 {
			out = append(out, DecodeSpan(d.Bytes()))
		}
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("span %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

// TestEncodeSpansReusesOneEncoder: EncodeSpans encodes every span in place
// in the caller's encoder. The bytes must equal a fresh nested encoder per
// span, and the call must not allocate at all once the caller's buffer
// holds the spans.
func TestEncodeSpansReusesOneEncoder(t *testing.T) {
	spans := []fabric.Span{
		{Code: 0xffff, Arg: 0xffffffff, Start: 1<<64 - 1, Dur: 1<<63 + 5},
		{Code: SpanRPCClient, Arg: 0, Start: 0, Dur: 1},
		{Code: SpanFabric, Arg: 1 << 20, Start: 77, Dur: 1 << 40},
		{},
	}
	want := wire.NewRawEncoder()
	for _, s := range spans {
		m := wire.NewRawEncoder()
		m.Uint(1, uint64(s.Code))
		m.Uint(2, uint64(s.Arg))
		m.Uint(3, s.Start)
		m.Uint(4, s.Dur)
		want.Message(5, m)
	}
	got := wire.NewRawEncoder()
	EncodeSpans(got, 5, spans)
	if !bytes.Equal(got.Encoded(), want.Encoded()) {
		t.Fatalf("encoded bytes differ:\n got %x\nwant %x", got.Encoded(), want.Encoded())
	}

	many := make([]fabric.Span, 64)
	e := new(wire.Encoder)
	e.InitSized(8 << 10)
	if n := testing.AllocsPerRun(50, func() {
		e.Reset(true)
		EncodeSpans(e, 5, many)
	}); n > 0 {
		t.Errorf("EncodeSpans of %d spans allocates %v times; spans are encoded in place", len(many), n)
	}
}

func TestDecodeSpanMalformedDegradesToZero(t *testing.T) {
	// Garbage bytes, truncated varints, and wide ids must never panic and
	// never error — trace freight is best-effort.
	cases := [][]byte{
		nil,
		{},
		{0xff},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{0x08}, // tag 1 varint, missing value
	}
	for _, b := range cases {
		_ = DecodeSpan(b)
	}
	// A span id wider than 16 bits truncates rather than corrupting
	// neighbours.
	e := wire.NewRawEncoder()
	e.Uint(1, 0xABCDE)
	e.Uint(4, 5)
	s := DecodeSpan(e.Encoded())
	if s.Code != uint16(0xABCDE&0xFFFF) || s.Dur != 5 {
		t.Errorf("wide-id span = %+v", s)
	}
}
