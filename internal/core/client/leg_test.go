package client

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/pony"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// legRecord is one leg as its transport answered it: a one-sided Read or
// ScanAndRead, a MSG exchange, or an RPC by method. Its spans are copied:
// the op's storage they were read into is reused.
type legRecord struct {
	what      string
	ns, bytes uint64
	spans     []fabric.Span
}

type legRecorder struct{ legs []legRecord }

func (r *legRecorder) note(what string, tr fabric.OpTrace) {
	r.legs = append(r.legs, legRecord{what, tr.Ns, tr.Bytes, slices.Clone(tr.Spans)})
}

// billed returns the legs an op's trace bills: all but Hellos and Touch
// flushes, which run outside it.
func (r *legRecorder) billed() (legs []legRecord) {
	for _, l := range r.legs {
		if l.what != proto.MethodHello && l.what != proto.MethodTouch {
			legs = append(legs, l)
		}
	}
	return legs
}

type recordedConn struct {
	*pony.Conn
	r *legRecorder
}

func (c recordedConn) AppendRead(dst []byte, spans []fabric.Span, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	b, tr, err := c.Conn.AppendRead(dst, spans, at, win, off, length)
	c.r.note("read", tr)
	return b, tr, err
}

func (c recordedConn) AppendScanAndRead(dst []byte, spans []fabric.Span, at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (nic.ScarResult, fabric.OpTrace, error) {
	res, tr, err := c.Conn.AppendScanAndRead(dst, spans, at, idxWin, bucketOff, bucketLen, hash, ways)
	c.r.note("scar", tr)
	return res, tr, err
}

type recordedCaller struct {
	*rpc.Client
	r *legRecorder
}

func (c recordedCaller) Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	return c.AppendCall(ctx, nil, nil, addr, method, req)
}

func (c recordedCaller) AppendCall(ctx context.Context, dst []byte, spans []fabric.Span, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	resp, tr, err := c.Client.AppendCall(ctx, dst, spans, addr, method, req)
	c.r.note(method, tr)
	return resp, tr, err
}

// newRecordedClient is a traced client of a mode's rig on a manual clock
// whose every leg — NIC, MSG and RPC — is recorded.
func newRecordedClient(t *testing.T, mode config.Mode, opt Options) (*rig, *Client, *legRecorder, *fabric.ManualClock) {
	t.Helper()
	clk := &fabric.ManualClock{}
	clk.Advance(1)
	r := newRigMode(t, fabric.Params{Clock: clk}, mode)
	rec := &legRecorder{}
	local := pony.New(r.f.Host(clientHost), nil, pony.CostModel{}, pony.EngineConfig{}, r.acct)
	dial := func(host int) nic.RMA { return recordedConn{pony.Dial(r.f, local, r.nics[host]), rec} }
	msg := func(host int, at uint64, req []byte) ([]byte, fabric.OpTrace, error) {
		resp, tr, err := pony.Dial(r.f, local, r.nics[host]).Message(at, req)
		rec.note("msg", tr)
		return resp, tr, err
	}
	opt.HostID, opt.Tracer = clientHost, trace.NewTracer()
	cl := New(opt, r.store, recordedCaller{r.net.Client(clientHost, "test"), rec}, r.clock, dial, msg, r.f.NowNs, r.acct)
	return r, cl, rec, clk
}

// placedAt returns where on tr's timeline leg's spans were placed: the
// offset at which all of them appear in order in tr.Spans[from:], and the
// index past them; or false.
func placedAt(tr fabric.OpTrace, leg legRecord, from int) (uint64, int, bool) {
	for i := from; len(leg.spans) > 0 && i+len(leg.spans) <= len(tr.Spans); i++ {
		s0 := tr.Spans[i]
		if s0.Code != leg.spans[0].Code || s0.Start < leg.spans[0].Start {
			continue
		}
		off, ok := s0.Start-leg.spans[0].Start, true
		for j, s := range leg.spans {
			s.Start += off
			ok = ok && tr.Spans[i+j] == s
		}
		if ok {
			return off, i + len(leg.spans), true
		}
	}
	return 0, from, false
}

// unplaced is the origin of a wasted read: billed, never awaited, so its
// spans are left off the op's timeline.
const unplaced = math.MaxUint64

// TestLegKindsBill: every leg a client op sends is billed from one table —
// its kind's client CPU (two-sided lookups once per fetch, mutation and
// Touch legs none), its bytes once, its spans placed where
// it started on the op's timeline (a fan-out's round origin, a dependent
// leg's instant, the op's start for a remembered data read), or, for a
// wasted read, nowhere. Exact, on a manual clock. The speculative data leg
// is held by TestSpeculativeDataRead and TestSlowDataReadBillsOneLeg.
func TestLegKindsBill(t *testing.T) {
	ctx := context.Background()
	key, val := []byte("leg-kinds"), bytes.Repeat([]byte("k"), 700)
	for _, tc := range []struct {
		name    string
		strat   Strategy
		mode    config.Mode
		opt     Options
		setup   func(t *testing.T, r *rig, cl *Client) // after the key is written and read once
		op      func(t *testing.T, cl *Client) fabric.OpTrace
		cpu     uint64
		legs    []string                                           // the billed legs, in issue order
		origins func(legs []legRecord, tr fabric.OpTrace) []uint64 // where each was placed
		touches int                                                // Touch RPCs flushed after the op
	}{
		{
			name: "index+data", strat: Strategy2xR, mode: config.R1,
			op: tracedHit, cpu: cpu2xR,
			legs:    []string{"read", "read"},
			origins: func(l []legRecord, _ fabric.OpTrace) []uint64 { return []uint64{0, l[0].ns} },
		},
		{
			name: "scar", strat: StrategySCAR, mode: config.R32,
			op: tracedHit, cpu: 3 * cpuSCAR,
			legs:    []string{"scar", "scar", "scar"},
			origins: func([]legRecord, fabric.OpTrace) []uint64 { return []uint64{0, 0, 0} },
		},
		{
			// One replica holds a version nobody acked: a read quorum that
			// sees it disagrees and asks the third replica after it.
			name: "msg/escalated", strat: StrategyMSG, mode: config.R32,
			setup: func(t *testing.T, r *rig, cl *Client) {
				h := cl.opt.Hash(key)
				rt := readRoute(cl.Config(), h)
				first := rt.shards[(h.Lo>>32)%uint64(rt.n)] // asked in the first round
				newer := truetime.Version{Micros: math.MaxInt64 / 2, ClientID: 99, Seq: 1}
				if ok, _, _ := r.backends[first].ApplySet(key, []byte("unacked"), newer); !ok {
					t.Fatal("replica refused the newer version")
				}
			},
			op: tracedHit, cpu: cpuMSG,
			legs: []string{"msg", "msg", "msg"},
			origins: func(l []legRecord, _ fabric.OpTrace) []uint64 {
				return []uint64{0, 0, max(l[0].ns, l[1].ns)}
			},
		},
		{
			// Every NIC is down: two one-sided attempts fail, and the final
			// attempt runs over RPC. The first attempt's remembered data read
			// fails with its index legs and is wasted; the second holds no
			// pointer.
			name: "rpc/final-attempt", strat: Strategy2xR, mode: config.R32, opt: Options{Retries: 1},
			setup: func(_ *testing.T, r *rig, _ *Client) {
				for _, n := range r.nics {
					n.SetDown(true)
				}
			},
			op: tracedHit, cpu: 2*3*cpu2xR/2 + cpu2xR/2 + cpuRPC,
			legs: []string{"read", "read", "read", "read", "read", "read", "read", proto.MethodGet, proto.MethodGet},
			origins: func(l []legRecord, tr fabric.OpTrace) []uint64 {
				b, _ := spanOf(tr, trace.SpanBackoff)
				second, final := b.Start+b.Dur, tr.Ns-max(l[7].ns, l[8].ns)
				return []uint64{0, 0, 0, unplaced, second, second, second, final, final}
			},
		},
		{
			// The third leg's bucket carries another config's stamp: the leg
			// came back, failed validation, and is billed beside the quorum's.
			// The client holds the key's pointer from its last GET, so the
			// data read starts with the index reads.
			name: "index/stale-stamp", strat: Strategy2xR, mode: config.R32,
			setup: func(t *testing.T, r *rig, cl *Client) {
				h := cl.opt.Hash(key)
				restampBucket(t, r, cl, h, readRoute(cl.Config(), h).shards[2])
			},
			op: tracedHit, cpu: 4 * cpu2xR / 2,
			legs:    []string{"read", "read", "read", "read"},
			origins: func([]legRecord, fabric.OpTrace) []uint64 { return []uint64{0, 0, 0, 0} },
		},
		{
			// The same after the client's own ERASE, which drops its
			// pointer, and another client's SET: the data read starts at
			// the first answer.
			name: "index/stale-stamp/cold", strat: Strategy2xR, mode: config.R32,
			setup: func(t *testing.T, r *rig, cl *Client) {
				coldKey(t, r, cl, key, val)
				h := cl.opt.Hash(key)
				restampBucket(t, r, cl, h, readRoute(cl.Config(), h).shards[2])
			},
			op: tracedHit, cpu: 4 * cpu2xR / 2,
			legs: []string{"read", "read", "read", "read"},
			origins: func(l []legRecord, _ fabric.OpTrace) []uint64 {
				return []uint64{0, 0, 0, min(l[0].ns, l[1].ns)}
			},
		},
		{
			// The same after the client's own SET, whose first ack names
			// where its replica put the value: the data read starts with
			// the index reads.
			name: "index/stale-stamp/own-set", strat: Strategy2xR, mode: config.R32,
			setup: func(t *testing.T, r *rig, cl *Client) {
				h := cl.opt.Hash(key)
				rt := readRoute(cl.Config(), h)
				ownSet(t, r, cl, key, val, rt.shards[0])
				restampBucket(t, r, cl, h, rt.shards[2])
			},
			op: tracedHit, cpu: 4 * cpu2xR / 2,
			legs:    []string{"read", "read", "read", "read"},
			origins: func([]legRecord, fabric.OpTrace) []uint64 { return []uint64{0, 0, 0, 0} },
		},
		{
			name: "mutation", strat: Strategy2xR, mode: config.R32,
			op: func(t *testing.T, cl *Client) fabric.OpTrace {
				_, tr, err := cl.SetVersionedTraced(ctx, key, val)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			},
			cpu:     0,
			legs:    []string{proto.MethodSet, proto.MethodSet, proto.MethodSet},
			origins: func([]legRecord, fabric.OpTrace) []uint64 { return []uint64{0, 0, 0} },
		},
		{
			// A hit fills each cohort member's queue: the GET's flush sends
			// three Touch RPCs, which bill no client CPU and no GET bytes.
			name: "touch", strat: StrategySCAR, mode: config.R32, opt: Options{TouchBatch: 1},
			op: tracedHit, cpu: 3 * cpuSCAR,
			legs:    []string{"scar", "scar", "scar"},
			origins: func([]legRecord, fabric.OpTrace) []uint64 { return []uint64{0, 0, 0} },
			touches: 3,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Strategy = tc.strat
			r, cl, rec, clk := newRecordedClient(t, tc.mode, opt)
			if err := cl.Set(ctx, key, val); err != nil {
				t.Fatal(err)
			}
			tracedHit(t, cl)
			if tc.setup != nil {
				tc.setup(t, r, cl)
			}
			clk.Advance(1_000_000)
			rec.legs = rec.legs[:0]
			cpu := r.acct.TotalNanos("client")
			tr := tc.op(t, cl)
			if got := r.acct.TotalNanos("client") - cpu; got != tc.cpu {
				t.Errorf("client CPU %dns, want %d", got, tc.cpu)
			}
			legs := rec.billed()
			var what []string
			var legBytes uint64
			for _, l := range legs {
				what = append(what, l.what)
				legBytes += l.bytes
			}
			if !slices.Equal(what, tc.legs) {
				t.Fatalf("legs %v, want %v", what, tc.legs)
			}
			if tr.Bytes != legBytes {
				t.Errorf("trace billed %dB, want its legs' %dB", tr.Bytes, legBytes)
			}
			origins, next := tc.origins(legs, tr), 0
			for i, l := range legs {
				if origins[i] == unplaced {
					continue // its bytes are billed above; its spans may match a placed leg's
				}
				var at uint64
				var ok bool
				switch at, next, ok = placedAt(tr, l, next); {
				case !ok:
					t.Errorf("leg %d (%s) is not on the op's timeline %v", i, l.what, tr.Spans)
				case at != origins[i]:
					t.Errorf("leg %d (%s) placed at %dns, want %d", i, l.what, at, origins[i])
				}
			}
			touches := 0
			for _, l := range rec.legs {
				if l.what == proto.MethodTouch {
					touches++
				}
			}
			if touches != tc.touches {
				t.Errorf("%d Touch RPCs, want %d", touches, tc.touches)
			}
		})
	}
}

// tracedHit is one traced GET hit of TestLegKindsBill's key.
func tracedHit(t *testing.T, cl *Client) fabric.OpTrace {
	t.Helper()
	_, found, tr, err := cl.GetTraced(context.Background(), []byte("leg-kinds"))
	if err != nil || !found {
		t.Fatalf("get: found=%v err=%v", found, err)
	}
	return tr
}

// restampBucket turns a bit of the ConfigID stamp of key's bucket on the
// replica serving shard, as a backend of another config would have
// stamped it.
func restampBucket(t *testing.T, r *rig, cl *Client, h hashring.KeyHash, shard int) {
	t.Helper()
	hello := cl.hellos[cl.Config().AddrFor(shard)]
	geo := layout.Geometry{Buckets: hello.Buckets, Ways: hello.Ways}
	idx, err := r.regs[shard].Lookup(hello.IndexWindow)
	if err != nil {
		t.Fatal(err)
	}
	off := geo.BucketOffset(int(h.Lo % uint64(geo.Buckets)))
	stamp, err := idx.Region.Read(off, 8)
	if err != nil {
		t.Fatal(err)
	}
	stamp[0] ^= 1
	if err := idx.Region.Write(off, stamp); err != nil {
		t.Fatal(err)
	}
}
