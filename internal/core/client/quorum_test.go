package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/nic"
	"cliquemap/internal/pony"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// view builds one replica's answer: ver zero = the key is absent there.
func view(ver truetime.Version, ns uint64) indexView {
	return indexView{
		present: !ver.Zero(),
		entry:   layout.IndexEntry{Version: ver},
		ns:      ns,
	}
}

func failed(err error) indexView { return indexView{err: err} }

// TestQuorumVote pins the §5.1 vote core every strategy shares.
func TestQuorumVote(t *testing.T) {
	v1 := truetime.Version{Micros: 1, ClientID: 7, Seq: 1}
	v2 := truetime.Version{Micros: 2, ClientID: 7, Seq: 2}
	v3 := truetime.Version{Micros: 3, ClientID: 7, Seq: 3}
	absent := truetime.Version{}
	down := errors.New("leg down")
	stale := layout.ErrConfigChanged

	for _, tc := range []struct {
		name    string
		views   []indexView
		need    int
		winner  truetime.Version
		wantErr error
	}{
		{"unanimous", []indexView{view(v1, 10), view(v1, 20), view(v1, 30)}, 2, v1, nil},
		{"split votes", []indexView{view(v1, 10), view(v2, 20), view(v3, 30)}, 2, absent, ErrInquorate},
		{"two quorate versions, higher wins", []indexView{view(v1, 10), view(v2, 20)}, 1, v2, nil},
		{"zero-version quorum is a clean miss", []indexView{view(absent, 10), view(absent, 20), view(v1, 30)}, 2, absent, nil},
		{"one errored leg of three still votes", []indexView{failed(down), view(v2, 20), view(v2, 30)}, 2, v2, nil},
		{"errored leg breaks the tie toward inquorate", []indexView{failed(down), view(v1, 20), view(v2, 30)}, 2, absent, ErrInquorate},
		{"fewer than quorum live surfaces the first leg error", []indexView{failed(stale), failed(down), view(v1, 30)}, 2, absent, stale},
		{"nothing consulted is unavailable", nil, 1, absent, ErrUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			winner, err := quorum(&fabric.OpTrace{}, tc.views, tc.need)
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if winner != tc.winner {
				t.Errorf("winner = %v, want %v", winner, tc.winner)
			}
		})
	}
}

// spanOf returns the first span with code, if any.
func spanOf(tr fabric.OpTrace, code uint16) (fabric.Span, bool) {
	for _, s := range tr.Spans {
		if s.Code == code {
			return s, true
		}
	}
	return fabric.Span{}, false
}

// TestFanoutCostsKthFastestLeg: a fan-out completes when k legs have
// answered, so it costs the k-th fastest — for the index phase of a read
// and for a mutation's ack wait alike. An escalated read's two rounds
// cost one after the other.
func TestFanoutCostsKthFastestLeg(t *testing.T) {
	v := truetime.Version{Micros: 1, ClientID: 1, Seq: 1}
	var tr fabric.OpTrace
	_, err := quorum(&tr, []indexView{view(v, 30), failed(errors.New("down")), view(v, 10), view(v, 20)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ns != 20 {
		t.Errorf("index phase = %dns, want the 2nd-fastest leg (20)", tr.Ns)
	}
	if s, ok := spanOf(tr, trace.SpanIndexFetch); !ok || s.Start != 0 || s.Dur != 10 || s.Arg != 3 {
		t.Errorf("index-fetch span = %+v, want fastest leg 10ns over 3 live legs", s)
	}
	if s, ok := spanOf(tr, trace.SpanQuorumWait); !ok || s.Start != 10 || s.Dur != 10 || s.Arg != 2 {
		t.Errorf("quorum-wait span = %+v, want [10,20) for k=2", s)
	}

	// An escalated fetch: the first round ends with its slowest leg, a
	// failed one included, and the late round follows it.
	down := failed(errors.New("down"))
	down.ns = 40
	late := view(v, 25)
	late.late = true
	var esc fabric.OpTrace
	if _, err := quorum(&esc, []indexView{view(v, 30), down, late}, 2); err != nil {
		t.Fatal(err)
	}
	if esc.Ns != 40+25 {
		t.Errorf("escalated index phase = %dns, want the failed leg's 40 then the late leg's 25", esc.Ns)
	}
	if s, ok := spanOf(esc, trace.SpanIndexFetch); !ok || s.Arg != 2 {
		t.Errorf("first round's index-fetch span = %+v, want both legs billed", s)
	}

	// A mutation's ack wait: same rule, no phase span, appended after
	// whatever the trace already holds.
	ack := fabric.OpTrace{Ns: 100}
	settleFanout(&ack, []uint64{50, 40, 60}, 3, 0)
	if ack.Ns != 160 {
		t.Errorf("ack wait ends at %dns, want 100+60", ack.Ns)
	}
	if _, ok := spanOf(ack, trace.SpanIndexFetch); ok {
		t.Error("mutation fan-out annotated an index-fetch span")
	}
	if s, ok := spanOf(ack, trace.SpanQuorumWait); !ok || s.Start != 140 || s.Dur != 20 {
		t.Errorf("quorum-wait span = %+v, want [140,160)", s)
	}

	// k=1, or legs that tie, wait for nobody.
	one := fabric.OpTrace{}
	settleFanout(&one, []uint64{9, 7}, 1, 0)
	if one.Ns != 7 || len(one.Spans) != 0 {
		t.Errorf("k=1 fan-out = %+v, want 7ns and no wait span", one)
	}
}

// indexRounds reads a GET's index phase off its trace: the legs each
// round billed, in order.
func indexRounds(tr fabric.OpTrace) (legs []uint32) {
	for _, s := range tr.Spans {
		if s.Code == trace.SpanIndexFetch {
			legs = append(legs, s.Arg)
		}
	}
	return legs
}

// TestTwoSidedReadEscalates: a two-sided R=3.2 GET asks two replicas, and
// the third only when the two do not agree. The escalation leg runs after
// the first round has ended, failed legs included, and the answer is the
// one a tally over the whole cohort gives.
func TestTwoSidedReadEscalates(t *testing.T) {
	ctx := context.Background()
	key := []byte("escalate")
	for _, strat := range []Strategy{StrategyMSG, StrategyRPC} {
		t.Run(strat.String()+"/disagree", func(t *testing.T) {
			escalated := 0
			for d := range 3 { // the replica holding a version nobody acked
				r := newRig(t)
				cl := r.newClient(Options{Strategy: strat})
				if err := cl.Set(ctx, key, []byte("acked")); err != nil {
					t.Fatal(err)
				}
				newer := truetime.Version{Micros: math.MaxInt64 / 2, ClientID: 99, Seq: 1}
				if ok, _, _ := r.backends[d].ApplySet(key, []byte("unacked"), newer); !ok {
					t.Fatalf("replica %d refused the newer version", d)
				}
				views := make([]indexView, len(r.backends))
				held := map[truetime.Version]string{}
				for i, b := range r.backends {
					resp, err := b.HandleMsg(proto.GetReq{Key: key}.Marshal())
					if err != nil {
						t.Fatal(err)
					}
					g, err := proto.UnmarshalGetResp(resp)
					if err != nil {
						t.Fatal(err)
					}
					views[i] = indexView{present: g.Found, entry: layout.IndexEntry{Version: g.Version}}
					held[g.Version] = string(g.Value)
				}
				ver, err := tally(views, config.R32.Quorum())
				if err != nil {
					t.Fatal(err)
				}
				val, found, tr, err := cl.GetTraced(ctx, key)
				if err != nil || !found || string(val) != held[ver] {
					t.Fatalf("newer copy on %d: got %q found=%v err=%v, the cohort's tally says %q", d, val, found, err, held[ver])
				}
				switch legs := indexRounds(tr); {
				case slices.Equal(legs, []uint32{2, 1}):
					escalated++
				case !slices.Equal(legs, []uint32{2}):
					t.Fatalf("newer copy on %d: index rounds %v, want [2] or [2 1]", d, legs)
				}
			}
			if escalated != 2 {
				t.Errorf("%d of 3 placements escalated; two of them put the newer copy in the first round", escalated)
			}
		})

		t.Run(strat.String()+"/crash", func(t *testing.T) {
			escalated := 0
			for d := range 3 { // the crashed replica
				r := newRig(t)
				cl := r.newClient(Options{Strategy: strat})
				if err := cl.Set(ctx, key, []byte("v")); err != nil {
					t.Fatal(err)
				}
				r.backends[d].Server().Stop()
				r.nics[d].SetDown(true)
				sent := r.acct.OpCount("rpc-client")
				val, found, tr, err := cl.GetTraced(ctx, key)
				if err != nil || !found || string(val) != "v" {
					t.Fatalf("replica %d down: got %q found=%v err=%v", d, val, found, err)
				}
				if n := cl.M.RetryCount(); n != 0 {
					t.Fatalf("replica %d down: %d whole-op retries, want the third replica asked in the same attempt", d, n)
				}
				legs := indexRounds(tr)
				if slices.Equal(legs, []uint32{2}) {
					continue
				}
				if !slices.Equal(legs, []uint32{2, 1}) {
					t.Fatalf("replica %d down: index rounds %v, want [2] or [2 1]", d, legs)
				}
				escalated++
				// The first round billed its failed leg beside the live one
				// and ended with the slower; the escalation leg follows it.
				var idx []fabric.Span
				for _, s := range tr.Spans {
					if s.Code == trace.SpanIndexFetch || s.Code == trace.SpanQuorumWait {
						idx = append(idx, s)
					}
				}
				end := idx[0].Dur
				if idx[1].Code == trace.SpanQuorumWait {
					end += idx[1].Dur
				}
				last := idx[len(idx)-1]
				if last.Code != trace.SpanIndexFetch || last.Start != end || tr.Ns != end+last.Dur {
					t.Errorf("replica %d down: spans %v, want the escalation leg billed from %dns to the op's end %dns", d, idx, end, tr.Ns)
				}
				if n := r.acct.OpCount("rpc-client") - sent; strat == StrategyRPC && n != 3 {
					t.Errorf("replica %d down: %d lookup RPCs, want 3", d, n)
				}
			}
			if escalated != 2 {
				t.Errorf("%d of 3 crashes escalated; two of them hit the first round", escalated)
			}
		})
	}

	t.Run("RPC/quiet-cpu", func(t *testing.T) {
		r := newRig(t)
		cl := r.newClient(Options{Strategy: StrategyRPC})
		if err := cl.Set(ctx, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		total := func() (ns uint64) {
			for _, c := range r.acct.Components() {
				ns += r.acct.TotalNanos(c)
			}
			return ns
		}
		// One lookup RPC from outside the client: framework plus handler CPU.
		before := total()
		if _, _, err := r.net.Client(clientHost, "probe").Call(ctx, "b0", proto.MethodGet, proto.GetReq{Key: key}.Marshal()); err != nil {
			t.Fatal(err)
		}
		perRPC := total() - before
		if cost := rpc.DefaultCostModel(); perRPC <= cost.ClientCPUNs+cost.ServerCPUNs {
			t.Fatalf("a lookup RPC billed %d CPU-ns, want framework %d plus handler", perRPC, cost.ClientCPUNs+cost.ServerCPUNs)
		}
		before = total()
		if _, found, err := cl.Get(ctx, key); err != nil || !found {
			t.Fatalf("get: found=%v err=%v", found, err)
		}
		if got, want := total()-before, 2*perRPC+cpuRPC; got != want {
			t.Errorf("quiet GET billed %d CPU-ns, want two lookup RPCs (2×%d) plus the client's %d", got, perRPC, cpuRPC)
		}
	})
}

// legLog is a one-sided connection that notes every Read's length,
// modelled ns and error.
type legLog struct {
	*pony.Conn
	notes *[]legNote
}

type legNote struct {
	length int
	ns     uint64
	err    error
}

func (l legLog) AppendRead(dst []byte, spans []fabric.Span, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	b, tr, err := l.Conn.AppendRead(dst, spans, at, win, off, length)
	*l.notes = append(*l.notes, legNote{length, tr.Ns, err})
	return b, tr, err
}

// TestFailoverLegIsBilled: an R=2/Immutable GET asks one replica, and the
// other only once the first has failed, so with replica 0 down a GET
// whose first leg went there costs the failed leg, then the serving one,
// then its data leg.
func TestFailoverLegIsBilled(t *testing.T) {
	r := newRigMode(t, fabric.Params{}, config.R2Immutable)
	var notes []legNote
	local := pony.New(r.f.Host(clientHost), nil, pony.CostModel{}, pony.EngineConfig{}, r.acct)
	dial := func(host int) nic.RMA { return legLog{pony.Dial(r.f, local, r.nics[host]), &notes} }
	cl := New(Options{Strategy: Strategy2xR, HostID: clientHost}, r.store, r.net.Client(clientHost, "test"), r.clock, dial, nil, r.f.NowNs, r.acct)
	ctx := context.Background()
	bucketLen := layout.Geometry{Buckets: 32, Ways: 8}.BucketSize()
	keys := make([][]byte, 24)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("imm-%d", i))
		if err := cl.Set(ctx, keys[i], keys[i]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Get(ctx, keys[i]); err != nil { // caches the handshakes
			t.Fatal(err)
		}
	}
	r.backends[0].Server().Stop()
	r.nics[0].SetDown(true)
	failovers := 0
	for _, key := range keys {
		notes = notes[:0]
		val, found, tr, err := cl.GetTraced(ctx, key)
		if err != nil || !found || string(val) != string(key) {
			t.Fatalf("%s: got %q found=%v err=%v", key, val, found, err)
		}
		if len(notes) == 0 || notes[0].err == nil {
			continue // replica 0 was not asked first
		}
		failovers++
		if len(notes) != 3 || notes[1].err != nil || notes[1].length != bucketLen {
			t.Fatalf("%s: legs %+v, want the failed index leg, the serving one, its data leg", key, notes)
		}
		if want := notes[0].ns + notes[1].ns + notes[2].ns; tr.Ns != want {
			t.Errorf("%s: GET took %dns, want the failed leg %dns, the serving leg %dns and the data leg %dns in sequence", key, tr.Ns, notes[0].ns, notes[1].ns, notes[2].ns)
		}
	}
	if failovers == 0 {
		t.Fatal("no GET asked replica 0 first")
	}
	if n := cl.M.RetryCount(); n != 0 {
		t.Errorf("%d whole-op retries: a failover is one more leg, not an attempt", n)
	}
}

// TestMutationVerdict pins mutVerdict: each epoch's quorum is counted over
// its own members, with the membership rules of the acks, and swapped comes
// from the epoch that decided the ack.
func TestMutationVerdict(t *testing.T) {
	old := func(applied bool) mutAck { return mutAck{inOld: true, applied: applied} }
	sealed := func(applied bool) mutAck { return mutAck{inOld: true, sealed: true, applied: applied} }
	pend := func(applied bool) mutAck { return mutAck{inPending: true, applied: applied} }
	both := func(applied bool) mutAck { return mutAck{inOld: true, inPending: true, applied: applied} }
	for _, tc := range []struct {
		name           string
		acks           []mutAck
		pendingDecides bool
		ok, swapped    bool
	}{
		{"old only, a quorum applied", []mutAck{old(true), old(true), old(false)}, false, true, true},
		{"old only, one applied", []mutAck{old(true), old(false), old(false)}, false, true, false},
		{"old only, below quorum", []mutAck{old(true)}, false, false, false},
		{"sealed old legs count for neither ack nor swap", []mutAck{old(true), sealed(true), sealed(true)}, false, false, false},
		{"a sealed leg's apply is not the old epoch's", []mutAck{old(true), old(false), sealed(true)}, false, true, false},
		{"pending decides once authoritative", []mutAck{sealed(false), sealed(false), pend(true), pend(true)}, true, true, true},
		{"pending does not decide before authority", []mutAck{sealed(true), sealed(true), pend(true), pend(true)}, false, false, false},
		{"authoritative pending swap is pending's", []mutAck{old(true), old(true), pend(false), pend(false)}, true, true, false},
		{"one old and one pending apply: a quorum of neither", []mutAck{old(true), old(false), pend(true), pend(false)}, true, true, false},
		{"one old and one pending apply, old deciding", []mutAck{old(true), old(false), pend(true)}, false, true, false},
		{"a leg in both epochs counts in both", []mutAck{both(true), old(true), pend(true)}, true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if ok, swapped := mutVerdict(tc.acks, 2, tc.pendingDecides); ok != tc.ok || swapped != tc.swapped {
				t.Errorf("ok=%v swapped=%v, want ok=%v swapped=%v", ok, swapped, tc.ok, tc.swapped)
			}
		})
	}
}
