package client

import (
	"errors"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// view builds one replica's answer: ver zero = the key is absent there.
func view(ver truetime.Version, ns uint64) indexView {
	return indexView{
		present: !ver.Zero(),
		entry:   layout.IndexEntry{Version: ver},
		trace:   fabric.OpTrace{Ns: ns},
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
// and for a mutation's ack wait alike.
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
