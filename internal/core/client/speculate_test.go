package client

import (
	"bytes"
	"context"
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
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// script drives a client's one-sided connections for a test: it adds
// index[host] to every bucket Read a host serves (and restamps host
// stale's bucket with another config), hands data[i] (and flip[i]: one
// bit of the entry turned) to the i-th data Read, runs onData during every
// data Read, and logs every Read.
type script struct {
	bucketLen int
	index     [3]uint64
	stale     int
	data      []uint64
	flip      []bool
	onData    func()
	reads     int
	log       []scriptedRead
}

type scriptedRead struct {
	host      int
	at        uint64 // the leg's pin
	index     bool   // a bucket Read, not a data Read
	ns, bytes uint64
	err       error
}

type scriptedConn struct {
	*pony.Conn
	host int
	s    *script
}

func (c scriptedConn) AppendRead(dst []byte, spans []fabric.Span, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	b, tr, err := c.Conn.AppendRead(dst, spans, at, win, off, length)
	index := length == c.s.bucketLen
	if err == nil && index {
		tr.Ns += c.s.index[c.host]
		if c.host == c.s.stale {
			b[len(b)-length] ^= 1 // the bucket's ConfigID
		}
	} else if err == nil {
		if c.s.onData != nil {
			c.s.onData()
		}
		if i := c.s.reads; i < len(c.s.data) {
			tr.Ns += c.s.data[i]
			if i < len(c.s.flip) && c.s.flip[i] {
				b[len(b)-1] ^= 1
			}
		}
		c.s.reads++
	}
	c.s.log = append(c.s.log, scriptedRead{c.host, at, index, tr.Ns, tr.Bytes, err})
	return b, tr, err
}

// get is one traced GET on a manual clock that has moved past the
// previous one, with the script's log and counters fresh for it.
func (s *script) get(t *testing.T, clk *fabric.ManualClock, cl *Client, key []byte) ([]byte, fabric.OpTrace) {
	t.Helper()
	clk.Advance(1_000_000)
	s.log, s.reads = s.log[:0], 0
	val, found, tr, err := cl.GetTraced(context.Background(), key)
	if err != nil || !found {
		t.Fatalf("get %s: found=%v err=%v", key, found, err)
	}
	return val, tr
}

// split returns the logged index legs and data legs in issue order.
func (s *script) split() (index, data []scriptedRead) {
	for _, r := range s.log {
		if r.index {
			index = append(index, r)
		} else {
			data = append(data, r)
		}
	}
	return index, data
}

// newScriptedClient is a 2×R client of a mode's rig on a manual clock,
// its connections run by the returned script, with key written and read
// once (the handshakes cached, the hedge threshold calibrated). Each tweak
// edits the client's options.
func newScriptedClient(t *testing.T, mode config.Mode, key, val []byte, tweaks ...func(*Options)) (*rig, *Client, *script, *fabric.ManualClock) {
	t.Helper()
	clk := &fabric.ManualClock{}
	clk.Advance(1)
	r := newRigMode(t, fabric.Params{Clock: clk}, mode)
	s := &script{bucketLen: layout.Geometry{Buckets: 32, Ways: 8}.BucketSize(), stale: -1}
	local := pony.New(r.f.Host(clientHost), nil, pony.CostModel{}, pony.EngineConfig{}, r.acct)
	dial := func(host int) nic.RMA { return scriptedConn{pony.Dial(r.f, local, r.nics[host]), host, s} }
	opt := Options{Strategy: Strategy2xR, HostID: clientHost}
	for _, tw := range tweaks {
		tw(&opt)
	}
	cl := New(opt, r.store, r.net.Client(clientHost, "test"), r.clock, dial, nil, r.f.NowNs, r.acct)
	if err := cl.Set(context.Background(), key, val); err != nil {
		t.Fatal(err)
	}
	for range 4 {
		s.get(t, clk, cl, key)
	}
	return r, cl, s, clk
}

// kth returns the need-th fastest of the index legs' ns.
func kth(index []scriptedRead, need int) (first, k uint64) {
	ns := make([]uint64, len(index))
	for i, r := range index {
		ns[i] = r.ns
	}
	slices.Sort(ns)
	return ns[0], ns[need-1]
}

// TestSpeculativeDataRead: an R=3.2 2×R GET issues its data read when the
// first index answer arrives, from that replica's pointer (§5.1), and ends
// when the later of the quorum and that read does. A first responder the
// vote goes against costs a wasted read (its CPU and bytes) and the
// dependent read runs from a quorum member after the quorum; a demoted
// first responder is not read from; need-1 modes keep the dependent read
// after their one index leg. Exact modelled ns on a manual clock.
func TestSpeculativeDataRead(t *testing.T) {
	key, val := []byte("spec"), bytes.Repeat([]byte("v"), 1000)
	clientCPU := func(r *rig) uint64 { return r.acct.TotalNanos("client") }

	t.Run("quiet", func(t *testing.T) {
		for _, tc := range []struct {
			name  string
			index [3]uint64
		}{
			{"data-ends-last", [3]uint64{0, 1000, 2000}},
			{"quorum-ends-last", [3]uint64{0, 50_000, 90_000}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				r, cl, s, clk := newScriptedClient(t, config.R32, key, val)
				s.index = tc.index
				cpu := clientCPU(r)
				got, tr := s.get(t, clk, cl, key)
				if !bytes.Equal(got, val) {
					t.Fatalf("got %d bytes, want the stored %d", len(got), len(val))
				}
				index, data := s.split()
				if len(index) != 3 || len(data) != 1 {
					t.Fatalf("legs %+v, want three index legs and one data leg", s.log)
				}
				first, k := kth(index, 2)
				at := index[0].at
				if d := data[0]; d.host != 0 || d.at != at+first {
					t.Fatalf("data leg %+v, want host 0's, pinned at the first answer %d", d, at+first)
				}
				if want := max(k, first+data[0].ns); tr.Ns != want {
					t.Errorf("GET took %dns, want max(k-th leg %d, first leg %d + data %d)", tr.Ns, k, first, data[0].ns)
				}
				w, waited := spanOf(tr, trace.SpanQuorumWait)
				if exposed := k > first+data[0].ns; waited != exposed || exposed && (w.Start != first+data[0].ns || w.Start+w.Dur != k) {
					t.Errorf("quorum-wait %+v (present=%v), want only the wait past the data read", w, waited)
				}
				if d, ok := spanOf(tr, trace.SpanDataRead); !ok || d.Start != first || d.Dur != data[0].ns {
					t.Errorf("data-read span %+v, want [%d, +%d)", d, first, data[0].ns)
				}
				if want := index[0].bytes + index[1].bytes + index[2].bytes + data[0].bytes; tr.Bytes != want {
					t.Errorf("GET billed %dB, want its four legs' %dB", tr.Bytes, want)
				}
				if got := clientCPU(r) - cpu; got != 4*cpu2xR/2 {
					t.Errorf("client CPU %dns, want four legs at %d", got, cpu2xR/2)
				}
			})
		}
	})

	t.Run("lost-vote", func(t *testing.T) {
		r, cl, s, clk := newScriptedClient(t, config.R32, key, val)
		newer := truetime.Version{Micros: math.MaxInt64 / 2, ClientID: 99, Seq: 1}
		if ok, _, _ := r.backends[0].ApplySet(key, []byte("unacked"), newer); !ok {
			t.Fatal("replica 0 refused the newer version")
		}
		s.index = [3]uint64{0, 2000, 3000}
		cpu := clientCPU(r)
		got, tr := s.get(t, clk, cl, key)
		if !bytes.Equal(got, val) {
			t.Fatalf("got %q, want the quorum's value", got[:min(len(got), 16)])
		}
		index, data := s.split()
		if len(index) != 3 || len(data) != 2 {
			t.Fatalf("legs %+v, want three index legs, the wasted read and the dependent one", s.log)
		}
		first, k := kth(index, 2)
		at := index[0].at
		if data[0].host != 0 || data[0].at != at+first {
			t.Errorf("speculative leg %+v, want host 0's at %d", data[0], at+first)
		}
		if data[1].host != 1 || data[1].at != at+k {
			t.Errorf("dependent leg %+v, want host 1's after the quorum at %d", data[1], at+k)
		}
		if want := k + data[1].ns; tr.Ns != want {
			t.Errorf("GET took %dns, want k-th leg %d + data %d", tr.Ns, k, data[1].ns)
		}
		if w, ok := spanOf(tr, trace.SpanQuorumWait); !ok || w.Start != first || w.Dur != k-first {
			t.Errorf("quorum-wait %+v, want the whole wait [%d, %d)", w, first, k)
		}
		var legBytes uint64
		for _, l := range s.log {
			legBytes += l.bytes
		}
		if tr.Bytes != legBytes {
			t.Errorf("GET billed %dB, want all five legs' %dB", tr.Bytes, legBytes)
		}
		if got := clientCPU(r) - cpu; got != 5*cpu2xR/2 {
			t.Errorf("client CPU %dns, want five legs at %d", got, cpu2xR/2)
		}
	})

	t.Run("demoted-first-responder", func(t *testing.T) {
		_, cl, s, clk := newScriptedClient(t, config.R32, key, val)
		s.index = [3]uint64{0, 2000, 3000}
		for range 4 {
			cl.noteReplicaFailure("b0")
		}
		s.get(t, clk, cl, key)
		index, data := s.split()
		if len(data) != 1 {
			t.Fatalf("legs %+v, want one data leg", s.log)
		}
		_, k := kth(index, 2)
		if d := data[0]; d.host == 0 || d.at != index[0].at+k {
			t.Errorf("data leg %+v, want a healthy member's after the quorum at %d", d, index[0].at+k)
		}
	})

	for _, mode := range []config.Mode{config.R1, config.R2Immutable} {
		t.Run(fmt.Sprintf("need1/%v", mode), func(t *testing.T) {
			r, cl, s, clk := newScriptedClient(t, mode, key, val)
			cpu := clientCPU(r)
			_, tr := s.get(t, clk, cl, key)
			index, data := s.split()
			if len(index) != 1 || len(data) != 1 {
				t.Fatalf("legs %+v, want one index leg and its data leg", s.log)
			}
			if data[0].at != index[0].at+index[0].ns || tr.Ns != index[0].ns+data[0].ns {
				t.Errorf("GET took %dns, data leg at %d: want the index leg %d then the data leg %d", tr.Ns, data[0].at-index[0].at, index[0].ns, data[0].ns)
			}
			if got := clientCPU(r) - cpu; got != cpu2xR {
				t.Errorf("client CPU %dns, want %d", got, cpu2xR)
			}
		})
	}
}

// TestHedgeBillsBothLegs: a hedged data read moved two legs' bytes over
// the fabric whichever of them serves — the hedge, the primary after a
// slower hedge, or the primary after a hedge that failed validation — and
// the hedge launches hedgeAfter past the primary's start, the first index
// answer. The hedge bills client CPU like any data leg.
func TestHedgeBillsBothLegs(t *testing.T) {
	key, val := []byte("hedged"), bytes.Repeat([]byte("h"), 2000)
	for _, tc := range []struct {
		name     string
		data     []uint64
		flip     []bool
		hedgeWin bool
	}{
		{"hedge-wins", []uint64{1_000_000, 0}, nil, true},
		{"hedge-slower", []uint64{1_000_000, 2_000_000}, nil, false},
		{"hedge-damaged", []uint64{1_000_000, 0}, []bool{false, true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, cl, s, clk := newScriptedClient(t, config.R32, key, val)
			s.data, s.flip = tc.data, tc.flip
			wins, cpu := cl.M.HedgeWins.Value(), r.acct.TotalNanos("client")
			got, tr := s.get(t, clk, cl, key)
			if !bytes.Equal(got, val) {
				t.Fatalf("got %d bytes, want the stored %d", len(got), len(val))
			}
			if won := cl.M.HedgeWins.Value() > wins; won != tc.hedgeWin {
				t.Fatalf("hedge won=%v, want %v", won, tc.hedgeWin)
			}
			index, data := s.split()
			if len(data) != 2 {
				t.Fatalf("legs %+v, want the primary and the hedge", s.log)
			}
			first, _ := kth(index, 2)
			if want := index[0].at + first + cl.hedgeAfterNs(); data[1].at != want {
				t.Errorf("hedge pinned at %d, want the primary's start + hedgeAfter = %d", data[1].at, want)
			}
			var legBytes uint64
			for _, l := range s.log {
				legBytes += l.bytes
			}
			if tr.Bytes != legBytes {
				t.Errorf("GET billed %dB, want every leg's %dB (primary %dB, hedge %dB)", tr.Bytes, legBytes, data[0].bytes, data[1].bytes)
			}
			if got := r.acct.TotalNanos("client") - cpu; got != 5*cpu2xR/2 {
				t.Errorf("client CPU %dns, want the index legs, the primary and the hedge at %d each", got, cpu2xR/2)
			}
		})
	}
}

// TestPromotionDecidedOncePerAttempt: a mutation ack on another goroutine
// can promote a key while its GET's speculative data read is out. The
// attempt decided on the key's promotion once, before it speculated, so
// the data stage keeps the speculative read instead of spreading to
// another member: every leg's bytes are billed, and the quorum wait shows
// only what outlasts the read that served.
func TestPromotionDecidedOncePerAttempt(t *testing.T) {
	key, val := []byte("promoted-mid-get"), bytes.Repeat([]byte("p"), 1000)
	// Seed 2's first draw spreads a promoted key's data read off the
	// fastest member, so a data stage that re-read the promotion would.
	_, cl, s, clk := newScriptedClient(t, config.R32, key, val, func(o *Options) { o.NearCacheEntries, o.Seed = 16, 2 })
	s.index = [3]uint64{0, 50_000, 90_000}
	s.onData = func() { cl.ingestPromo("b0", proto.TouchResp{HotEpoch: 1, HotKeys: [][]byte{key}}.Marshal()) }
	got, tr := s.get(t, clk, cl, key)
	if !bytes.Equal(got, val) {
		t.Fatalf("got %d bytes, want the stored %d", len(got), len(val))
	}
	if !cl.isPromoted(key) {
		t.Fatal("the data read did not promote the key")
	}
	var legBytes uint64
	for _, l := range s.log {
		legBytes += l.bytes
	}
	if tr.Bytes != legBytes {
		t.Errorf("GET billed %dB, want every leg's %dB", tr.Bytes, legBytes)
	}
	// The wait is hidden only behind a data read that ran during it.
	index, data := s.split()
	first, k := kth(index, 2)
	d, _ := spanOf(tr, trace.SpanDataRead)
	from := first
	if d.Start < k {
		from = d.Start + d.Dur
	}
	if w, ok := spanOf(tr, trace.SpanQuorumWait); !ok || w.Start != from || w.Start+w.Dur != k {
		t.Errorf("quorum-wait %+v (present=%v), want [%d, %d) beside the data read %+v", w, ok, from, k, d)
	}
	if len(index) != 3 || len(data) != 1 {
		t.Errorf("legs %+v, want three index legs and the speculative read", s.log)
	}
}
