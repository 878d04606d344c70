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
// data Read, fails every Read of a host that is down, and logs every Read.
type script struct {
	bucketLen int
	index     [3]uint64
	stale     int
	down      [3]bool
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
	index := length == c.s.bucketLen
	if c.s.down[c.host] {
		c.s.log = append(c.s.log, scriptedRead{host: c.host, at: at, index: index, err: nic.ErrUnreachable})
		return dst, fabric.OpTrace{}, nic.ErrUnreachable
	}
	b, tr, err := c.Conn.AppendRead(dst, spans, at, win, off, length)
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
// four times (the handshakes cached). Each tweak edits the client's
// options.
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

// coldKey leaves cl holding no pointer for key, which it reads back: its own
// ERASE drops the pointer, and another client's SET writes the key again.
func coldKey(t *testing.T, r *rig, cl *Client, key, val []byte) {
	t.Helper()
	if err := cl.Erase(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if err := r.newClient(Options{ID: 99}).Set(context.Background(), key, val); err != nil {
		t.Fatal(err)
	}
}

// ownSet is cl's SET of key with replica fast acking first, so cl
// remembers fast's pointer from the ack.
func ownSet(t *testing.T, r *rig, cl *Client, key, val []byte, fast int) {
	t.Helper()
	if err := fastAck(r, fast, func() error { return cl.Set(context.Background(), key, val) }); err != nil {
		t.Fatal(err)
	}
}

// fastAck runs mutate while every backend but fast browns out, so fast's
// ack is the fastest.
func fastAck(r *rig, fast int, mutate func() error) error {
	for i, b := range r.backends {
		if i != fast {
			b.SetServiceDelay(100_000)
		}
	}
	defer func() {
		for _, b := range r.backends {
			b.SetServiceDelay(0)
		}
	}()
	return mutate()
}

// TestSpeculativeDataRead: an R=3.2 2×R GET issues its data read while the
// quorum forms (§5.1). Cold — the client holds no pointer for the key, as
// after its own ERASE and another client's SET — the read starts when the
// first index answer arrives, from that replica's pointer; warm — the
// client read the key's data before, or wrote it and an ack named where —
// it starts at the op's start, with the index reads, from the pointer it
// remembers (ptrs.go). Either way the GET ends when the later of
// the quorum and that read does, and only the quorum wait that outlasts
// the read is annotated. A remembered pointer whose replica still names it
// but loses the vote costs one wasted read (its CPU and bytes) and the
// dependent read runs from a quorum member after the quorum; one the
// replica no longer names (another client overwrote the key) is wasted
// and forgotten, and the first answer's read runs as if cold; so is one
// whose replica did not answer, which is not counted stale. Need-1 modes
// keep the dependent read after their one index leg. Exact modelled ns on
// a manual clock.
func TestSpeculativeDataRead(t *testing.T) {
	key, val := []byte("spec"), bytes.Repeat([]byte("v"), 1000)
	clientCPU := func(r *rig) uint64 { return r.acct.TotalNanos("client") }
	cold := func(t *testing.T, r *rig, cl *Client) { t.Helper(); coldKey(t, r, cl, key, val) }
	// specGet runs one GET whose one data read is host 0's, started with
	// the index reads when warm and at the first answer when not, and
	// checks its instant, the op's end and quorum wait, its bytes and CPU.
	specGet := func(t *testing.T, r *rig, cl *Client, s *script, clk *fabric.ManualClock, warm bool) {
		t.Helper()
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
		start := first
		if warm {
			start = 0
		}
		if d := data[0]; d.host != 0 || d.at != index[0].at+start {
			t.Fatalf("data leg %+v, want host 0's, pinned at %d (warm=%v)", d, index[0].at+start, warm)
		}
		busy := start + data[0].ns
		if want := max(k, busy); tr.Ns != want {
			t.Errorf("GET took %dns, want max(k-th leg %d, data read %d+%d)", tr.Ns, k, start, data[0].ns)
		}
		w, waited := spanOf(tr, trace.SpanQuorumWait)
		from := max(first, busy)
		if exposed := k > from; waited != exposed || exposed && (w.Start != from || w.Start+w.Dur != k) {
			t.Errorf("quorum-wait %+v (present=%v), want only [%d, %d), the wait past the data read", w, waited, from, k)
		}
		if d, ok := spanOf(tr, trace.SpanDataRead); !ok || d.Start != start || d.Dur != data[0].ns {
			t.Errorf("data-read span %+v, want [%d, +%d)", d, start, data[0].ns)
		}
		if want := index[0].bytes + index[1].bytes + index[2].bytes + data[0].bytes; tr.Bytes != want {
			t.Errorf("GET billed %dB, want its four legs' %dB", tr.Bytes, want)
		}
		if got := clientCPU(r) - cpu; got != 4*cpu2xR/2 {
			t.Errorf("client CPU %dns, want four legs at %d", got, cpu2xR/2)
		}
	}

	t.Run("quiet", func(t *testing.T) {
		for _, tc := range []struct {
			name  string
			index [3]uint64
		}{
			{"data-ends-last", [3]uint64{0, 1000, 2000}},
			{"quorum-ends-last", [3]uint64{0, 50_000, 90_000}},
			{"warm-data-ends-first", [3]uint64{10_000, 20_000, 30_000}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				r, cl, s, clk := newScriptedClient(t, config.R32, key, val)
				s.index = tc.index
				cold(t, r, cl)
				specGet(t, r, cl, s, clk, false)
				specGet(t, r, cl, s, clk, true)
				ownSet(t, r, cl, key, val, 0) // host 0's pointer, from its ack
				specGet(t, r, cl, s, clk, true)
			})
		}
	})

	t.Run("lost-vote", func(t *testing.T) {
		r, cl, s, clk := newScriptedClient(t, config.R32, key, val)
		s.index = [3]uint64{0, 2000, 3000}
		cold(t, r, cl)
		specGet(t, r, cl, s, clk, false) // remembers host 0's pointer
		newer := truetime.Version{Micros: math.MaxInt64 / 2, ClientID: 99, Seq: 1}
		for _, b := range r.backends[1:] {
			if ok, _, _ := b.ApplySet(key, []byte("unacked"), newer); !ok {
				t.Fatal("a replica refused the newer version")
			}
		}
		cpu := clientCPU(r)
		got, tr := s.get(t, clk, cl, key)
		if string(got) != "unacked" {
			t.Fatalf("got %q, want the quorum's value", got[:min(len(got), 16)])
		}
		index, data := s.split()
		if len(index) != 3 || len(data) != 2 {
			t.Fatalf("legs %+v, want three index legs, the wasted read and the dependent one", s.log)
		}
		first, k := kth(index, 2)
		at := index[0].at
		if data[0].host != 0 || data[0].at != at {
			t.Errorf("remembered leg %+v, want host 0's at the op's start %d", data[0], at)
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

	t.Run("moved", func(t *testing.T) {
		r, cl, s, clk := newScriptedClient(t, config.R32, key, val)
		s.index = [3]uint64{2000, 0, 3000}
		cold(t, r, cl)
		s.get(t, clk, cl, key) // remembers host 1's pointer
		if _, data := s.split(); len(data) != 1 || data[0].host != 1 {
			t.Fatalf("legs %+v, want one data leg from host 1, the first responder", s.log)
		}
		if err := r.newClient(Options{ID: 99}).Set(context.Background(), key, val); err != nil {
			t.Fatal(err)
		}
		s.index = [3]uint64{0, 2000, 3000}
		cpu := clientCPU(r)
		_, tr := s.get(t, clk, cl, key)
		index, data := s.split()
		if len(index) != 3 || len(data) != 2 {
			t.Fatalf("legs %+v, want three index legs, the wasted read and the first answer's", s.log)
		}
		first, k := kth(index, 2)
		at := index[0].at
		if data[0].host != 1 || data[0].at != at {
			t.Errorf("remembered leg %+v, want host 1's at the op's start %d", data[0], at)
		}
		if data[1].host != 0 || data[1].at != at+first {
			t.Errorf("speculative leg %+v, want host 0's at the first answer %d", data[1], at+first)
		}
		if want := max(k, first+data[1].ns); tr.Ns != want {
			t.Errorf("GET took %dns, want max(k-th leg %d, first leg %d + data %d)", tr.Ns, k, first, data[1].ns)
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
		specGet(t, r, cl, s, clk, true) // host 0's pointer, learned
	})

	t.Run("unreachable-holder", func(t *testing.T) {
		r, cl, s, clk := newScriptedClient(t, config.R32, key, val)
		s.index = [3]uint64{0, 2000, 3000}
		cold(t, r, cl)
		specGet(t, r, cl, s, clk, false) // remembers host 0's pointer
		s.down[0] = true
		stale := cl.M.StalePointers.Value()
		s.get(t, clk, cl, key)
		index, data := s.split()
		if len(index) != 3 || len(data) != 2 {
			t.Fatalf("legs %+v, want three index legs, the wasted read and the first answer's", s.log)
		}
		at := index[0].at
		if d := data[0]; d.host != 0 || d.at != at || d.err == nil {
			t.Errorf("remembered leg %+v, want host 0's failed read at the op's start %d", d, at)
		}
		if d := data[1]; d.host != 1 || d.at != at+index[1].ns {
			t.Errorf("speculative leg %+v, want host 1's at the first answer %d", d, at+index[1].ns)
		}
		if n := cl.M.StalePointers.Value() - stale; n != 0 {
			t.Errorf("%d stale pointers counted, want none: host 0 never answered", n)
		}
		// The slot was dropped, and learned again from the read that served.
		if shard, _, ok := cl.ptrs.get(cl.opt.Hash(key), cl.Config().ID); !ok || shard != 1 {
			t.Errorf("the client remembers shard %d's pointer (held=%v), want shard 1's", shard, ok)
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

// TestSlowDataReadBillsOneLeg: a data read a millisecond slow is still
// the one data read, cold (from the first answer) and warm (from the op's
// start, after a read and after the client's own SET). The GET bills the
// three index legs and that leg — their bytes and four legs' client CPU —
// and ends when the slow read does. R=3.2's quorum, not a backup read, is
// the defence against a slow replica.
func TestSlowDataReadBillsOneLeg(t *testing.T) {
	const delay = 1_000_000
	key, val := []byte("slow-data"), bytes.Repeat([]byte("s"), 2000)
	r, cl, s, clk := newScriptedClient(t, config.R32, key, val)
	s.data = []uint64{delay}
	coldKey(t, r, cl, key, val)
	for i, warm := range []bool{false, true, true} {
		if i == 2 {
			ownSet(t, r, cl, key, val, 0) // warm from the ack
		}
		cpu := r.acct.TotalNanos("client")
		got, tr := s.get(t, clk, cl, key)
		if !bytes.Equal(got, val) {
			t.Fatalf("got %d bytes, want the stored %d", len(got), len(val))
		}
		index, data := s.split()
		if len(index) != 3 || len(data) != 1 {
			t.Fatalf("legs %+v, want three index legs and one data leg", s.log)
		}
		start, _ := kth(index, 2)
		if warm {
			start = 0
		}
		if d := data[0]; d.ns < delay || d.at != index[0].at+start || tr.Ns != start+d.ns {
			t.Errorf("warm=%v: GET took %dns, want the data read from %d + its %d (≥ %d)", warm, tr.Ns, start, d.ns, delay)
		}
		if want := index[0].bytes + index[1].bytes + index[2].bytes + data[0].bytes; tr.Bytes != want {
			t.Errorf("warm=%v: GET billed %dB, want its four legs' %dB", warm, tr.Bytes, want)
		}
		if got := r.acct.TotalNanos("client") - cpu; got != 4*cpu2xR/2 {
			t.Errorf("warm=%v: client CPU %dns, want four legs at %d", warm, got, cpu2xR/2)
		}
	}
}

// TestPromotionDecidedOncePerAttempt: the client's GETs on another goroutine
// can promote a key while its GET's speculative data read is out. A
// promotion that lands mid-GET changes nothing about the attempt: the data
// stage keeps the speculative read, every leg's bytes are billed, and the
// quorum wait shows only what outlasts the read that served.
func TestPromotionDecidedOncePerAttempt(t *testing.T) {
	key, val := []byte("promoted-mid-get"), bytes.Repeat([]byte("p"), 1000)
	_, cl, s, clk := newScriptedClient(t, config.R32, key, val, func(o *Options) { o.NearCacheEntries = 16 })
	s.index = [3]uint64{0, 50_000, 90_000}
	s.onData = func() { promote(cl, key) }
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
