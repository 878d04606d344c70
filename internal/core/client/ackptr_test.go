package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// setsRefused is an rpc.Caller whose SETs to the addresses in refuse fail
// before they leave the client; every other call goes through.
type setsRefused struct {
	rpc.Caller
	refuse map[string]bool
}

func (c setsRefused) Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	if method == proto.MethodSet && c.refuse[addr] {
		return nil, fabric.OpTrace{}, fmt.Errorf("%w: %s refused", rpc.ErrUnavailable, addr)
	}
	return c.Caller.Call(ctx, addr, method, req)
}

// TestOwnWriteWarmsRead: a SET, or a CAS that swapped, leaves the client
// the pointer its fastest acking replica put the value at
// (MutateResp.Ptr), so the next R=3.2 2×R GET of the key — on Pony, or a
// SCAR client's of a 1RMA cohort, built as 2×R — keeps a data read
// started at the op's start, at that replica. Every other mutation leaves
// the key cold, though the client held its pointer before: an ERASE, a
// CAS that did not swap, a SET the replicas keep in their side shards
// (§4.2), a SET mid-resize and a fan-out that failed. On a manual clock,
// with the replica meant to ack first the only one without a brownout
// (fastAck).
func TestOwnWriteWarmsRead(t *testing.T) {
	ctx := context.Background()
	key, val := []byte("own-write"), bytes.Repeat([]byte("w"), 900)
	oneBucket := func(key []byte) hashring.KeyHash {
		h := hashring.DefaultHash(key)
		return hashring.KeyHash{Hi: h.Hi, Lo: h.Lo << 16}
	}
	pony := func(r *rig, opt Options) *Client { return r.newClient(opt) }
	oneRMA := func(r *rig, opt Options) *Client { opt.Strategy = StrategySCAR; return r.newClient1RMA(opt) }
	// refused is a 2×R client whose SETs reach only the fastest replica:
	// every attempt applies there and misses the quorum.
	refused := func(r *rig, opt Options) *Client {
		fast := readRoute(r.store.Get(), hashring.DefaultHash(key)).addrs[2]
		refuse := map[string]bool{}
		for _, addr := range r.store.Get().ShardAddrs {
			refuse[addr] = addr != fast
		}
		return r.newClientVia(opt, r.f.NowNs, setsRefused{r.net.Client(clientHost, "test"), refuse})
	}
	for _, tc := range []struct {
		name   string
		dial   func(*rig, Options) *Client
		hash   func([]byte) hashring.KeyHash // the cell's and the clients' key hash; nil is the default
		prep   func(t *testing.T, r *rig, other *Client, fast int)
		mutate func(cl *Client, stored truetime.Version) error // the client's own mutation of key
		warm   bool
	}{
		{name: "set/2xR", dial: pony, warm: true,
			mutate: func(cl *Client, _ truetime.Version) error { return cl.Set(ctx, key, val[:700]) }},
		{name: "set/SCAR-on-1RMA", dial: oneRMA, warm: true,
			mutate: func(cl *Client, _ truetime.Version) error { return cl.Set(ctx, key, val[:700]) }},
		{name: "cas-swapped/2xR", dial: pony, warm: true, mutate: casWant(ctx, key, val[:800], true)},
		{name: "cas-swapped/SCAR-on-1RMA", dial: oneRMA, warm: true, mutate: casWant(ctx, key, val[:800], true)},
		{name: "erase", dial: pony,
			mutate: func(cl *Client, _ truetime.Version) error { return cl.Erase(ctx, key) }},
		{
			// The replicas but the fastest hold a version nobody acked, so
			// the CAS swaps there alone and the quorum does not swap.
			name: "cas-not-swapped", dial: pony,
			prep: func(t *testing.T, r *rig, _ *Client, fast int) {
				newer := truetime.Version{Micros: math.MaxInt64 / 2, ClientID: 98, Seq: 1}
				for i, b := range r.backends {
					if i == fast {
						continue
					}
					if ok, _, _ := b.ApplySet(key, []byte("unacked"), newer); !ok {
						t.Fatal("a replica refused the newer version")
					}
				}
			},
			mutate: casWant(ctx, key, val[:800], false)},
		{
			// Another client erased the key and filled its bucket, so the
			// client's SET goes to every replica's side shard.
			name: "set-overflowed", dial: pony, hash: oneBucket,
			prep: func(t *testing.T, r *rig, other *Client, _ int) {
				if err := other.Erase(ctx, key); err != nil {
					t.Fatal(err)
				}
				for i := range 8 { // the bucket's ways
					if err := other.Set(ctx, fmt.Appendf(nil, "filler-%d", i), []byte("f")); err != nil {
						t.Fatal(err)
					}
				}
			},
			mutate: func(cl *Client, _ truetime.Version) error { return cl.Set(ctx, key, val[:700]) }},
		{
			// The cell starts a transition to a pending epoch of the same
			// three shards: the SET fans out to the union and every replica
			// applies it.
			name: "set-mid-resize", dial: pony,
			prep: func(t *testing.T, r *rig, _ *Client, _ int) {
				next := r.store.Update(func(c *config.CellConfig) {
					c.Pending = &config.PendingEpoch{Shards: 3, ShardAddrs: c.ShardAddrs, SealedOld: make([]bool, 3)}
				})
				for _, b := range r.backends {
					b.SetConfigID(next.ID)
				}
			},
			mutate: func(cl *Client, _ truetime.Version) error { return cl.Set(ctx, key, val[:700]) }},
		{name: "failed-fanout", dial: refused,
			mutate: func(cl *Client, _ truetime.Version) error {
				if err := cl.Set(ctx, key, val[:700]); !errors.Is(err, rpc.ErrUnavailable) {
					return fmt.Errorf("SET to one replica of three: err=%v, want unavailable", err)
				}
				return nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fabric.ManualClock{}
			clk.Advance(1)
			var tweaks []func(*backend.Options)
			if tc.hash != nil {
				tweaks = append(tweaks, func(o *backend.Options) { o.OverflowFallback, o.Hash = true, tc.hash })
			}
			r := newRigMode(t, fabric.Params{Clock: clk}, config.R32, tweaks...)
			cl := tc.dial(r, Options{Strategy: Strategy2xR, Hash: tc.hash})
			other := r.newClient(Options{ID: 99, Hash: tc.hash})
			h := cl.opt.Hash(key)
			stored, err := other.SetVersioned(ctx, key, val)
			if err != nil {
				t.Fatal(err)
			}
			if _, found, err := cl.Get(ctx, key); err != nil || !found {
				t.Fatalf("get: found=%v err=%v", found, err)
			}
			if _, _, ok := cl.ptrs.get(h, cl.Config().ID); !ok {
				t.Fatal("the read left the client no pointer")
			}
			// The cohort's last member acks first.
			fast := readRoute(r.store.Get(), h).shards[2]
			if tc.prep != nil {
				tc.prep(t, r, other, fast)
			}
			overflows := func() (n uint64) {
				for _, b := range r.backends {
					n += b.CountersSnapshot().Overflows
				}
				return n
			}
			before := overflows()
			if err := fastAck(r, fast, func() error { return tc.mutate(cl, stored) }); err != nil {
				t.Fatal(err)
			}
			if n := overflows() - before; tc.hash != nil && n != uint64(len(r.backends)) {
				t.Fatalf("%d replicas put the SET in their side shard, want all %d", n, len(r.backends))
			}

			shard, _, ok := cl.ptrs.get(h, cl.Config().ID)
			if ok != tc.warm || ok && shard != fast {
				t.Fatalf("after the mutation the client holds a pointer %v at shard %d, want %v at shard %d", ok, shard, tc.warm, fast)
			}
			clk.Advance(1_000_000)
			warm := cl.M.WarmReads.Value()
			_, found, tr, err := cl.GetTraced(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			kept := cl.M.WarmReads.Value() - warm
			idx, _ := spanOf(tr, trace.SpanIndexFetch)
			data, hasData := spanOf(tr, trace.SpanDataRead)
			switch {
			case tc.warm && (!found || kept != 1 || !hasData || data.Start != idx.Start):
				t.Errorf("GET found=%v kept %d remembered reads, data read %+v (present=%v): want one, started with the index reads at %d", found, kept, data, hasData, idx.Start)
			case !tc.warm && (kept != 0 || hasData && data.Start == idx.Start):
				t.Errorf("GET kept %d remembered reads, data read %+v: want it cold", kept, data)
			}
		})
	}
}

// casWant is a CAS of key to val expecting the stored version, which must
// swap or not as swap says.
func casWant(ctx context.Context, key, val []byte, swap bool) func(*Client, truetime.Version) error {
	return func(cl *Client, stored truetime.Version) error {
		swapped, err := cl.Cas(ctx, key, val, stored)
		if err == nil && swapped != swap {
			err = fmt.Errorf("CAS swapped=%v, want %v", swapped, swap)
		}
		return err
	}
}
