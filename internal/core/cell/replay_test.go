package cell

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// replayOp is what one client op shows of the modelled system.
type replayOp struct {
	kind      trace.Kind
	outcome   string
	ns, bytes uint64
	spans     []fabric.Span
}

const (
	replayOps     = 5000
	replayKeys    = 2000
	replayThinkNs = 20_000
)

// replayRun drives one client through a seeded 50/40/5/5 GET/SET/CAS/ERASE
// mix (Zipf 1.1 over 2 000 keys, 1 KiB values) against a 3-shard R=3.2 cell
// on a manual clock, advancing the clock by each op's modelled latency plus
// a fixed think time, and returns the ops as the modelled system saw them.
// The data region holds well under the key space, so the cell evicts.
func replayRun(t *testing.T, transport Transport, strategy client.Strategy, procs int) []replayOp {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	clk := &fabric.ManualClock{}
	c := newTestCell(t, Options{
		Shards: 3, Mode: config.R32, Transport: transport,
		Fabric: fabric.Params{Clock: clk},
		Backend: backend.Options{
			Geometry:     layout.Geometry{Buckets: 256, Ways: 8},
			DataBytes:    256 << 10,
			DataMaxBytes: 256 << 10,
			SlabBytes:    64 << 10,
		},
	})
	cl := c.NewClient(client.Options{Strategy: strategy, TouchBatch: 64})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(27))
	zipf := rand.NewZipf(rng, 1.1, 1, replayKeys-1)
	val := make([]byte, 1<<10)
	vers := make(map[uint64]truetime.Version) // the last version this client set
	ops := make([]replayOp, 0, replayOps)
	for i := 0; i < replayOps; i++ {
		k := zipf.Uint64()
		key := []byte(fmt.Sprintf("replay-%04d", k))
		val[0], val[1] = byte(i), byte(i>>8)
		var op replayOp
		var tr fabric.OpTrace
		var err error
		switch p := rng.Intn(100); {
		case p < 50:
			var found bool
			_, found, tr, err = cl.GetTraced(ctx, key)
			op.kind, op.outcome = trace.KindGet, fmt.Sprint("found=", found)
		case p < 90:
			var v truetime.Version
			v, tr, err = cl.SetVersionedTraced(ctx, key, val)
			vers[k] = v
			op.kind = trace.KindSet
		case p < 95:
			var swapped bool
			swapped, tr, err = cl.CasTraced(ctx, key, val, vers[k])
			delete(vers, k)
			op.kind, op.outcome = trace.KindCas, fmt.Sprint("swapped=", swapped)
		default:
			tr, err = cl.EraseTraced(ctx, key)
			delete(vers, k)
			op.kind = trace.KindErase
		}
		op.record(tr, err)
		ops = append(ops, op)
		clk.Advance(tr.Ns + replayThinkNs)
	}
	if n := c.AggregateCounters(); n.CapacityEvictions+n.AssocEvictions == 0 {
		t.Fatal("the data region never filled: nothing was evicted")
	}
	return ops
}

// record fills op's modelled side from its trace and error.
func (op *replayOp) record(tr fabric.OpTrace, err error) {
	if err != nil {
		op.outcome += " err=" + err.Error()
	}
	op.ns, op.bytes = tr.Ns, tr.Bytes
	for _, s := range tr.Spans {
		// Stripe waits carry measured wall ns by design.
		if s.Code != trace.SpanStripeWait {
			op.spans = append(op.spans, s)
		}
	}
}

const (
	batchRuns   = 300
	batchKeys   = 12
	batchCorpus = 600
)

// batchReplayRun drives one SCAR client on Pony through 300 seeded batches
// of 12 Zipf keys (4 KiB values, a third of the corpus never written) on a
// manual clock, and returns each batch as the modelled system saw it.
func batchReplayRun(t *testing.T, procs int) []replayOp {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	clk := &fabric.ManualClock{}
	c := newTestCell(t, Options{
		Shards: 3, Mode: config.R32, Transport: TransportPony,
		Fabric: fabric.Params{Clock: clk},
		Backend: backend.Options{
			Geometry:     layout.Geometry{Buckets: 256, Ways: 8},
			DataBytes:    4 << 20,
			DataMaxBytes: 4 << 20,
			SlabBytes:    64 << 10,
		},
	})
	cl := c.NewClient(client.Options{Strategy: client.StrategySCAR, TouchBatch: 64})
	ctx := context.Background()
	val := make([]byte, 4<<10)
	for k := 0; k < batchCorpus; k++ {
		if k%3 == 0 {
			continue
		}
		if err := cl.Set(ctx, []byte(fmt.Sprintf("batch-%03d", k)), val); err != nil {
			t.Fatal(err)
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(28)), 1.1, 1, batchCorpus-1)
	ops := make([]replayOp, 0, batchRuns)
	keys := make([][]byte, batchKeys)
	for i := 0; i < batchRuns; i++ {
		for j := range keys {
			keys[j] = []byte(fmt.Sprintf("batch-%03d", zipf.Uint64()))
		}
		_, found, tr, err := cl.GetBatch(ctx, keys)
		op := replayOp{kind: trace.KindGet, outcome: fmt.Sprint("found=", found)}
		op.record(tr, err)
		ops = append(ops, op)
		clk.Advance(tr.Ns + replayThinkNs)
	}
	return ops
}

// steppingClock moves step ns on every read: each read sees a slow host's
// worth of wall time since the last.
type steppingClock struct {
	fabric.ManualClock
	step uint64
}

func (c *steppingClock) NowNs() uint64 {
	c.Advance(c.step)
	return c.ManualClock.NowNs()
}

// TestGetBatchChargesNoWallTime: a batch's keys run one after another
// while their legs are pinned to one instant, so whatever the batch sends
// at the clock's now — a fresh client's Hellos, a touch flush — must not
// land ahead of the pinned legs that follow it, or they bill the time the
// loop has run as downlink queueing. On a clock that jumps 1 ms per read,
// no batch may take a modelled millisecond: the first pays its Hellos
// mid-batch, and at TouchBatch 8 every batch fills its touch queues.
func TestGetBatchChargesNoWallTime(t *testing.T) {
	const step = 1_000_000
	c := newTestCell(t, Options{
		Shards: 3, Mode: config.R32, Transport: TransportPony,
		Fabric: fabric.Params{Clock: &steppingClock{step: step}},
	})
	ctx := context.Background()
	keys := make([][]byte, 48)
	w := c.NewClient(client.Options{})
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("wall-%02d", i))
		if err := w.Set(ctx, keys[i], make([]byte, 4<<10)); err != nil {
			t.Fatal(err)
		}
	}
	cl := c.NewClient(client.Options{Strategy: client.StrategySCAR, TouchBatch: 8})
	for i := 0; i < 4; i++ {
		_, found, tr, err := cl.GetBatch(ctx, keys)
		if err != nil || slices.Contains(found, false) {
			t.Fatalf("batch %d: found=%v err=%v", i, found, err)
		}
		if tr.Ns >= step {
			t.Fatalf("batch %d took %d modelled ns on a clock stepping %d ns per read: the loop's wall time leaked into the model", i, tr.Ns, step)
		}
	}
	if got := cl.M.Hits.Value(); got != 4*uint64(len(keys)) {
		t.Fatalf("hits = %d, want every key of every batch", got)
	}
}

// TestManualClockReplays: on a fabric.ManualClock every modelled component
// (fabric, Pony or 1RMA, rpc admission) reads one clock that moves only
// when the driver moves it, so a serial run is a function of its seed.
// Two runs, one on one P and one on two, must agree op for op — batches
// included: a batch's keys share one pinned origin and fold in key order.
func TestManualClockReplays(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, procs int) []replayOp
	}{
		{"pony-scar", func(t *testing.T, procs int) []replayOp {
			return replayRun(t, TransportPony, client.StrategySCAR, procs)
		}},
		{"1rma-2xr", func(t *testing.T, procs int) []replayOp {
			return replayRun(t, Transport1RMA, client.Strategy2xR, procs)
		}},
		{"pony-scar-batch", batchReplayRun},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.run(t, 1), tc.run(t, 2)
			for i := range a {
				x, y := a[i], b[i]
				if x.kind != y.kind || x.outcome != y.outcome || x.ns != y.ns || x.bytes != y.bytes || !slices.Equal(x.spans, y.spans) {
					t.Fatalf("op %d diverged:\n GOMAXPROCS=1: %v\n GOMAXPROCS=2: %v", i, x, y)
				}
			}
		})
	}
}
