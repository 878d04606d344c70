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
		ops = append(ops, op)
		clk.Advance(tr.Ns + replayThinkNs)
	}
	if n := c.AggregateCounters(); n.CapacityEvictions+n.AssocEvictions == 0 {
		t.Fatal("the data region never filled: nothing was evicted")
	}
	return ops
}

// TestManualClockReplays: on a fabric.ManualClock every modelled component
// (fabric, Pony or 1RMA, rpc admission) reads one clock that moves only
// when the driver moves it, so a serial run is a function of its seed.
// Two runs, one on one P and one on two, must agree op for op.
func TestManualClockReplays(t *testing.T) {
	for _, tc := range []struct {
		name      string
		transport Transport
		strategy  client.Strategy
	}{
		{"pony-scar", TransportPony, client.StrategySCAR},
		{"1rma-2xr", Transport1RMA, client.Strategy2xR},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := replayRun(t, tc.transport, tc.strategy, 1)
			b := replayRun(t, tc.transport, tc.strategy, 2)
			for i := range a {
				x, y := a[i], b[i]
				if x.kind != y.kind || x.outcome != y.outcome || x.ns != y.ns || x.bytes != y.bytes || !slices.Equal(x.spans, y.spans) {
					t.Fatalf("op %d diverged:\n GOMAXPROCS=1: %v\n GOMAXPROCS=2: %v", i, x, y)
				}
			}
		})
	}
}
