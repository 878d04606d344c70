package cliquemap

import (
	"context"
	"fmt"
	"testing"

	"cliquemap/internal/core/client"
	"cliquemap/internal/drive"
	"cliquemap/internal/history"
)

// The two stress tests below are distilled regressions for the mixed-quorum
// lost-write family: a mutation acked by a leg that is about to leave the
// cohort (a demoted maintenance source, a resize survivor past its journal
// drain) counts toward quorum, yet its copy is invisible to every future
// reader. Each failure mode they guard was first caught — only under
// -race, whose scheduler stretches the handoff windows — by the
// maintenance-storm chaos soak:
//
//   - an idle spare acking mutations from stale-config clients
//     (backend.handoffRejects' shardless clause);
//   - a mutation passing the seal check, stalling past the journal drain
//     and the deferred unseal, then publishing with Sealed=false
//     (backend.handoffStranded's response-time re-check);
//   - a pending-epoch quorum acking before read authority flipped
//     (client.mutateOnce's authority gate).
//
// handoffStress runs concurrent SET workers, two per key, against a live
// cell while the control-plane churn in `churn` executes, then reads every
// key back through a fresh client and checks the whole history against a
// versioned register (internal/history). On a violation it dumps the
// violating key's residency on every backend to make the next diagnosis
// cheap.
func handoffStress(t *testing.T, opt Options, churn func(t *testing.T, c *Cell)) {
	c := newCell(t, opt)
	cc := c.Internal()
	ctx := context.Background()

	const workers = 4
	const groups = workers / 2 // worker w writes group w % groups
	const keys = 8
	key := func(g, k int) []byte { return []byte(fmt.Sprintf("hs-g%d-k%d", g, k)) }

	rec := &history.Recorder{}
	pre := history.Client{C: cc.NewClient(client.Options{Strategy: client.StrategySCAR}), R: rec, ID: workers}
	for g := 0; g < groups; g++ {
		for k := 0; k < keys; k++ {
			if _, err := pre.SetVersioned(ctx, key(g, k), []byte("s0")); err != nil {
				t.Fatal(err)
			}
		}
	}

	drive.Run(ctx, func() { churn(t, c) }, drive.Group{Workers: workers, Worker: func(w int) drive.Op {
		cl := history.Client{C: cc.NewClient(client.Options{Strategy: client.StrategySCAR, Retries: 8, Budget: client.NewRetryBudget(500, 1)}), R: rec, ID: w}
		return func(i int) (uint64, error) {
			seq := i + 1
			_, err := cl.SetVersioned(ctx, key(w%groups, seq%keys), []byte(fmt.Sprintf("w%d.s%d", w, seq)))
			return 0, err
		}
	}})

	check := history.Client{C: cc.NewClient(client.Options{Strategy: client.Strategy2xR}), R: rec, ID: workers + 1}
	if err := check.ReadAll(ctx, cc.RepairAll); err != nil {
		t.Fatal(err)
	}
	for _, v := range history.Check(rec.Ops(), 0) {
		t.Error(v)
		cfg := cc.Store.Get()
		t.Logf("config ID=%d shards=%d addrs=%v", cfg.ID, cfg.Shards, cfg.ShardAddrs)
		for _, b := range cc.Nodes() {
			found := false
			for _, it := range b.Items(-1, cfg.Shards) {
				if string(it.Key) == v.Key {
					t.Logf("  node %s shard=%d: %s ver=%+v tomb=%v", b.Addr(), b.Shard(), it.Value, it.Version, it.Tombstone)
					found = true
				}
			}
			if !found {
				t.Logf("  node %s shard=%d: ABSENT", b.Addr(), b.Shard())
			}
		}
	}
}

// TestMaintenanceHandoffUnderLoad cycles every shard through planned
// maintenance (migrate to spare, migrate back) under sustained writes.
func TestMaintenanceHandoffUnderLoad(t *testing.T) {
	handoffStress(t, Options{Shards: 3, Spares: 1, Mode: R32}, func(t *testing.T, c *Cell) {
		ctx := context.Background()
		for s := 0; s < 3; s++ {
			orig := c.Internal().Store.Get().AddrFor(s)
			if _, err := c.PlannedMaintenance(ctx, s); err != nil {
				t.Fatalf("planned maintenance shard %d: %v", s, err)
			}
			if err := c.CompleteMaintenance(ctx, s, orig); err != nil {
				t.Fatalf("complete maintenance shard %d: %v", s, err)
			}
		}
	})
}

// TestResizeHandoffUnderLoad grows, shrinks, and regrows the cell under
// sustained writes.
func TestResizeHandoffUnderLoad(t *testing.T) {
	handoffStress(t, Options{Shards: 3, Spares: 3, Mode: R32}, func(t *testing.T, c *Cell) {
		ctx := context.Background()
		for _, n := range []int{5, 3, 5} {
			if err := c.Resize(ctx, n); err != nil {
				t.Fatalf("resize to %d: %v", n, err)
			}
		}
	})
}
