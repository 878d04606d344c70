package cell

// Reconfiguration: planned maintenance through a warm spare (§6.1) and
// online resize, each a step-wise orchestration of backend handoffs.

import (
	"context"
	"fmt"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/proto"
)

// PlannedMaintenance migrates shard s to an idle warm spare ahead of
// maintenance (§6.1, Figure 13), returning the spare's address. Clients
// discover the move via bucket ConfigID mismatch → config refresh.
func (c *Cell) PlannedMaintenance(ctx context.Context, shard int) (string, error) {
	c.maintMu.Lock()
	defer c.maintMu.Unlock()
	cfg := c.Store.Get()
	if cfg.Pending != nil {
		return "", fmt.Errorf("cell: resize in flight")
	}
	if shard < 0 || shard >= cfg.Shards {
		return "", fmt.Errorf("cell: shard %d out of range", shard)
	}
	var spare *node
	c.mu.Lock()
	for _, n := range c.nodes {
		// Any live task not serving a shard is spare capacity — born
		// spares and tasks a shrink demoted alike.
		if n.b.Shard() < 0 && !n.b.Server().Stopped() {
			spare = n
			break
		}
	}
	c.mu.Unlock()
	if spare == nil {
		return "", fmt.Errorf("cell: no idle spare")
	}
	primary := c.BackendByAddr(cfg.AddrFor(shard))
	if primary == nil {
		return "", fmt.Errorf("cell: shard %d has no task", shard)
	}
	if err := primary.MigrateTo(ctx, spare.info.Addr); err != nil {
		return "", err
	}
	c.bumpConfig(func(cc *config.CellConfig) {
		cc.ShardAddrs[shard] = spare.info.Addr
	})
	return spare.info.Addr, nil
}

// CompleteMaintenance returns shard s from its spare to the (restarted)
// primary task: the spare streams the data back and the config flips.
func (c *Cell) CompleteMaintenance(ctx context.Context, shard int, primaryAddr string) error {
	c.maintMu.Lock()
	defer c.maintMu.Unlock()
	cfg := c.Store.Get()
	if cfg.Pending != nil {
		return fmt.Errorf("cell: resize in flight")
	}
	spareAddr := cfg.AddrFor(shard)
	spare := c.BackendByAddr(spareAddr)
	if spare == nil {
		return fmt.Errorf("cell: shard %d spare missing", shard)
	}
	primary := c.BackendByAddr(primaryAddr)
	if primary == nil || primary.Server().Stopped() {
		return fmt.Errorf("cell: primary %s not ready", primaryAddr)
	}
	if err := spare.MigrateTo(ctx, primaryAddr); err != nil {
		return err
	}
	c.bumpConfig(func(cc *config.CellConfig) {
		cc.ShardAddrs[shard] = primaryAddr
	})
	return nil
}

// Resize changes the cell's logical shard count online, with GETs served
// on RMA throughout and no acked write lost. It runs the two-epoch
// protocol:
//
//  1. Publish a PendingEpoch (new shard count + placement) under a
//     bumped ConfigID. Clients discover it and union-fan mutations to
//     both epochs' cohorts; reads stay on the old epoch.
//  2. Drain each old shard's task in turn — bulk stream routed by the
//     new shard map, seal (mutations bounce to the new epoch), journal
//     delta until dry, tombstones + summary — and publish its seal.
//     As seals accumulate past R−Q+1 per cohort, read authority flips
//     to the pending owners key by key.
//  3. Commit: the pending map becomes THE map, survivors unseal and GC
//     keys their new cohorts no longer cover, dropped tasks wipe clean
//     and re-arm as warm spares.
//
// Growth claims idle spares for the new shards; a shrink returns the
// trailing shards' tasks to spare duty. The receiving tasks reuse their
// live corpora: surviving shards never re-stream data they already hold.
func (c *Cell) Resize(ctx context.Context, newShards int) error {
	c.maintMu.Lock()
	defer c.maintMu.Unlock()
	cfg := c.Store.Get()
	if cfg.Pending != nil {
		return fmt.Errorf("cell: resize already in flight")
	}
	if newShards < 1 {
		return fmt.Errorf("cell: cannot resize to %d shards", newShards)
	}
	oldShards := cfg.Shards
	if newShards == oldShards {
		return nil
	}
	oldAddrs := append([]string(nil), cfg.ShardAddrs...)
	replicas := cfg.Mode.Replicas()

	// Target placement: surviving shards stay on their current tasks;
	// growth shards claim idle spares (including tasks a prior shrink
	// demoted).
	newAddrs := make([]string, newShards)
	copy(newAddrs, oldAddrs)
	if newShards > oldShards {
		need := newShards - oldShards
		var spares []*node
		c.mu.Lock()
		for _, n := range c.nodes {
			if len(spares) == need {
				break
			}
			if n.b.Shard() < 0 && !n.b.Server().Stopped() {
				spares = append(spares, n)
			}
		}
		c.mu.Unlock()
		if len(spares) < need {
			return fmt.Errorf("cell: resize %d→%d needs %d idle spares, have %d", oldShards, newShards, need, len(spares))
		}
		for i := 0; i < need; i++ {
			newAddrs[oldShards+i] = spares[i].info.Addr
		}
	}

	// Phase 1: publish the pending epoch. From this bump on, refreshed
	// clients fan mutations to the union of both cohorts.
	c.bumpConfig(func(cc *config.CellConfig) {
		cc.Pending = &config.PendingEpoch{
			Shards:     newShards,
			ShardAddrs: append([]string(nil), newAddrs...),
			SealedOld:  make([]bool, oldShards),
		}
	})

	// Phase 2: drain old sources one at a time. The seal goes over the
	// wire (MethodSeal) like every other handoff step.
	for s := 0; s < oldShards; s++ {
		addr := oldAddrs[s]
		src := c.BackendByAddr(addr)
		if src == nil || src.Server().Stopped() {
			return fmt.Errorf("cell: resize source %s (shard %d) not serving", addr, s)
		}
		host := cfg.HostForAddr(addr)
		rc := c.Net.Client(host, "backend-"+addr)
		seal := func(sctx context.Context) error {
			_, _, err := rc.Call(sctx, addr, proto.MethodSeal, proto.SealReq{On: true}.Marshal())
			return err
		}
		if err := src.ResizeHandoff(ctx, seal); err != nil {
			return fmt.Errorf("cell: resize handoff of shard %d: %w", s, err)
		}
		// Invalidate the frozen source's buckets under the ID the seal
		// publication is about to carry, BEFORE publishing it. A sealed
		// task keeps serving RMA reads from a corpus frozen at its seal;
		// if its buckets stayed stamped with the pre-seal ID, two such
		// frozen members could form a valid-looking stale read quorum for
		// a client that has not refreshed yet. Pre-stamping strands the
		// frozen vote: readers on the old ID get a mismatch and refresh,
		// and any config that validates the new stamp already counts this
		// seal toward read authority. (maintMu serializes config bumps,
		// so ID+1 is exactly the ID bumpConfig will publish.)
		src.SetConfigID(c.Store.Get().ID + 1)
		shard := s
		c.bumpConfig(func(cc *config.CellConfig) {
			if cc.Pending != nil && shard < len(cc.Pending.SealedOld) {
				cc.Pending.SealedOld[shard] = true
			}
		})
	}

	// Growth tasks formally assume their shard numbers before the flip.
	for s := oldShards; s < newShards; s++ {
		addr := newAddrs[s]
		rc := c.Net.Client(cfg.HostForAddr(addr), "backend-"+addr)
		if _, _, err := rc.Call(ctx, addr, proto.MethodAssumeShard, proto.AssumeShardReq{Shard: s}.Marshal()); err != nil {
			return fmt.Errorf("cell: shard %d assume at %s: %w", s, addr, err)
		}
	}

	// Phase 3: commit the new epoch …
	c.bumpConfig(func(cc *config.CellConfig) {
		cc.Shards = newShards
		cc.ShardAddrs = append([]string(nil), newAddrs...)
		cc.Pending = nil
	})

	// … then unseal the survivors and collect garbage. Between the flip
	// and an unseal, non-pending mutations to that task bounce with
	// ErrShardSealed; the client retry loop refreshes and re-sends, so
	// the window costs a retry, never a write.
	kept := make(map[string]bool, len(newAddrs))
	for _, a := range newAddrs {
		kept[a] = true
	}
	for s := 0; s < oldShards; s++ {
		addr := oldAddrs[s]
		b := c.BackendByAddr(addr)
		if b == nil {
			continue
		}
		b.HandoffUnseal()
		if kept[addr] {
			// Survivor: drop the keys its new-epoch cohorts no longer
			// cover (they were streamed to their new owners in phase 2).
			b.DropForeign(newShards, replicas)
			continue
		}
		// Dropped by a shrink: wipe and re-arm as a warm spare.
		b.Clear()
		rc := c.Net.Client(cfg.HostForAddr(addr), "backend-"+addr)
		if _, _, err := rc.Call(ctx, addr, proto.MethodAssumeShard, proto.AssumeShardReq{Shard: -1}.Marshal()); err != nil {
			return fmt.Errorf("cell: demoting %s to spare: %w", addr, err)
		}
	}
	return nil
}
