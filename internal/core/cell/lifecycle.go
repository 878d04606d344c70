package cell

// Lifecycle: crash, cold or warm restart, and the §5.4 cohort repairs a
// restarted task requests — steps a driver calls on its own clock.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"cliquemap/internal/core/backend"
)

// Crash simulates an unplanned failure of the task serving shard s: RPC
// server stops and the NIC goes dark (§7.2.3, Figure 14).
func (c *Cell) Crash(shard int) {
	addr := c.Store.Get().AddrFor(shard)
	c.mu.Lock()
	n := c.byAddr[addr]
	c.mu.Unlock()
	if n == nil {
		return
	}
	n.b.Server().Stop()
	n.nic.SetDown(true)
}

// Restart brings shard s back as a fresh, empty task on its host (the
// paper restarts on another host; host identity is immaterial here) and
// runs the §5.4 post-restart repairs: the restarted backend requests
// repairs from the healthy members of every cohort it participates in.
// Any durable state the dead task left behind is discarded first — a
// replacement on another machine has no local disk history. Use
// RestartWarm to rejoin from checkpoint + journal instead.
func (c *Cell) Restart(ctx context.Context, shard int) error {
	if c.opt.DataDir != "" {
		os.RemoveAll(filepath.Join(c.opt.DataDir, c.Store.Get().AddrFor(shard)))
	}
	if _, err := c.RestartBegin(shard); err != nil {
		return err
	}
	return c.RestartComplete(ctx, shard)
}

// RestartWarm brings shard s back recovered from its durable checkpoint +
// journal (chaos.Surface): the replacement serves its pre-crash corpus
// immediately and self-validates back into the quorum, instead of being
// repaired key-by-key from an empty start. Falls back to Restart's cold
// behaviour when the cell has no data directory — minus the state wipe,
// which would be a no-op anyway.
func (c *Cell) RestartWarm(ctx context.Context, shard int) error {
	if _, err := c.RestartBegin(shard); err != nil {
		return err
	}
	return c.RestartComplete(ctx, shard)
}

// RestartBegin replaces the dead task at shard with a fresh one in the
// recovering state and returns its backend. With a data directory the
// replacement loads its corpus from the newest checkpoint plus journal
// tail before serving; without one it starts empty. Either way it serves
// resident entries but bounces misses with proto.ErrRecovering until
// RestartComplete — a replica that may be behind must not vote agreed
// misses (the rolling-crash lost-write hazard).
func (c *Cell) RestartBegin(shard int) (*backend.Backend, error) {
	cfg := c.Store.Get()
	addr := cfg.AddrFor(shard)
	c.mu.Lock()
	old := c.byAddr[addr]
	c.mu.Unlock()
	if old == nil {
		return nil, fmt.Errorf("cell: no task at %s", addr)
	}

	fresh, err := c.startNode(old.info, true) // re-Serve replaces the dead server
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for i, n := range c.nodes {
		if n == old {
			c.nodes[i] = fresh
		}
	}
	c.byAddr[addr] = fresh
	c.mu.Unlock()

	fresh.b.SetConfigID(cfg.ID)
	return fresh.b, nil
}

// RestartComplete runs the §5.4 post-restart repairs for shard's cohorts
// and, on success, ends the recovering window: the rejoined replica
// resumes voting misses. On repair failure the guard deliberately stays
// up — a replica that could not self-validate keeps withholding miss
// votes (safety over liveness); callers retry RestartComplete.
func (c *Cell) RestartComplete(ctx context.Context, shard int) error {
	if err := c.RepairCohortsOf(ctx, shard); err != nil {
		return err
	}
	if b := c.Backend(shard); b != nil {
		b.EndRecovery()
	}
	return nil
}

// RepairCohortsOf repairs every shard whose cohort includes shard s —
// what a restarted backend requests (§5.4).
func (c *Cell) RepairCohortsOf(ctx context.Context, s int) error {
	cfg := c.Store.Get()
	replicas := cfg.Mode.Replicas()
	for d := 0; d < replicas; d++ {
		target := ((s-d)%cfg.Shards + cfg.Shards) % cfg.Shards
		owner := c.BackendByAddr(cfg.AddrFor(target))
		if owner == nil || owner.Server().Stopped() {
			continue
		}
		if _, err := owner.RepairShard(ctx, target); err != nil {
			return err
		}
	}
	return nil
}

// RepairAll runs one cohort-scan repair sweep across every shard. It is a
// step: a driver calls it on its own clock (the paper tunes the inter-scan
// interval per deployment; tens of seconds is typical).
func (c *Cell) RepairAll(ctx context.Context) (int, error) {
	cfg := c.Store.Get()
	total := 0
	for s := 0; s < cfg.Shards; s++ {
		owner := c.BackendByAddr(cfg.AddrFor(s))
		if owner == nil || owner.Server().Stopped() {
			continue
		}
		n, err := owner.RepairShard(ctx, s)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}
