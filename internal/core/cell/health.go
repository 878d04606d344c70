package cell

import (
	"context"
	"time"

	"cliquemap/internal/core/client"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fleet"
	"cliquemap/internal/health"
	"cliquemap/internal/rpc"
)

// This file wires the fleet health plane (internal/health) into a cell:
// the plane runs on the fabric's virtual clock, every task serves its
// evaluated snapshot over MethodHealth, and the prober drives canary
// clients — one per lookup strategy the transport supports — against the
// reserved probe-key namespace.

// Health returns the cell's health plane, lazily built on the fabric
// clock from Options.Health. Until it is built, MethodHealth serves an
// empty snapshot.
func (c *Cell) Health() *health.Plane {
	c.healthOnce.Do(func() { c.healthPlane.Store(health.NewPlane(c.opt.Health, c.Fabric.NowNs)) })
	return c.healthPlane.Load()
}

// SetTierSnapshot names the federation tier's router snapshot, which
// MethodTier serves from every task of the cell. Outside a tier the
// method serves an empty snapshot.
func (c *Cell) SetTierSnapshot(fn func() proto.TierResp) { c.tierSnap.Store(&fn) }

// servePlanes registers the cell-wide telemetry methods on a task's RPC
// server, so every task — a restarted or promoted one too — answers from
// the planes the cell owns. Tooling can always poll: each method serves an
// empty snapshot while its plane does not exist.
func (c *Cell) servePlanes(s *rpc.Server) {
	s.Handle(proto.MethodHealth, func(context.Context, string, []byte) ([]byte, error) {
		if plane := c.healthPlane.Load(); plane != nil {
			return proto.HealthResp(plane.Evaluate()).Marshal(), nil
		}
		return proto.HealthResp{}.Marshal(), nil
	})
	s.Handle(proto.MethodTier, func(context.Context, string, []byte) ([]byte, error) {
		if snap := c.tierSnap.Load(); snap != nil {
			return (*snap)().Marshal(), nil
		}
		return proto.TierResp{}.Marshal(), nil
	})
}

// probeStrategies lists the lookup strategies the cell's transport can
// serve — each becomes one probe target, so a regression confined to a
// single protocol (say SCAR) still trips its own canary path.
func (c *Cell) probeStrategies() []client.Strategy {
	if c.opt.Transport == Transport1RMA {
		// 1RMA has no SCAR or MSG support: 2×R and the RPC fallback.
		return []client.Strategy{client.Strategy2xR, client.StrategyRPC}
	}
	return []client.Strategy{client.Strategy2xR, client.StrategySCAR, client.StrategyMSG, client.StrategyRPC}
}

// Prober returns the cell's E2E prober, lazily building one canary
// client per transport strategy. The prober records each canary op's
// availability and latency into the health plane; drive rounds from the
// workload loop (or a test) so probe cadence rides virtual time.
func (c *Cell) Prober() *health.Prober {
	plane := c.Health()
	c.proberOnce.Do(func() {
		var targets []health.Target
		for _, st := range c.probeStrategies() {
			name := st.String()
			cl := c.NewClient(client.Options{Strategy: st})
			targets = append(targets, health.Target{Name: name, Client: cl})
		}
		c.mu.Lock()
		c.prober = health.NewProber(plane, targets, nil)
		c.mu.Unlock()
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prober
}

// Scrape assembles the cell's own telemetry scrape — the parts of the
// record cmstat builds over RPC (fleet.ScrapeCell) that an exposition page
// renders — straight from the snapshot functions behind those RPC methods:
// every task's Stats (idle spares included), the tracer and CPU accounts
// from the first task, the evaluated health plane. It is what cmcell's
// /metrics serves; it deliberately does not go through rpc.Client, which
// would bill the CPU account and tracer it reports.
func (c *Cell) Scrape(now time.Time) fleet.CellScrape {
	nodes := c.Nodes()
	cs := fleet.CellScrape{At: now, Stats: make(map[string]proto.StatsResp, len(nodes))}
	for _, b := range nodes {
		cs.Stats[b.Addr()] = b.Stats()
	}
	if len(nodes) > 0 {
		cs.Debug, cs.DebugOK = nodes[0].Debug(1), true // the page renders no slow-op log
	}
	cs.Health, cs.HealthOK = proto.HealthResp(c.Health().Evaluate()), true
	return cs
}
