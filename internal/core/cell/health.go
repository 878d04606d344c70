package cell

import (
	"time"

	"cliquemap/internal/core/client"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fleet"
	"cliquemap/internal/health"
)

// This file wires the fleet health plane (internal/health) into a cell:
// the plane runs on the fabric's virtual clock, every backend serves its
// evaluated snapshot over MethodHealth, and the prober drives canary
// clients — one per lookup strategy the transport supports — against the
// reserved probe-key namespace.

// Health returns the cell's health plane, lazily built on the fabric
// clock from Options.Health, and attaches its snapshot source to every
// live backend so MethodHealth serves the evaluated state.
func (c *Cell) Health() *health.Plane {
	c.healthOnce.Do(func() {
		plane := health.NewPlane(c.opt.Health, c.Fabric.NowNs)
		src := func() []byte { return healthWire(plane.Evaluate()).Marshal() }
		c.mu.Lock()
		c.healthPlane = plane
		c.healthSrc = src
		nodes := append([]*node(nil), c.nodes...)
		c.mu.Unlock()
		for _, n := range nodes {
			n.b.SetHealthSource(src)
		}
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.healthPlane
}

// SetTierSource attaches the federation tier's marshalled-TierResp
// provider to every live backend (and, via startNode, to any task
// restarted later), so MethodTier answers from any member cell's
// gateway.
func (c *Cell) SetTierSource(fn func() []byte) {
	c.mu.Lock()
	c.tierSrc = fn
	nodes := append([]*node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.b.SetTierSource(fn)
	}
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
	cs.Health, cs.HealthOK = healthWire(c.Health().Evaluate()), true
	return cs
}

// healthWire converts an evaluated health snapshot into its MethodHealth
// wire frame: states as display strings, burn rates in milli-units,
// availability objectives in parts-per-million.
func healthWire(s health.Snapshot) proto.HealthResp {
	r := proto.HealthResp{GeneratedNs: s.GeneratedNs, Rounds: s.Rounds}
	for _, cl := range s.Classes {
		r.Classes = append(r.Classes, proto.HealthClass{
			Class:           cl.Class,
			State:           cl.State.String(),
			SinceNs:         cl.SinceNs,
			AvailabilityPpm: uint64(cl.Availability*1e6 + 0.5),
			LatencyTargetNs: cl.LatencyNs,
			FastBurnMilli:   uint64(cl.FastBurn*1000 + 0.5),
			SlowBurnMilli:   uint64(cl.SlowBurn*1000 + 0.5),
			WindowGood:      cl.WindowGood,
			WindowBad:       cl.WindowBad,
			Good:            cl.Good,
			Bad:             cl.Bad,
			ProbeP50Ns:      cl.ProbeP50Ns,
			ProbeP99Ns:      cl.ProbeP99Ns,
			Pages:           cl.Pages,
			Warns:           cl.Warns,
		})
	}
	for _, t := range s.Targets {
		r.Targets = append(r.Targets, proto.HealthTarget{Name: t.Name, Good: t.Good, Bad: t.Bad})
	}
	return r
}
