package cliquemap

// The federation tier is the unit of scale above a Cell: the paper's
// production fleet runs O(10²) independent cells (§2, §7), and NewTier
// reproduces that shape in-process — N cells behind a weighted
// consistent-hash router that demotes paged cells with hysteresis and
// routes around dead ones, moving only ~1/N of the key range per event.

import (
	"context"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/tier"
	"cliquemap/internal/truetime"
)

// TierCellOptions names one member cell of a tier.
type TierCellOptions struct {
	// Name labels the cell ("us", "eu", ...). Required, unique. Every
	// cell joins at routing weight 1; SetWeight changes it.
	Name string
	// Options builds the cell, exactly as NewCell would.
	Options Options
}

// TierOptions configures NewTier.
type TierOptions struct {
	// Cells lists the member cells (at least one). The router's policy
	// is fixed: 128 virtual nodes per unit weight, a health-paged cell
	// keeps a quarter of its weight until three consecutive clean
	// observations restore it, and three consecutive failed ops mark a
	// cell dead and route around it.
	Cells []TierCellOptions
}

// Tier is a running federation of cells behind one router.
type Tier struct {
	t     *tier.Tier
	cells map[string]*Cell
}

// NewTier builds every member cell and the router above them.
func NewTier(opt TierOptions) (*Tier, error) {
	refs := make([]tier.CellRef, 0, len(opt.Cells))
	cells := make(map[string]*Cell, len(opt.Cells))
	for _, co := range opt.Cells {
		c, err := NewCell(co.Options)
		if err != nil {
			return nil, err
		}
		refs = append(refs, tier.CellRef{Name: co.Name, Cell: c.c})
		cells[co.Name] = c
	}
	t, err := tier.New(tier.Options{Cells: refs})
	if err != nil {
		return nil, err
	}
	return &Tier{t: t, cells: cells}, nil
}

// Cells returns the member names in configuration order.
func (t *Tier) Cells() []string { return t.t.Cells() }

// Cell returns a member cell by name (nil if unknown).
func (t *Tier) Cell(name string) *Cell { return t.cells[name] }

// Owner returns the cell currently owning key ("" if none routable).
func (t *Tier) Owner(key []byte) string { return t.t.Owner(key) }

// Observe feeds each live cell's current health evaluation into the
// router (demote on page, restore after three clean looks).
func (t *Tier) Observe() { t.t.Observe() }

// ProbeRound drives one canary prober round per live cell and applies
// the resulting health states to the router.
func (t *Tier) ProbeRound(ctx context.Context) { t.t.ProbeRound(ctx) }

// Revive returns a dead or demoted cell to full weight (the operator's
// lever after repairing it).
func (t *Tier) Revive(name string) { t.t.Router().Revive(name) }

// SetWeight changes a cell's configured routing weight — e.g. after a
// Resize grew its capacity.
func (t *Tier) SetWeight(name string, w float64) { t.t.Router().SetWeight(name, w) }

// RingVersion returns the routing ring's version, bumped on every
// rebuild (demotion, death, re-weight).
func (t *Tier) RingVersion() uint64 { return t.t.Router().Version() }

// Snapshot returns the router's current state in its MethodTier wire
// shape: per-cell live/base weights, health-driven demotion state, and
// exact keyspace ownership shares.
func (t *Tier) Snapshot() proto.TierResp { return t.t.Router().Snapshot() }

// Internal exposes the underlying tier for tests and tooling.
func (t *Tier) Internal() *tier.Tier { return t.t }

// TierClientOptions configures a tier client.
type TierClientOptions struct {
	// Local names the cell this client is co-located with ("" takes the
	// first cell): its tracer records the client's tier ops, and a leg to
	// any other cell shows as forwarded.
	Local string
}

// TierClient routes ops across the tier's cells.
type TierClient struct {
	c *tier.Client
}

// NewClient builds a tier client: one default per-cell client (2×R
// lookups) per member. An op that fails on its owner is re-routed at most
// four times, one more than the failures that mark a cell dead.
func (t *Tier) NewClient(opt TierClientOptions) (*TierClient, error) {
	c, err := t.t.NewClient(tier.ClientOptions{Local: opt.Local})
	if err != nil {
		return nil, err
	}
	return &TierClient{c: c}, nil
}

// Get looks up key on its owning cell.
func (c *TierClient) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	return c.c.Get(ctx, key)
}

// Set stores key=value on the owning cell.
func (c *TierClient) Set(ctx context.Context, key, value []byte) error {
	return c.c.Set(ctx, key, value)
}

// SetVersioned stores key=value and returns the owner-assigned version.
func (c *TierClient) SetVersioned(ctx context.Context, key, value []byte) (Version, error) {
	return c.c.SetVersioned(ctx, key, value)
}

// Erase removes key from its owning cell.
func (c *TierClient) Erase(ctx context.Context, key []byte) error {
	return c.c.Erase(ctx, key)
}

// Cas compare-and-swaps key on its owning cell.
func (c *TierClient) Cas(ctx context.Context, key, value []byte, expected truetime.Version) (bool, error) {
	return c.c.Cas(ctx, key, value, expected)
}

// TierClientStats snapshots a tier client's routing counters.
type TierClientStats struct {
	Ops           uint64 // tier-level ops attempted
	Reroutes      uint64 // retries after a failed cell op
	DeadFailovers uint64 // retries that followed a cell-death rebuild
}

// Stats returns the client's routing counters.
func (c *TierClient) Stats() TierClientStats {
	m := c.c.Metrics()
	return TierClientStats{Ops: m.Ops.Load(), Reroutes: m.Reroutes.Load(), DeadFailovers: m.DeadFailovers.Load()}
}

// Internal exposes the underlying tier client.
func (c *TierClient) Internal() *tier.Client { return c.c }
