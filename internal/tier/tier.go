// Package tier federates many independent Cells into one keyspace — the
// paper's production shape, where CliqueMap runs as O(10²) cells fronting
// different workloads (§2, §7). A Tier owns N cells plus a Router that
// maps keys to cells over a weighted consistent-hash ring, re-weighting
// on each cell's health-plane state: a paged cell is demoted with
// hysteresis, a cell that stops answering is routed around entirely, and
// either transition shifts only ~1/N of the key range (the demoted
// member's own arcs).
//
// Cells remain independent caches: the tier moves routing, never data. A
// rebalance turns the moved range into cache misses on the new owner —
// never into lost acked writes, because the tier client only acks a
// mutation after the owning cell does, and re-routes before retrying.
package tier

import (
	"context"
	"fmt"

	"cliquemap/internal/core/cell"
	"cliquemap/internal/hashring"
)

// CellRef names one member cell of a tier. Every cell starts at weight
// 1; Router.SetWeight changes it.
type CellRef struct {
	Name string
	Cell *cell.Cell
}

// Options configures a Tier.
type Options struct {
	Cells []CellRef
}

// Tier is a set of named cells behind one router.
type Tier struct {
	order  []string
	cells  map[string]*cell.Cell
	router *Router
}

// New builds a tier over the given cells and names its router snapshot
// to every member, so any cell's gateway can answer cmstat -tier.
func New(opt Options) (*Tier, error) {
	if len(opt.Cells) == 0 {
		return nil, fmt.Errorf("tier: no cells")
	}
	t := &Tier{cells: make(map[string]*cell.Cell, len(opt.Cells))}
	for _, cr := range opt.Cells {
		if cr.Name == "" {
			return nil, fmt.Errorf("tier: unnamed cell")
		}
		if cr.Cell == nil {
			return nil, fmt.Errorf("tier: cell %q is nil", cr.Name)
		}
		if _, dup := t.cells[cr.Name]; dup {
			return nil, fmt.Errorf("tier: duplicate cell name %q", cr.Name)
		}
		t.cells[cr.Name] = cr.Cell
		t.order = append(t.order, cr.Name)
	}
	t.router = newRouter(t.order)
	for _, c := range t.cells {
		c.SetTierSnapshot(t.router.Snapshot)
	}
	return t, nil
}

// Cells returns the member names in configuration order.
func (t *Tier) Cells() []string { return append([]string(nil), t.order...) }

// Cell returns a member by name (nil if unknown).
func (t *Tier) Cell(name string) *cell.Cell { return t.cells[name] }

// Router returns the tier's router.
func (t *Tier) Router() *Router { return t.router }

// Hash returns the tier-level KeyHash for key.
func (t *Tier) Hash(key []byte) hashring.KeyHash { return hashring.DefaultHash(key) }

// Owner returns the cell currently owning key ("" if none routable).
func (t *Tier) Owner(key []byte) string {
	n, _ := t.router.Route(hashring.DefaultHash(key))
	return n
}

// Observe feeds every live cell's current health evaluation into the
// router's rebalance state machine. Call it on whatever cadence drives
// the health planes (typically after prober rounds); dead cells are
// skipped until Revive.
func (t *Tier) Observe() {
	for _, n := range t.order {
		if t.router.byNameDead(n) {
			continue
		}
		t.router.ApplyHealth(n, t.cells[n].Health().Evaluate().Worst())
	}
}

// ProbeRound drives one canary prober round on every live cell, then
// applies the resulting health states — the all-in-one tick for
// workloads that let the tier own probing.
func (t *Tier) ProbeRound(ctx context.Context) {
	for _, n := range t.order {
		if t.router.byNameDead(n) {
			continue
		}
		t.router.ApplyHealth(n, t.cells[n].Prober().Round(ctx).Worst())
	}
}

// byNameDead reports whether a member is currently marked dead.
func (r *Router) byNameDead(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byName[name]
	return m == nil || m.dead
}
