// Package config models CliqueMap's cell configuration and the external
// high-availability configuration store clients refresh from (§6.1 cites
// Chubby/Spanner; here an in-process registry with the same watch/refresh
// semantics).
//
// Configuration is versioned by a monotonically increasing ConfigID that is
// also stamped into every Bucket header. A client that fetches a Bucket
// whose ConfigID differs from its expectation knows a migration or
// reconfiguration is in flight, refreshes its configuration, and "discovers
// all migrations in flight and (temporary) roles of any spare backends".
package config

import (
	"fmt"
	"sync"
)

// Mode selects the replication scheme (§5, §6.4).
type Mode int

const (
	// R1 stores one copy; availability comes from warm spares (§6.1).
	R1 Mode = iota
	// R2Immutable stores two copies of an immutable corpus; one replica is
	// consulted per GET, the second serves on failure (§6.4).
	R2Immutable
	// R32 stores three copies with a client-side quorum of two (§5.1).
	R32
)

// MaxReplicas bounds Replicas over every mode, so a cohort fits a fixed
// array.
const MaxReplicas = 3

// Replicas returns the copy count for the mode.
func (m Mode) Replicas() int {
	switch m {
	case R1:
		return 1
	case R2Immutable:
		return 2
	default:
		return 3
	}
}

// Quorum returns the agreement threshold for the mode.
func (m Mode) Quorum() int {
	if m == R32 {
		return 2
	}
	return 1
}

// String names the mode the way the paper does.
func (m Mode) String() string {
	switch m {
	case R1:
		return "R=1"
	case R2Immutable:
		return "R=2/Immutable"
	case R32:
		return "R=3.2"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// BackendInfo describes one backend task.
type BackendInfo struct {
	// Shard is the logical backend number keys hash to (-1 for an idle
	// spare).
	Shard int
	// Addr is the task's RPC address.
	Addr string
	// HostID is the fabric host the task runs on.
	HostID int
	// Spare marks a warm spare, possibly temporarily holding a shard.
	Spare bool
}

// PendingEpoch is the target shard map of an in-flight resize. While a
// CellConfig carries one, the cell is mid-transition: old-epoch shards
// hand their contents to their pending-epoch owners one source at a
// time, and SealedOld records which old shards have been sealed and
// drained. The epoch commits when the orchestrator folds it into the
// top-level Shards/ShardAddrs and clears Pending.
type PendingEpoch struct {
	// Shards is the target logical shard count.
	Shards int
	// ShardAddrs maps each pending shard to its serving address.
	ShardAddrs []string
	// SealedOld[s] is true once old shard s has been sealed and its
	// catch-up delta drained to the pending owners. It only ever grows
	// within one transition.
	SealedOld []bool
}

// clone deep-copies the epoch.
func (p *PendingEpoch) clone() *PendingEpoch {
	if p == nil {
		return nil
	}
	return &PendingEpoch{
		Shards:     p.Shards,
		ShardAddrs: append([]string(nil), p.ShardAddrs...),
		SealedOld:  append([]bool(nil), p.SealedOld...),
	}
}

// AddrFor returns the pending-epoch serving address of shard s.
func (p *PendingEpoch) AddrFor(s int) string {
	if p == nil || s < 0 || s >= len(p.ShardAddrs) {
		return ""
	}
	return p.ShardAddrs[s]
}

// CellConfig is a point-in-time view of the cell.
type CellConfig struct {
	// ID increases on every change and is stamped into bucket headers.
	ID uint64
	// Mode is the replication scheme.
	Mode Mode
	// Shards is the logical backend count (N in "mod N").
	Shards int
	// ShardAddrs maps each shard to the address currently serving it —
	// normally its primary task, or a spare during migration.
	ShardAddrs []string
	// Backends lists all tasks, including idle spares.
	Backends []BackendInfo
	// Pending is the target epoch of an in-flight resize, nil otherwise.
	Pending *PendingEpoch
}

// AddrFor returns the serving address of shard s.
func (c CellConfig) AddrFor(s int) string {
	if s < 0 || s >= len(c.ShardAddrs) {
		return ""
	}
	return c.ShardAddrs[s]
}

// HostFor returns the fabric host currently serving shard s, or -1.
func (c CellConfig) HostFor(s int) int {
	return c.HostForAddr(c.AddrFor(s))
}

// HostForAddr returns the fabric host of the task at addr, or -1.
func (c CellConfig) HostForAddr(addr string) int {
	for _, b := range c.Backends {
		if b.Addr == addr {
			return b.HostID
		}
	}
	return -1
}

// Cohort returns the shards hosting copies of a key whose primary shard is
// p: p, p+1, ..., mod Shards (§5.1).
func (c CellConfig) Cohort(p int) []int {
	return c.AppendCohort(make([]int, 0, MaxReplicas), p)
}

// AppendCohort appends Cohort(p) to dst: with room in dst (MaxReplicas
// suffices) the per-op paths resolve a cohort without allocating.
func (c CellConfig) AppendCohort(dst []int, p int) []int {
	return appendCohort(dst, p, c.Mode.Replicas(), c.Shards)
}

// PendingCohort returns the pending-epoch cohort of a key whose
// pending-epoch primary shard is p, or nil outside a transition.
func (c CellConfig) PendingCohort(p int) []int {
	if c.Pending == nil {
		return nil
	}
	return appendCohort(make([]int, 0, MaxReplicas), p, c.Mode.Replicas(), c.Pending.Shards)
}

func appendCohort(dst []int, p, r, shards int) []int {
	if r > shards {
		r = shards
	}
	for i := 0; i < r; i++ {
		dst = append(dst, (p+i)%shards)
	}
	return dst
}

// PendingAuthoritative reports whether the pending epoch is the read
// authority for a key with the given old-epoch cohort. The old epoch
// stays authoritative while enough of the cohort is unsealed that an
// old-epoch quorum of live (unsealed or just-sealed) replicas can still
// vouch for every acked write; once sealed ≥ R−Q+1 of the cohort, any
// acked old-epoch write's quorum intersects the sealed set — and each
// seal drained that member's holdings (bulk + journal delta) to the
// pending owners — so the pending epoch holds every acked version and
// becomes the authority.
func (c CellConfig) PendingAuthoritative(oldCohort []int) bool {
	if c.Pending == nil {
		return false
	}
	r := len(oldCohort)
	q := c.Mode.Quorum()
	sealed := 0
	for _, s := range oldCohort {
		if s < len(c.Pending.SealedOld) && c.Pending.SealedOld[s] {
			sealed++
		}
	}
	return sealed >= r-q+1
}

// clone deep-copies the slices so snapshots never share storage.
func (c CellConfig) clone() CellConfig {
	c.ShardAddrs = append([]string(nil), c.ShardAddrs...)
	c.Backends = append([]BackendInfo(nil), c.Backends...)
	c.Pending = c.Pending.clone()
	return c
}

// Store is the high-availability configuration registry. Reads are cheap;
// updates bump the ConfigID (clients learn of one when a response fails
// validation against their cached ID, and refresh).
type Store struct {
	mu    sync.Mutex
	cur   CellConfig
	stale *CellConfig // pinned snapshot served to readers while set
}

// NewStore initializes a store with cfg at ID 1.
func NewStore(cfg CellConfig) *Store {
	cfg.ID = 1
	return &Store{cur: cfg.clone()}
}

// Get returns the current configuration — or, while SetStale(true) is in
// effect, the snapshot pinned at that moment.
func (s *Store) Get() CellConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stale != nil {
		return s.stale.clone()
	}
	return s.cur.clone()
}

// SetStale models a lagging HA config store (the §6.1 hazard a Chubby /
// Spanner-backed registry can exhibit): while stale, Get keeps serving the
// configuration current at the SetStale(true) call even as Updates apply
// underneath, so refresh-based repair reads outdated shard placements.
// SetStale(false) unpins and readers immediately see the latest config.
func (s *Store) SetStale(stale bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !stale {
		s.stale = nil
		return
	}
	pin := s.cur.clone()
	s.stale = &pin
}

// Update applies mutate to a copy of the configuration, bumps the ID, and
// publishes it. It returns the new configuration.
func (s *Store) Update(mutate func(*CellConfig)) CellConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.cur.clone()
	mutate(&next)
	next.ID = s.cur.ID + 1
	s.cur = next.clone()
	return next
}
