package tier

import (
	"sync"
	"sync/atomic"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/hashring"
	"cliquemap/internal/health"
)

const (
	// demotedFactor is the weight multiplier applied to a paged cell: a
	// demoted cell keeps a quarter of its traffic so probes and residual
	// load keep exercising it.
	demotedFactor = 0.25
	// healHold is how many consecutive clean health observations a
	// demoted cell must show before full weight returns.
	healHold = 3
	// failThreshold is how many consecutive failed client ops mark a
	// cell dead (weight 0, routed around).
	failThreshold = 3
	// reroutes is a tier client's re-route budget per op, on top of each
	// per-cell client's own retry loop: enough for one client to push a
	// dying cell over failThreshold and still land its op on the new
	// owner.
	reroutes = failThreshold + 1
)

// Router maps keys to member cells through a weighted consistent-hash
// ring and owns the rebalance policy: a cell whose health plane pages is
// demoted (to a quarter of its weight) immediately, restored only after
// three consecutive clean observations — asymmetric hysteresis so one
// good probe round cannot flap the ring back while the cell is still
// sick. A cell that fails three consecutive client ops is routed
// around entirely (weight 0) until revived.
//
// Mutation is rebuild-and-swap: the current ring lives behind an atomic
// pointer, so Route is lock-free and concurrent with any re-weight.
type Router struct {
	mu sync.Mutex // guards members + rebuilds

	order  []string
	byName map[string]*memberState

	ring    atomic.Pointer[hashring.WeightedRing]
	version atomic.Uint64 // bumps on every rebuild
}

type memberState struct {
	name       string
	base       float64 // configured weight
	state      string  // last observed health state, for display
	demoted    bool
	dead       bool
	okStreak   int // consecutive clean observations while demoted
	failStreak int // consecutive client op failures
}

func (m *memberState) live() float64 {
	switch {
	case m.dead:
		return 0
	case m.demoted:
		return m.base * demotedFactor
	default:
		return m.base
	}
}

func newRouter(names []string, weights []float64) *Router {
	r := &Router{
		order:  append([]string(nil), names...),
		byName: make(map[string]*memberState, len(names)),
	}
	for i, n := range names {
		r.byName[n] = &memberState{name: n, base: weights[i], state: "ok"}
	}
	r.rebuildLocked()
	return r
}

// rebuildLocked swaps in a fresh ring reflecting current live weights.
// Caller holds mu.
func (r *Router) rebuildLocked() {
	ms := make([]hashring.Member, len(r.order))
	for i, n := range r.order {
		ms[i] = hashring.Member{Name: n, Weight: r.byName[n].live()}
	}
	r.ring.Store(hashring.BuildWeighted(ms, hashring.DefaultVnodes))
	r.version.Add(1)
}

// Ring returns the current ring snapshot (immutable; safe to hold).
func (r *Router) Ring() *hashring.WeightedRing { return r.ring.Load() }

// Version returns the ring version, bumped on every rebuild.
func (r *Router) Version() uint64 { return r.version.Load() }

// Route returns the owning cell for h, or ok=false if no cell is
// routable. Lock-free.
func (r *Router) Route(h hashring.KeyHash) (name string, ok bool) {
	n := r.ring.Load().OwnerName(h)
	return n, n != ""
}

// ApplyHealth feeds one health observation for a cell into the rebalance
// state machine. Page demotes immediately; while demoted, three
// consecutive Ok observations restore full weight (Warn neither demotes
// nor counts as clean). Dead cells ignore health traffic until Revive.
func (r *Router) ApplyHealth(name string, st health.State) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byName[name]
	if m == nil || m.dead {
		return
	}
	m.state = st.String()
	switch st {
	case health.Page:
		m.okStreak = 0
		if !m.demoted {
			m.demoted = true
			r.rebuildLocked()
		}
	case health.Ok:
		if m.demoted {
			m.okStreak++
			if m.okStreak >= healHold {
				m.demoted = false
				m.okStreak = 0
				r.rebuildLocked()
			}
		}
	default: // Warn: hold position — neither demote further nor heal
	}
}

// NoteFailure records one failed client op against a cell. Crossing
// three consecutive failures marks the cell dead and rebuilds
// the ring without it; returns true when that transition fired (the
// caller's cue to re-route and retry).
func (r *Router) NoteFailure(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byName[name]
	if m == nil || m.dead {
		return false
	}
	m.failStreak++
	if m.failStreak >= failThreshold {
		m.dead = true
		m.state = "dead"
		r.rebuildLocked()
		return true
	}
	return false
}

// NoteSuccess resets a cell's consecutive-failure streak.
func (r *Router) NoteSuccess(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byName[name]; m != nil {
		m.failStreak = 0
	}
}

// Revive returns a dead cell to service at full weight (the operator's
// lever after a restart); also clears any demotion.
func (r *Router) Revive(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byName[name]
	if m == nil || (!m.dead && !m.demoted) {
		return
	}
	m.dead = false
	m.demoted = false
	m.okStreak = 0
	m.failStreak = 0
	m.state = "ok"
	r.rebuildLocked()
}

// SetWeight changes a cell's configured base weight (capacity change,
// e.g. after a Resize grew it) and rebuilds.
func (r *Router) SetWeight(name string, w float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byName[name]
	if m == nil {
		return
	}
	m.base = w
	r.rebuildLocked()
}

// Snapshot renders the router state as its MethodTier wire frame.
func (r *Router) Snapshot() proto.TierResp {
	r.mu.Lock()
	defer r.mu.Unlock()
	ring := r.ring.Load()
	shares := ring.Shares()
	resp := proto.TierResp{
		RingVersion: r.version.Load(),
		Vnodes:      hashring.DefaultVnodes,
	}
	for i, n := range r.order {
		m := r.byName[n]
		resp.Cells = append(resp.Cells, proto.TierCell{
			Name:        n,
			WeightMilli: uint64(m.live()*1000 + 0.5),
			BaseMilli:   uint64(m.base*1000 + 0.5),
			State:       m.state,
			Demoted:     m.demoted,
			OwnedPpm:    uint64(shares[i]*1e6 + 0.5),
		})
	}
	return resp
}
