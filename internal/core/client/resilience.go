// Resilience layer: the client-side hardening that turns §3's "retries
// are the universal hazard handler" into a production policy. Retries are
// paced by capped exponential backoff (billed as virtual time, so the
// latency model sees the pause), bounded by a token-bucket retry budget
// shared across the client's ops (so a brownout cannot amplify offered
// load without bound), and steered by per-replica health scores that
// demote browned-out backends from the preferred-read role until a probe
// succeeds.
package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/nic"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
)

// Backoff pacing: retry n waits min(backoffCapNs, backoffBaseNs<<(n-1)),
// the upper half of it randomized (50% jitter). The wait is virtual — it
// extends the op's modelled latency (SpanBackoff) rather than blocking
// the goroutine, so simulated experiments stay fast while the latency
// story stays honest.
const (
	backoffBaseNs = 20_000
	backoffCapNs  = 2_000_000
)

// backoffDelay computes attempt's backoff (attempt 1 = first retry).
func backoffDelay(attempt int, rnd uint64) uint64 {
	d := uint64(backoffBaseNs)
	for i := 1; i < attempt && d < backoffCapNs; i++ {
		d <<= 1
	}
	d = min(d, backoffCapNs)
	// rnd is already well-mixed; fold it into [0, jitter).
	jitter := d / 2
	return d - jitter + rnd%jitter
}

// takeRetryToken debits the shared retry budget for one more attempt.
func (c *Client) takeRetryToken() error {
	if !c.opt.Budget.TryTake() {
		c.M.BudgetDenied.Inc()
		return fmt.Errorf("%w: retry budget empty", ErrExhausted)
	}
	return nil
}

// beginRetry is the prologue of every retry, GET or mutation: spend a
// budget token, then pace with jittered exponential backoff billed to
// total as virtual time.
func (c *Client) beginRetry(total *fabric.OpTrace, attempt int) error {
	if err := c.takeRetryToken(); err != nil {
		return err
	}
	ns := backoffDelay(attempt, c.rand64())
	total.AddSpan(trace.SpanBackoff, uint32(attempt), ns)
	c.M.BackoffNs.Add(ns)
	return nil
}

// classifyAndRepair performs the layered retry policy (§3): each failure
// class repairs a different level of client state before the next attempt.
func (c *Client) classifyAndRepair(err error) {
	var stale errStale
	switch {
	case errors.Is(err, layout.ErrConfigChanged), errors.Is(err, proto.ErrShardSealed):
		// The fleet moved on — or a sealed source bounced the mutation: a
		// handoff or resize moved the shard underneath us. Refresh config
		// and re-fan-out; the new epoch's owners (or the handoff target)
		// take the op.
		c.M.ConfigRetries.Inc()
		c.refreshConfig()
	case errors.Is(err, rpc.ErrUnavailable) || errors.Is(err, nic.ErrUnreachable):
		c.M.WindowRetries.Inc()
		c.refreshConfig()
		// A cached one-sided conn can point at a NIC that no longer
		// exists (crash/restart replaces the node's engines); re-dial so
		// the RMA path recovers instead of leaning on the RPC fallback.
		c.forgetConns()
	case errors.As(err, &stale):
		// A window error from one backend: re-handshake with it.
		c.M.WindowRetries.Inc()
		c.forgetHandshake(stale.addr)
	case errors.Is(err, layout.ErrTornRead) || errors.Is(err, layout.ErrKeyMismatch):
		c.M.TornRetries.Inc()
	default:
		// Inquorate, or a recovering replica withholding its misses
		// (proto.ErrRecovering): no client state to repair — retry and let
		// the rest of the quorum carry the read.
		c.M.QuorumRetries.Inc()
	}
}

// RetryBudget is a token bucket debited one token per retry and credited
// a fraction of a token per success, shared across every op the client
// runs (§9: unchecked retries turn a brownout into a self-inflicted
// outage). Tokens are tracked in milli-units so fractional credit stays
// integer and atomic.
type RetryBudget struct {
	milli  atomic.Int64
	cap    int64 // milli-tokens
	credit int64 // milli-tokens per success
}

// NewRetryBudget builds a budget holding capacity tokens, refilled by
// credit tokens per successful op. Zero values take the defaults
// (capacity 10, credit 0.1).
func NewRetryBudget(capacity, credit float64) *RetryBudget {
	if capacity <= 0 {
		capacity = 10
	}
	if credit <= 0 {
		credit = 0.1
	}
	b := &RetryBudget{cap: int64(capacity * 1000), credit: int64(credit * 1000)}
	b.milli.Store(b.cap)
	return b
}

// TryTake debits one retry token, reporting false when the budget is
// exhausted — the caller must fail promptly rather than retry.
func (b *RetryBudget) TryTake() bool {
	for {
		cur := b.milli.Load()
		if cur < 1000 {
			return false
		}
		if b.milli.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}

// Credit refills the bucket after a successful op, capped at capacity.
func (b *RetryBudget) Credit() {
	for {
		cur := b.milli.Load()
		next := cur + b.credit
		if next > b.cap {
			next = b.cap
		}
		if next == cur || b.milli.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Health-score constants. Scores live in milli-units 0..1000: failures
// pull the score up toward 1000 by healthFailStep, successes decay it
// multiplicatively. A replica at or above healthDemote is demoted from
// the preferred-read role; while demoted, one in healthProbeEvery
// selections is allowed through as a probe so recovery is observed.
const (
	healthFailStep   = 300
	healthDecayNum   = 7 // success: score = score*7/10
	healthDecayDen   = 10
	healthDemote     = 500
	healthRecover    = 250
	healthProbeEvery = 16
)

// replicaHealth is one backend's client-observed failure EWMA.
type replicaHealth struct {
	scoreMilli int64
	demoted    bool
	probes     uint64
}

// healthState holds per-replica scores behind a single atomic gate: while
// every replica is healthy (the steady state) the hot path pays one
// atomic load and never touches the mutex.
type healthState struct {
	active atomic.Int32 // number of addrs with nonzero score
	mu     sync.Mutex
	m      map[string]*replicaHealth
}

func (h *healthState) get(addr string) *replicaHealth {
	if h.m == nil {
		h.m = make(map[string]*replicaHealth)
	}
	r := h.m[addr]
	if r == nil {
		r = &replicaHealth{}
		h.m[addr] = r
	}
	return r
}

// noteFailure worsens addr's score, returning (score, demoted) so the
// caller can export the gauge outside the lock.
func (h *healthState) noteFailure(addr string) (int64, bool) {
	h.mu.Lock()
	r := h.get(addr)
	if r.scoreMilli == 0 {
		h.active.Add(1)
	}
	r.scoreMilli += healthFailStep
	if r.scoreMilli > 1000 {
		r.scoreMilli = 1000
	}
	if !r.demoted && r.scoreMilli >= healthDemote {
		r.demoted = true
	}
	score, dem := r.scoreMilli, r.demoted
	h.mu.Unlock()
	return score, dem
}

// noteSuccess decays addr's score. Cheap no-op while everything is
// healthy. Returns (score, demoted, changed).
func (h *healthState) noteSuccess(addr string) (int64, bool, bool) {
	if h.active.Load() == 0 {
		return 0, false, false
	}
	h.mu.Lock()
	r := h.m[addr]
	if r == nil || r.scoreMilli == 0 {
		h.mu.Unlock()
		return 0, false, false
	}
	r.scoreMilli = r.scoreMilli * healthDecayNum / healthDecayDen
	if r.scoreMilli < 10 {
		r.scoreMilli = 0
		h.active.Add(-1)
	}
	if r.demoted && r.scoreMilli < healthRecover {
		r.demoted = false
	}
	score, dem := r.scoreMilli, r.demoted
	h.mu.Unlock()
	return score, dem, true
}

// demoted reports whether addr should be passed over for preferred
// reads. Every healthProbeEvery-th call on a demoted replica answers
// false — a probe — so a recovered backend earns its score back.
func (h *healthState) demoted(addr string) bool {
	if h.active.Load() == 0 {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.m[addr]
	if r == nil || !r.demoted {
		return false
	}
	r.probes++
	return r.probes%healthProbeEvery != 0
}

// rand64 advances the client's xorshift state (same recurrence as the
// fabric's samplers; seeded per client so runs replay deterministically).
func (c *Client) rand64() uint64 {
	for {
		x := c.rngState.Load()
		n := x
		n ^= n << 13
		n ^= n >> 7
		n ^= n << 17
		if c.rngState.CompareAndSwap(x, n) {
			return n * 0x2545f4914f6cdd1d
		}
	}
}

// noteReplicaFailure feeds the health score and exports the gauge.
func (c *Client) noteReplicaFailure(addr string) {
	if addr == "" {
		return
	}
	score, dem := c.health.noteFailure(addr)
	if c.opt.Tracer != nil {
		c.opt.Tracer.SetReplicaHealth(addr, uint64(score), dem)
	}
}

// noteReplicaSuccess decays the health score and exports the gauge.
func (c *Client) noteReplicaSuccess(addr string) {
	if addr == "" {
		return
	}
	score, dem, changed := c.health.noteSuccess(addr)
	if changed && c.opt.Tracer != nil {
		c.opt.Tracer.SetReplicaHealth(addr, uint64(score), dem)
	}
}

// replicaDemoted reports whether the health layer wants addr skipped for
// preferred reads this time.
func (c *Client) replicaDemoted(addr string) bool { return c.health.demoted(addr) }
