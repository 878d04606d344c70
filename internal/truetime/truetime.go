// Package truetime substitutes for Google's TrueTime in VersionNumber
// generation (§5.2 of the paper).
//
// CliqueMap mutations carry a client-nominated VersionNumber — a tuple
// {TrueTime, ClientID, SequenceNumber} — that is globally unique and
// monotonic per client. Backends apply a mutation only if its proposed
// VersionNumber exceeds the stored one, so all replicas independently agree
// on the final mutation order without coordinating. Using a coarse global
// clock in the uppermost bits means a retrying client eventually nominates
// the highest VersionNumber, which is what guarantees per-client forward
// progress.
//
// The substitute here is a monotonic wall-clock with bounded uncertainty.
// The paper only needs (a) global uniqueness, (b) per-client monotonicity,
// and (c) rough global ordering so retries win; all three hold.
package truetime

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Interval is a TrueTime-style time interval [Earliest, Latest] bracketing
// real time.
type Interval struct {
	Earliest int64 // microseconds since epoch
	Latest   int64
}

// Clock yields intervals. Implementations must be monotonic in Latest.
type Clock interface {
	Now() Interval
}

// SystemClock derives intervals from the machine clock with a fixed
// uncertainty bound, and enforces monotonicity even if the wall clock steps
// backwards.
type SystemClock struct {
	// UncertaintyMicros is the half-width of the interval (TrueTime's
	// epsilon). Production TrueTime keeps this under ~7ms; we default to
	// 1ms.
	UncertaintyMicros int64

	last atomic.Int64
}

// NewSystemClock returns a SystemClock with a 1ms uncertainty bound.
func NewSystemClock() *SystemClock { return &SystemClock{UncertaintyMicros: 1000} }

// Now returns the current interval. Latest never decreases.
func (c *SystemClock) Now() Interval {
	now := time.Now().UnixMicro()
	for {
		prev := c.last.Load()
		if now <= prev {
			now = prev + 1 // monotonicity under clock steps
		}
		if c.last.CompareAndSwap(prev, now) {
			break
		}
	}
	eps := c.UncertaintyMicros
	if eps <= 0 {
		eps = 1000
	}
	return Interval{Earliest: now - eps, Latest: now}
}

// FakeClock is a manually advanced clock for deterministic tests.
type FakeClock struct {
	micros atomic.Int64
}

// Now returns the interval at the current fake time (zero uncertainty).
func (c *FakeClock) Now() Interval {
	m := c.micros.Load()
	return Interval{Earliest: m, Latest: m}
}

// Advance moves the fake clock forward.
func (c *FakeClock) Advance(d time.Duration) { c.micros.Add(d.Microseconds()) }

// Set positions the fake clock.
func (c *FakeClock) Set(micros int64) { c.micros.Store(micros) }

// Version is the CliqueMap VersionNumber: globally unique, monotonic within
// a key, and monotonic in the sequence emitted by a single client. The
// zero Version is "no version" and compares below every real version.
// The wire tags are its field order inside every proto message, which
// splice it in `flat` at their own base tag (internal/wire/codec.go).
type Version struct {
	Micros   int64  `wire:"1"` // TrueTime latest bound at nomination (uppermost bits)
	ClientID uint64 `wire:"2"` // tie-break between clients in the same microsecond
	Seq      uint64 `wire:"3"` // per-client sequence, tie-break for one client
}

// Zero reports whether v is the absent version.
func (v Version) Zero() bool { return v == Version{} }

// Less orders versions: time, then client, then sequence.
func (v Version) Less(o Version) bool {
	if v.Micros != o.Micros {
		return v.Micros < o.Micros
	}
	if v.ClientID != o.ClientID {
		return v.ClientID < o.ClientID
	}
	return v.Seq < o.Seq
}

// String renders a compact debugging form.
func (v Version) String() string {
	return fmt.Sprintf("v{%d.%d.%d}", v.Micros, v.ClientID, v.Seq)
}

// Generator nominates VersionNumbers for one client.
type Generator struct {
	clock    Clock
	clientID uint64
	seq      atomic.Uint64
	lastUs   atomic.Int64
}

// NewGenerator returns a version generator bound to clock and client ID.
func NewGenerator(clock Clock, clientID uint64) *Generator {
	return &Generator{clock: clock, clientID: clientID}
}

// Next nominates a fresh VersionNumber. Successive calls from one client
// are strictly increasing even if the clock stalls, because Seq always
// advances and Micros never decreases.
func (g *Generator) Next() Version {
	us := g.clock.Now().Latest
	for {
		prev := g.lastUs.Load()
		if us < prev {
			us = prev
		}
		if g.lastUs.CompareAndSwap(prev, us) {
			break
		}
	}
	return Version{Micros: us, ClientID: g.clientID, Seq: g.seq.Add(1)}
}

// ClientID returns the generator's client identity.
func (g *Generator) ClientID() uint64 { return g.clientID }
