// Package health is CliqueMap's fleet health plane (§6): the black-box
// qualification signal that decides whether a cell is serving its users.
// It combines three pieces:
//
//   - E2E probers (prober.go): synthetic canary clients that continuously
//     issue GET/SET/CAS/ERASE against reserved probe keys (the
//     layout.ProbeKeyPrefix namespace) over every configured transport,
//     measuring availability and latency from the client edge — the same
//     path users take, chaos and all.
//   - An SLO engine (this file): per-op-class objectives (availability +
//     latency threshold) evaluated with multi-window burn-rate alerting.
//     Probe outcomes land in a ring of virtual-time buckets; the burn
//     rate — observed bad fraction divided by the error budget — is read
//     over a fast (~5m) and a slow (~1h) window, and an ok → warn → page
//     state machine with hysteresis turns the pair into an operator
//     signal. Paging on burn rate rather than raw error rate makes the
//     alert scale-free: a 0.1%-budget SLO pages at the same severity
//     whether the cell serves 1k or 1M QPS.
//   - Key-heat telemetry (stats.TopK + per-stripe counters, fed by the
//     backend), surfaced over MethodDebug/cmstat.
//
// All windows run on the fabric's virtual clock, so chaos-induced
// brownouts trip alerts deterministically under a fixed seed and tests
// can cover hours of SLO algebra in milliseconds.
package health

import (
	"sync"

	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
)

// NowFunc samples the fabric's virtual clock in nanoseconds.
type NowFunc func() uint64

// State is the alert severity for one SLO class.
type State int

const (
	// Ok: burn rates below the warn threshold.
	Ok State = iota
	// Warn: the error budget is burning faster than sustainable (ticket
	// severity).
	Warn
	// Page: budget exhaustion is imminent on both windows (wake a human).
	Page
)

// String names the state for wire frames and display.
func (s State) String() string {
	switch s {
	case Warn:
		return "warn"
	case Page:
		return "page"
	}
	return "ok"
}

// Objective is one op class's SLO: an availability target and a latency
// threshold above which a successful op still counts against the budget.
type Objective struct {
	Class        string  // op class, e.g. "GET"
	Availability float64 // e.g. 0.999 → 0.1% error budget
	LatencyNs    uint64  // ops slower than this are budget-bad
}

// DefaultObjectives returns the stock per-op-class SLOs, calibrated to
// the modelled fabric: RMA GETs complete in ~10µs and RPC mutations in
// ~100µs, so a 1ms/5ms latency threshold only trips under injected
// degradation (e.g. the brownout preset's 2ms NIC delay).
func DefaultObjectives() []Objective {
	return []Objective{
		{Class: "GET", Availability: 0.999, LatencyNs: 1_000_000},
		{Class: "SET", Availability: 0.999, LatencyNs: 5_000_000},
		{Class: "CAS", Availability: 0.999, LatencyNs: 5_000_000},
		{Class: "ERASE", Availability: 0.999, LatencyNs: 5_000_000},
	}
}

// Config shapes the SLO engine. Zero fields take defaults.
type Config struct {
	FastWindowNs uint64 // default 5 virtual minutes
	SlowWindowNs uint64 // default 1 virtual hour
	BucketNs     uint64 // window bucket width; default 5 virtual seconds
	Objectives   []Objective
}

const (
	// pageBurn is the burn rate (on both windows) that enters Page: the
	// classic "2% of a 30-day budget in one hour".
	pageBurn = 14.4
	// warnBurn enters Warn.
	warnBurn = 3
	// clearFactor scales the enter thresholds into exit thresholds for
	// hysteresis: an alert holds until burn halves.
	clearFactor = 0.5
)

func (c Config) withDefaults() Config {
	if c.FastWindowNs == 0 {
		c.FastWindowNs = 5 * 60 * 1e9
	}
	if c.SlowWindowNs == 0 {
		c.SlowWindowNs = 60 * 60 * 1e9
	}
	if c.BucketNs == 0 {
		c.BucketNs = 5 * 1e9
	}
	if c.SlowWindowNs < c.FastWindowNs {
		c.SlowWindowNs = c.FastWindowNs
	}
	if c.BucketNs > c.FastWindowNs {
		c.BucketNs = c.FastWindowNs
	}
	if len(c.Objectives) == 0 {
		c.Objectives = DefaultObjectives()
	}
	return c
}

// winBucket is one virtual-time slice of probe outcomes.
type winBucket struct {
	good, bad uint64
}

// classState is one SLO class's live accounting. The bucket ring spans
// the slow window; both window tallies read from it.
type classState struct {
	obj       Objective
	ring      []winBucket
	head      int    // ring index of the current bucket
	headStart uint64 // virtual start of the current bucket
	started   bool

	good, bad uint64 // lifetime
	lat       stats.Histogram

	state   State
	sinceNs uint64
	pages   uint64 // lifetime ok/warn → page transitions
	warns   uint64
}

// Plane is one cell's health plane: the SLO engine plus prober
// bookkeeping. Safe for concurrent use.
type Plane struct {
	cfg Config
	now NowFunc

	mu      sync.Mutex
	classes map[string]*classState
	order   []string
	targets map[string]*targetState
	torder  []string
	rounds  uint64
}

// targetState tracks availability per probe target (replica/transport
// combination), the "which path is failing" drill-down under a class
// alert.
type targetState struct {
	good, bad uint64
}

// NewPlane builds a health plane on the given virtual clock.
func NewPlane(cfg Config, now NowFunc) *Plane {
	cfg = cfg.withDefaults()
	p := &Plane{
		cfg:     cfg,
		now:     now,
		classes: make(map[string]*classState),
		targets: make(map[string]*targetState),
	}
	n := int(cfg.SlowWindowNs/cfg.BucketNs) + 1
	for _, obj := range cfg.Objectives {
		p.classes[obj.Class] = &classState{obj: obj, ring: make([]winBucket, n)}
		p.order = append(p.order, obj.Class)
	}
	return p
}

// Config returns the resolved configuration.
func (p *Plane) Config() Config { return p.cfg }

// advance rotates the ring so the current bucket covers now, zeroing any
// buckets skipped since the last sample. Caller holds p.mu.
func (c *classState) advance(now, bucketNs uint64) {
	if !c.started {
		c.headStart = now - now%bucketNs
		c.started = true
		return
	}
	if now < c.headStart {
		return // virtual clock cannot go backwards; tolerate anyway
	}
	steps := (now - c.headStart) / bucketNs
	if steps == 0 {
		return
	}
	if steps >= uint64(len(c.ring)) {
		for i := range c.ring {
			c.ring[i] = winBucket{}
		}
		c.head = 0
		c.headStart = now - now%bucketNs
		return
	}
	for i := uint64(0); i < steps; i++ {
		c.head = (c.head + 1) % len(c.ring)
		c.ring[c.head] = winBucket{}
		c.headStart += bucketNs
	}
}

// tally sums the most recent windowNs of outcomes. Caller holds p.mu and
// has advanced the ring.
func (c *classState) tally(windowNs, bucketNs uint64) (good, bad uint64) {
	nb := int(windowNs / bucketNs)
	if nb < 1 {
		nb = 1
	}
	if nb > len(c.ring) {
		nb = len(c.ring)
	}
	for i := 0; i < nb; i++ {
		b := c.ring[(c.head-i+len(c.ring))%len(c.ring)]
		good += b.good
		bad += b.bad
	}
	return good, bad
}

// burn converts a window tally into a burn rate: bad fraction divided by
// the error budget. An empty window burns nothing.
func burn(good, bad uint64, availability float64) float64 {
	total := good + bad
	if total == 0 || bad == 0 {
		return 0
	}
	budget := 1 - availability
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(bad) / float64(total)) / budget
}

// Record lands one probe outcome in its class windows. failed marks an op
// error; a slow success (above the class latency threshold) is also
// budget-bad. Unknown classes are dropped.
func (p *Plane) Record(class string, ns uint64, failed bool) {
	now := p.now()
	p.mu.Lock()
	c, ok := p.classes[class]
	if !ok {
		p.mu.Unlock()
		return
	}
	c.advance(now, p.cfg.BucketNs)
	bad := failed || ns > c.obj.LatencyNs
	if bad {
		c.bad++
		c.ring[c.head].bad++
	} else {
		c.good++
		c.ring[c.head].good++
	}
	p.mu.Unlock()
	if !failed {
		c.lat.Record(ns) // histogram is internally synchronized
	}
}

// recordTarget lands one probe outcome against a prober target.
func (p *Plane) recordTarget(name string, failed bool) {
	p.mu.Lock()
	t, ok := p.targets[name]
	if !ok {
		t = &targetState{}
		p.targets[name] = t
		p.torder = append(p.torder, name)
	}
	if failed {
		t.bad++
	} else {
		t.good++
	}
	p.mu.Unlock()
}

// Observer returns a recorder of completed ops that feeds this plane,
// tagging availability by probe target. The prober records each canary op
// through it.
func (p *Plane) Observer(target string) func(kind trace.Kind, transport trace.Transport, ns uint64, err error) {
	return func(kind trace.Kind, transport trace.Transport, ns uint64, err error) {
		p.Record(kind.String(), ns, err != nil)
		p.recordTarget(target, err != nil)
	}
}

// RecordViolation charges one correctness violation (wrong value read,
// CAS lost against its own expected version) to a class: availability is
// meaningless if the data is wrong.
func (p *Plane) RecordViolation(class string) {
	p.Record(class, 0, true)
}

// nextState applies the alert state machine with hysteresis: entering a
// severity requires both windows above the enter threshold; leaving it
// requires either window below clearFactor × that threshold. The fast
// window recovers within FastWindowNs of a heal, so a page deterministically
// clears well inside one slow window.
func nextState(cur State, bf, bs float64) State {
	pageEnter := bf >= pageBurn && bs >= pageBurn
	pageHold := bf >= pageBurn*clearFactor && bs >= pageBurn*clearFactor
	warnEnter := bf >= warnBurn && bs >= warnBurn
	warnHold := bf >= warnBurn*clearFactor && bs >= warnBurn*clearFactor
	switch cur {
	case Page:
		if pageHold {
			return Page
		}
		if warnHold {
			return Warn
		}
		return Ok
	case Warn:
		if pageEnter {
			return Page
		}
		if warnHold {
			return Warn
		}
		return Ok
	default:
		if pageEnter {
			return Page
		}
		if warnEnter {
			return Warn
		}
		return Ok
	}
}

// ClassStatus is one class's evaluated SLO state.
type ClassStatus struct {
	Class        string
	Availability float64 // objective
	LatencyNs    uint64  // objective
	State        State
	SinceNs      uint64 // virtual instant of the last state change
	FastBurn     float64
	SlowBurn     float64
	WindowGood   uint64 // slow-window tallies
	WindowBad    uint64
	Good         uint64 // lifetime
	Bad          uint64
	ProbeP50Ns   uint64
	ProbeP99Ns   uint64
	Pages        uint64
	Warns        uint64
}

// TargetStatus is one probe target's lifetime availability.
type TargetStatus struct {
	Name      string
	Good, Bad uint64
}

// Snapshot is the health plane's evaluated state: the MethodHealth
// payload.
type Snapshot struct {
	GeneratedNs uint64 // virtual generation instant
	Rounds      uint64 // prober rounds completed
	Classes     []ClassStatus
	Targets     []TargetStatus
}

// Worst returns the most severe class state.
func (s Snapshot) Worst() State {
	w := Ok
	for _, c := range s.Classes {
		if c.State > w {
			w = c.State
		}
	}
	return w
}

// Class returns the named class status, or ok=false.
func (s Snapshot) Class(name string) (ClassStatus, bool) {
	for _, c := range s.Classes {
		if c.Class == name {
			return c, true
		}
	}
	return ClassStatus{}, false
}

// Evaluate advances every class to the current virtual instant, applies
// the burn-rate state machine, and returns the snapshot. Alert states
// only move when Evaluate runs — the prober evaluates after every round,
// so the signal tracks probe cadence.
func (p *Plane) Evaluate() Snapshot {
	now := p.now()
	s := Snapshot{GeneratedNs: now}
	p.mu.Lock()
	s.Rounds = p.rounds
	for _, name := range p.order {
		c := p.classes[name]
		c.advance(now, p.cfg.BucketNs)
		fg, fb := c.tally(p.cfg.FastWindowNs, p.cfg.BucketNs)
		sg, sb := c.tally(p.cfg.SlowWindowNs, p.cfg.BucketNs)
		bf := burn(fg, fb, c.obj.Availability)
		bs := burn(sg, sb, c.obj.Availability)
		next := nextState(c.state, bf, bs)
		if next != c.state {
			if next == Page {
				c.pages++
			} else if next == Warn && c.state == Ok {
				c.warns++
			}
			c.state = next
			c.sinceNs = now
		}
		lat := c.lat.Snapshot()
		s.Classes = append(s.Classes, ClassStatus{
			Class:        name,
			Availability: c.obj.Availability,
			LatencyNs:    c.obj.LatencyNs,
			State:        c.state,
			SinceNs:      c.sinceNs,
			FastBurn:     bf,
			SlowBurn:     bs,
			WindowGood:   sg,
			WindowBad:    sb,
			Good:         c.good,
			Bad:          c.bad,
			ProbeP50Ns:   lat.Percentile(50),
			ProbeP99Ns:   lat.Percentile(99),
			Pages:        c.pages,
			Warns:        c.warns,
		})
	}
	for _, name := range p.torder {
		t := p.targets[name]
		s.Targets = append(s.Targets, TargetStatus{Name: name, Good: t.good, Bad: t.bad})
	}
	p.mu.Unlock()
	return s
}

// noteRound counts one completed prober round.
func (p *Plane) noteRound() {
	p.mu.Lock()
	p.rounds++
	p.mu.Unlock()
}
