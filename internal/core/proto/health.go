package proto

import (
	"cliquemap/internal/wire"
)

// The Health method ships the fleet health plane's evaluated SLO state —
// per-op-class burn rates and alert states plus per-probe-target
// availability — to remote tooling (cmstat). Like MethodStats and
// MethodDebug it is additive: old servers answer ErrNoSuchMethod and
// tooling degrades gracefully.
//
// Alert states travel as display strings ("ok"/"warn"/"page") and
// fractional quantities as scaled integers (burn rates in milli-units,
// availability objectives in parts-per-million), keeping the wire
// contract integer-only and enum-renumbering-proof.

// HealthReq requests a health snapshot. It is currently empty; fields are
// additive.
type HealthReq struct{}

// Marshal encodes the request.
func (r HealthReq) Marshal() []byte { return wire.Append(nil, &r) }

// HealthClass is one op class's evaluated SLO state.
type HealthClass struct {
	Class           string `wire:"1"`
	State           string `wire:"2"` // "ok" | "warn" | "page"
	SinceNs         uint64 `wire:"3"` // virtual instant of the last state change
	AvailabilityPpm uint64 `wire:"4"` // objective, parts-per-million (999000 = 99.9%)
	LatencyTargetNs uint64 `wire:"5"` // objective latency threshold
	FastBurnMilli   uint64 `wire:"6"` // fast-window burn rate × 1000
	SlowBurnMilli   uint64 `wire:"7"` // slow-window burn rate × 1000
	WindowGood      uint64 `wire:"8"` // slow-window tallies
	WindowBad       uint64 `wire:"9"`
	Good            uint64 `wire:"10"` // lifetime probe outcomes
	Bad             uint64 `wire:"11"`
	ProbeP50Ns      uint64 `wire:"12"`
	ProbeP99Ns      uint64 `wire:"13"`
	Pages           uint64 `wire:"14"`
	Warns           uint64 `wire:"15"`
}

// HealthTarget is one probe target's lifetime availability.
type HealthTarget struct {
	Name string `wire:"1"`
	Good uint64 `wire:"2"`
	Bad  uint64 `wire:"3"`
}

// HealthResp is the health plane snapshot. Tags 5–6 are retired (a
// hot-key promotion piggyback nothing read) and are never reused: older
// servers may still send them, and decoders skip them.
type HealthResp struct {
	GeneratedNs uint64         `wire:"1"` // virtual generation instant
	Rounds      uint64         `wire:"2"` // prober rounds completed
	Classes     []HealthClass  `wire:"3"`
	Targets     []HealthTarget `wire:"4"`
}

// Marshal encodes the snapshot; UnmarshalHealthResp decodes it.
func (r HealthResp) Marshal() []byte                         { return wire.Append(nil, &r) }
func UnmarshalHealthResp(b []byte) (r HealthResp, err error) { err = wire.Decode(b, &r); return }
