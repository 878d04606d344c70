package proto

import (
	"cliquemap/internal/health"
	"cliquemap/internal/wire"
)

// The Health method ships the fleet health plane's evaluated SLO state —
// per-op-class burn rates and alert states plus per-probe-target
// availability — to remote tooling (cmstat). Like MethodStats and
// MethodDebug it is additive: old servers answer ErrNoSuchMethod and
// tooling degrades gracefully.
//
// Alert states travel as their health.State strings ("ok"/"warn"/"page")
// and fractional quantities as scaled integers (burn rates in milli-units,
// availability objectives in parts-per-million), keeping the wire
// contract integer-only and enum-renumbering-proof.

// HealthReq requests a health snapshot. It is currently empty; fields are
// additive.
type HealthReq struct{}

// Marshal encodes the request.
func (r HealthReq) Marshal() []byte { return wire.Append(nil, &r) }

// The snapshot's records are declared — wire tags included — where the
// health plane produces them; these names are the schema's view of them.
type (
	HealthClass  = health.ClassStatus  // one op class's evaluated SLO state
	HealthTarget = health.TargetStatus // one probe target's lifetime availability
)

// HealthResp is the health plane snapshot; a health.Snapshot converts to
// it field for field. Tags 5–6 are retired (a
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
