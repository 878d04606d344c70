package proto

import (
	"cliquemap/internal/wire"
)

// The Tier method ships the federation router's view of the weighted
// consistent-hash ring — member cells, live vs base weights, alert-driven
// demotion state, and exact ownership shares — to remote tooling
// (cmstat -tier). Like MethodHealth it is additive: backends outside a
// tier answer an empty TierResp and tooling reports "not in a tier";
// pre-tier servers answer ErrNoSuchMethod and tooling degrades.
//
// Fractions travel integer-only per the wire conventions: weights in
// milli-units, ownership shares in parts-per-million.

// TierReq requests a tier routing snapshot. Currently empty; fields are
// additive.
type TierReq struct{}

// Marshal encodes the request.
func (r TierReq) Marshal() []byte { return wire.Append(nil, &r) }

// TierCell is one member cell's routing state.
type TierCell struct {
	Name        string `wire:"1"`
	WeightMilli uint64 `wire:"2"`          // live routing weight × 1000
	BaseMilli   uint64 `wire:"3"`          // configured weight × 1000 (pre-demotion)
	State       string `wire:"4"`          // health alert state driving the weight: "ok" | "warn" | "page" | "dead"
	Demoted     bool   `wire:"5,omitzero"` // router is holding the weight below base
	OwnedPpm    uint64 `wire:"6"`          // exact keyspace share from ring arcs, parts-per-million
}

// TierResp is the router's ring snapshot. RingVersion increments on every
// rebuild (re-weight, demotion, death), so tooling can tell two
// structurally identical tables apart and clients can cheaply detect
// ownership churn.
type TierResp struct {
	RingVersion uint64     `wire:"1"`
	Vnodes      uint64     `wire:"2"` // virtual nodes per unit weight
	Cells       []TierCell `wire:"3"`
}

// Marshal encodes the snapshot; UnmarshalTierResp decodes it.
func (r TierResp) Marshal() []byte                       { return wire.Append(nil, &r) }
func UnmarshalTierResp(b []byte) (r TierResp, err error) { err = wire.Decode(b, &r); return }
