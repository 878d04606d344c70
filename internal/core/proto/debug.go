package proto

import (
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
	"cliquemap/internal/wire"
)

// The Debug method ships a backend's tracer snapshot — per-kind ×
// per-transport latency summaries, CPU accounts, retained slow-op traces,
// and reservoir exemplars — to remote tooling (cmstat -trace). Like
// MethodStats it is additive: old servers answer ErrNoSuchMethod.
//
// Kinds and transports travel as their display strings rather than the
// in-process enum values, so the wire contract survives enum renumbering
// and unknown values degrade to readable text.

// DebugReq bounds the reply.
type DebugReq struct {
	// MaxSlow caps the slow-op traces returned; 0 means all retained.
	MaxSlow int `wire:"1"`
}

// Marshal encodes the request; UnmarshalDebugReq decodes it.
func (r DebugReq) Marshal() []byte                       { return wire.Append(nil, &r) }
func UnmarshalDebugReq(b []byte) (r DebugReq, err error) { err = wire.Decode(b, &r); return }

// The snapshot's records are declared — wire tags included — where they
// are produced; these names are the schema's view of them.
type (
	DebugHist   = trace.HistStat      // one kind/transport latency summary
	DebugCPU    = stats.CPURow        // one component's CPU account
	DebugOp     = trace.OpRecord      // one retained op trace
	DebugHazard = trace.HazardCount   // one chaos hazard class's injection count
	DebugHealth = trace.ReplicaHealth // one backend's client-observed health gauge
	DebugHotKey = stats.HotKey        // one entry of the backend's space-saving top-k sketch
)

// DebugResp is the tracer snapshot.
type DebugResp struct {
	OpsTotal        uint64        `wire:"1"`
	SlowTotal       uint64        `wire:"2"`
	SlowThresholdNs uint64        `wire:"3"`
	Hists           []DebugHist   `wire:"4"`
	CPU             []DebugCPU    `wire:"5"`
	SlowOps         []DebugOp     `wire:"6"`
	Exemplars       []DebugOp     `wire:"7"`
	Hazards         []DebugHazard `wire:"8"`
	Health          []DebugHealth `wire:"9"`
	// HotKeys is the backend's heavy-hitter sketch, hottest first;
	// StripeHeat is the per-lock-stripe op count, in stripe order — the
	// key-skew and stripe-imbalance telemetry of the health plane.
	HotKeys    []DebugHotKey `wire:"10"`
	StripeHeat []uint64      `wire:"11"`
}

// Marshal encodes the snapshot; UnmarshalDebugResp decodes it.
func (r DebugResp) Marshal() []byte                        { return wire.Append(nil, &r) }
func UnmarshalDebugResp(b []byte) (r DebugResp, err error) { err = wire.Decode(b, &r); return }
