package proto

import (
	"cliquemap/internal/fabric"
	"cliquemap/internal/stats"
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

// Marshal encodes the request.
func (r DebugReq) Marshal() []byte { return wire.Marshal(r) }

// UnmarshalDebugReq decodes the request.
func UnmarshalDebugReq(b []byte) (DebugReq, error) { return decode[DebugReq](b) }

// DebugHist summarizes one kind/transport latency histogram. SumNs and
// Buckets (added after initial deployment — additive tags, absent from
// old senders) carry the raw log-linear distribution so a fleet
// aggregator can merge per-cell histograms into true fleet percentiles
// instead of averaging quantiles. A received frame keeps at most
// stats.NumBuckets buckets: a histogram has no more.
type DebugHist struct {
	Kind      string             `wire:"1"`
	Transport string             `wire:"2"`
	Count     uint64             `wire:"3"`
	MeanNs    uint64             `wire:"4"`
	P50Ns     uint64             `wire:"5"`
	P90Ns     uint64             `wire:"6"`
	P99Ns     uint64             `wire:"7"`
	P999Ns    uint64             `wire:"8"`
	MaxNs     uint64             `wire:"9"`
	SumNs     uint64             `wire:"10"`
	Buckets   []stats.HistBucket `wire:"11,max=1024"`
}

// DebugCPU is one component's CPU account.
type DebugCPU struct {
	Component string `wire:"1"`
	TotalNs   uint64 `wire:"2"`
	Ops       uint64 `wire:"3"`
}

// DebugOp is one retained op trace. A received frame keeps at most
// trace.MaxWireSpans spans.
type DebugOp struct {
	ID        uint64        `wire:"1"`
	Kind      string        `wire:"2"`
	Transport string        `wire:"3"`
	Attempts  uint32        `wire:"4"`
	Ns        uint64        `wire:"5"`
	Bytes     uint64        `wire:"6"`
	WallNs    int64         `wire:"7,zigzag"`
	Spans     []fabric.Span `wire:"8,max=4096"`
}

// DebugHazard is one chaos hazard class's injection count.
type DebugHazard struct {
	Name  string `wire:"1"`
	Count uint64 `wire:"2"`
}

// DebugHealth is one backend's client-observed health gauge. Score
// travels in milli-units (0..1000) to stay integer on the wire.
type DebugHealth struct {
	Addr       string `wire:"1"`
	ScoreMilli uint64 `wire:"2"`
	Demoted    bool   `wire:"3,omitzero"`
}

// DebugHotKey is one entry of the backend's space-saving top-k sketch:
// an (over-)estimated access count and the bound on the over-estimate
// (≤ N/k), so consumers can judge how trustworthy the ranking is.
type DebugHotKey struct {
	Key   string `wire:"1"`
	Count uint64 `wire:"2"`
	Err   uint64 `wire:"3"`
}

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

// Marshal encodes the snapshot.
func (r DebugResp) Marshal() []byte { return wire.Marshal(r) }

// UnmarshalDebugResp decodes the snapshot.
func UnmarshalDebugResp(b []byte) (DebugResp, error) { return decode[DebugResp](b) }
