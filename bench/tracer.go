package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"cliquemap/internal/core/client"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// The traced run records a span at each layer boundary the benchmark can
// reach from its own files: the public client call (the op, root of its
// tree), and below it every call the client makes through its two
// injectable seams — nic.RMA (Read, ScanAndRead) and rpc.Caller (Call).
// One caller goroutine issues everything, including the client's touch
// flushes, so the recorder needs no locks.

type spanName uint8

const (
	spanOp spanName = iota
	spanNICRead
	spanNICScar
	spanRPCCall
	numSpanNames
)

var spanNames = [numSpanNames]string{"op", "nic.read", "nic.scar", "rpc.call"}

// span is one recorded interval. Times are ns since the recorder's epoch;
// parent indexes the op's own span in the same slice, -1 for an op.
type span struct {
	name       spanName
	start, end int64
	parent     int32
	op         uint32
}

// keepOps caps how many ops' spans are kept for the artefact; the sums
// below cover every op of the traced window regardless.
const keepOps = 50_000

// legSums accumulates, for one span name under one kind of op, the counts
// and real-clock time recorded at that boundary.
type legSums struct {
	calls  uint64
	ns     int64
	errors uint64
}

// opSums accumulates per op kind (GETs apart from mutations, because their
// legs differ).
type opSums struct {
	ops     uint64
	ns      int64 // Σ op span
	childNs int64 // Σ of the op's child spans
	legs    [numSpanNames]legSums
}

// modelSums is the modelled-clock side, taken from the fabric.OpTrace each
// leg and each public *Traced call returns: virtual ns, never real time.
type modelSums struct {
	wireBytes uint64
	// Critical-path annotations the client puts on the op trace.
	quorumWaitNs, retryNs uint64
	// Work across all legs of all ops, by where the model spent it. Legs of
	// one op overlap, so these add up to the legs' total, not the latency.
	fabricNs, engineNs, hwNs, rpcClientNs, rpcServerNs, rpcQueueNs uint64
}

type recorder struct {
	on    bool
	epoch time.Time
	spans []span

	opID    uint32
	opIdx   int32 // index of the open op's span in spans, -1 if not kept
	opStart int64
	opGet   bool
	childNs int64

	sums  [2]opSums // [0] GETs, [1] mutations
	model modelSums

	nicBytes, valueBytes      uint64 // bytes fetched over nic.RMA / value bytes handed to the caller
	rpcReqBytes, rpcRespBytes uint64
	nicLegsInGets, rpcInMuts  uint64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, keepOps*8), opIdx: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) cur() *opSums {
	if r.opGet {
		return &r.sums[0]
	}
	return &r.sums[1]
}

func (r *recorder) beginOp(k opKind) {
	r.opID++
	r.opGet = k == opGet
	r.childNs = 0
	r.opIdx = -1
	r.opStart = r.now()
	if r.opID <= keepOps {
		r.opIdx = int32(len(r.spans))
		r.spans = append(r.spans, span{name: spanOp, start: r.opStart, parent: -1, op: r.opID})
	}
}

// endOp closes the op span and folds the op's modelled trace in.
func (r *recorder) endOp(tr fabric.OpTrace, valueBytes int) {
	end := r.now()
	if r.opIdx >= 0 {
		r.spans[r.opIdx].end = end
	}
	s := r.cur()
	s.ops++
	s.ns += end - r.opStart
	s.childNs += r.childNs
	r.valueBytes += uint64(valueBytes)
	r.model.wireBytes += tr.Bytes
	for _, sp := range tr.Spans {
		switch sp.Code {
		case trace.SpanQuorumWait:
			r.model.quorumWaitNs += sp.Dur
		case trace.SpanRetry, trace.SpanBackoff:
			r.model.retryNs += sp.Dur
		}
	}
}

// leg records one child span of the open op.
func (r *recorder) leg(name spanName, start int64, tr fabric.OpTrace, err error) {
	end := r.now()
	r.childNs += end - start
	l := &r.cur().legs[name]
	l.calls++
	l.ns += end - start
	if err != nil {
		l.errors++
	}
	if r.opIdx >= 0 {
		r.spans = append(r.spans, span{name: name, start: start, end: end, parent: r.opIdx, op: r.opID})
	}

	var attributed uint64
	for _, sp := range tr.Spans {
		switch sp.Code {
		case trace.SpanEngineIssue, trace.SpanEngineService, trace.SpanEngineRecv:
			r.model.engineNs += sp.Dur
		case trace.SpanHWService, trace.SpanCStateWake:
			r.model.hwNs += sp.Dur
		case trace.SpanRPCClient:
			r.model.rpcClientNs += sp.Dur
		case trace.SpanRPCServer:
			r.model.rpcServerNs += sp.Dur
		case trace.SpanRPCQueue:
			r.model.rpcQueueNs += sp.Dur
		case trace.SpanFabric:
			r.model.fabricNs += sp.Dur
		default:
			continue // annotations (stripe wait) are not on the leg's path
		}
		attributed += sp.Dur
	}
	// The NICs bill fabric deliveries onto the path without a span of
	// their own: what the leg's spans do not cover is fabric time.
	if name != spanRPCCall && tr.Ns > attributed {
		r.model.fabricNs += tr.Ns - attributed
	}
}

// wrapRMA decorates a one-sided connection. With the recorder off the
// decorator forwards and does nothing else.
func (r *recorder) wrapRMA(inner nic.RMA) nic.RMA { return &tracedRMA{inner: inner, rec: r} }

type tracedRMA struct {
	inner nic.RMA
	rec   *recorder
}

func (t *tracedRMA) SupportsScar() bool { return t.inner.SupportsScar() }

func (t *tracedRMA) Read(at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	if !t.rec.on {
		return t.inner.Read(at, win, off, length)
	}
	start := t.rec.now()
	data, tr, err := t.inner.Read(at, win, off, length)
	t.rec.leg(spanNICRead, start, tr, err)
	t.rec.nicBytes += uint64(len(data))
	if t.rec.opGet {
		t.rec.nicLegsInGets++
	}
	return data, tr, err
}

func (t *tracedRMA) ScanAndRead(at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (nic.ScarResult, fabric.OpTrace, error) {
	if !t.rec.on {
		return t.inner.ScanAndRead(at, idxWin, bucketOff, bucketLen, hash, ways)
	}
	start := t.rec.now()
	res, tr, err := t.inner.ScanAndRead(at, idxWin, bucketOff, bucketLen, hash, ways)
	t.rec.leg(spanNICScar, start, tr, err)
	t.rec.nicBytes += uint64(len(res.Bucket) + len(res.Data))
	if t.rec.opGet {
		t.rec.nicLegsInGets++
	}
	return res, tr, err
}

// wrapCaller decorates the client's RPC surface (in-process or TCP).
func (r *recorder) wrapCaller(inner rpc.Caller) rpc.Caller {
	return &tracedCaller{inner: inner, rec: r}
}

type tracedCaller struct {
	inner rpc.Caller
	rec   *recorder
}

func (t *tracedCaller) Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	if !t.rec.on {
		return t.inner.Call(ctx, addr, method, req)
	}
	start := t.rec.now()
	resp, tr, err := t.inner.Call(ctx, addr, method, req)
	t.rec.leg(spanRPCCall, start, tr, err)
	t.rec.rpcReqBytes += uint64(len(req))
	t.rec.rpcRespBytes += uint64(len(resp))
	if !t.rec.opGet {
		t.rec.rpcInMuts++
	}
	return resp, tr, err
}

// tracedKV is the driver-side decorator: it opens the op span around the
// public *Traced call, which also hands back the op's modelled trace.
type tracedKV struct {
	cl  *client.Client
	rec *recorder
}

func (t tracedKV) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	t.rec.beginOp(opGet)
	v, found, tr, err := t.cl.GetTraced(ctx, key)
	t.rec.endOp(tr, len(v))
	return v, found, err
}

func (t tracedKV) SetVersioned(ctx context.Context, key, value []byte) (truetime.Version, error) {
	t.rec.beginOp(opSet)
	ver, tr, err := t.cl.SetVersionedTraced(ctx, key, value)
	t.rec.endOp(tr, 0)
	return ver, err
}

func (t tracedKV) Cas(ctx context.Context, key, value []byte, expected truetime.Version) (bool, error) {
	t.rec.beginOp(opCas)
	applied, tr, err := t.cl.CasTraced(ctx, key, value, expected)
	t.rec.endOp(tr, 0)
	return applied, err
}

func (t tracedKV) Erase(ctx context.Context, key []byte) error {
	t.rec.beginOp(opErase)
	tr, err := t.cl.EraseTraced(ctx, key)
	t.rec.endOp(tr, 0)
	return err
}

// artefactSpan is the on-disk form of a span.
type artefactSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     uint32 `json:"op"`
}

// writeArtefact dumps the kept spans and the per-layer summary, after the
// run, to bench/out/<workload>.trace.json.
func (r *recorder) writeArtefact(workload string, summary map[string]metric) error {
	out := struct {
		Workload string            `json:"workload"`
		KeptOps  int               `json:"kept_ops"`
		Summary  map[string]metric `json:"per_layer"`
		Spans    []artefactSpan    `json:"spans"`
	}{Workload: workload, KeptOps: int(min(r.opID, keepOps)), Summary: summary, Spans: make([]artefactSpan, len(r.spans))}
	for i, s := range r.spans {
		out.Spans[i] = artefactSpan{spanNames[s.name], s.start, s.end, s.parent, s.op}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
