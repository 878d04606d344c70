package client

// Access reporting (§4.2): one-sided reads never run backend code, so the
// client reports the keys of its hits back to each cohort member, to feed
// eviction and the hot-key sketch. A record rides the next mutation leg to
// its backend (mutateOnce); a queue that fills with no mutation headed its
// way flushes as a Touch RPC.

import (
	"context"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/trace"
	"cliquemap/internal/wire"
)

// touchQueue is one backend's pending access records, kept as the TouchReq
// that will report them: a hit appends its key to the encoding, and
// takeTouches lends it out as it stands and restarts it in place.
type touchQueue struct {
	enc wire.Encoder
	n   int // keys in enc
}

// takeTouches lends use the access records queued for addr, as the encoded
// TouchReq that reports them, and restarts the queue in the same storage,
// so use must copy them. It does nothing when none are queued. use runs
// under c.mu: a record is taken by one leg or flush, and only once.
func (c *Client) takeTouches(addr string, use func(records []byte)) {
	if c.opt.TouchBatch <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if q := c.touchQ[addr]; q != nil && q.n > 0 {
		use(q.enc.Encoded())
		q.enc.InitAppend(q.enc.Encoded()[:0])
		q.n = 0
	}
}

// noteTouch queues an access record for the key, of hash h, for its cohort
// and flushes the queues it filled, under ctx, the GET's caller's — unless
// hold: a batch's keys sit in its pinned window, so GetBatch flushes after
// them.
func (c *Client) noteTouch(ctx context.Context, key []byte, h hashring.KeyHash, hold bool) {
	if c.opt.TouchBatch <= 0 {
		return
	}
	full := false
	c.mu.Lock()
	cfg := c.cfg
	var cohort [config.MaxReplicas]int
	for _, shard := range cfg.AppendCohort(cohort[:0], int(h.Hi%uint64(cfg.Shards))) {
		addr := cfg.AddrFor(shard)
		if addr == "" {
			continue
		}
		q := c.touchQ[addr]
		if q == nil {
			q = new(touchQueue)
			q.enc.InitAppend(nil)
			c.touchQ[addr] = q
		}
		proto.AppendTouchKey(&q.enc, key)
		q.n++
		full = full || q.n >= c.opt.TouchBatch
	}
	c.mu.Unlock()
	if full && !hold {
		c.flushTouches(ctx, c.opt.TouchBatch)
	}
}

// FlushTouches force-flushes all pending access records.
func (c *Client) FlushTouches(ctx context.Context) { c.flushTouches(ctx, 1) }

// flushTouches sends every queue holding at least atLeast records. A batch
// whose ctx has ended is dropped, as a failed one is: records are hints.
func (c *Client) flushTouches(ctx context.Context, atLeast int) {
	due := make([]string, 0, 8)
	c.mu.Lock()
	for addr, q := range c.touchQ {
		if q.n >= atLeast {
			due = append(due, addr)
		}
	}
	c.mu.Unlock()
	for _, addr := range due {
		c.sendTouches(ctx, addr)
	}
}

// sendTouches reports addr's queued access records as a Touch RPC. The
// request is copied into, and the ack appended to, a leased op record's
// arena, lent through its context node, which arms no spans. A failed
// report is dropped: records are hints.
func (c *Client) sendTouches(ctx context.Context, addr string) {
	op := c.ops.Take()
	defer c.ops.Put(op)
	op.Init(ctx, trace.SpanContext{})
	var req []byte
	c.takeTouches(addr, func(records []byte) { req = op.Keep(append(op.Free(), records...)) })
	if req == nil {
		return // a mutation leg took them first
	}
	// A flush is no caller's op: its leg lands in the record's span
	// buffer, which nothing reads.
	x := legExec{c: c, ctx: &op.OpContext, op: op, tr: fabric.OpTrace{Spans: op.Spans[:0]}}
	l := x.start(legTouch, member{rep: replica{addr: addr}, method: proto.MethodTouch, req: req}, 0)
	x.wait(&l)
}
