package client

// Access reporting (§4.2): one-sided reads never run backend code, so the
// client batches access records back over RPC to feed eviction and the
// hot-key sketch.

import (
	"context"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/wire"
)

// touchQueue is one backend's pending access records, kept as the TouchReq
// that will report them: a hit appends its key to the encoding and a flush
// sends the buffer as it stands. A flushed batch's storage comes back as
// spare once its RPC has returned (the request is the callee's only until
// then), so a steady stream of hits allocates nothing.
type touchQueue struct {
	enc   wire.Encoder
	n     int // keys in enc
	spare []byte
}

// touchBatch is a batch on its way out, and the queue its storage returns to.
type touchBatch struct {
	addr string
	q    *touchQueue
	req  []byte
}

// take hands the queued records over and restarts the queue in the spare.
func (q *touchQueue) take(addr string) touchBatch {
	b := touchBatch{addr: addr, q: q, req: q.enc.Encoded()}
	q.enc.InitAppend(q.spare[:0])
	q.n, q.spare = 0, nil
	return b
}

// noteTouch queues an access record for the key's cohort and flushes the
// queues it filled (§4.2's batched background reporting) — unless hold: a
// batch's keys sit in its pinned window, so GetBatch flushes after them.
func (c *Client) noteTouch(key []byte, hold bool) {
	if c.opt.TouchBatch <= 0 {
		return
	}
	full := false
	c.mu.Lock()
	cfg := c.cfg
	h := c.opt.Hash(key)
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
		c.flushTouches(context.Background(), c.opt.TouchBatch)
	}
}

// FlushTouches force-flushes all pending access records.
func (c *Client) FlushTouches(ctx context.Context) { c.flushTouches(ctx, 1) }

// flushTouches sends every queue holding at least atLeast records.
func (c *Client) flushTouches(ctx context.Context, atLeast int) {
	pending := make([]touchBatch, 0, 8)
	c.mu.Lock()
	for addr, q := range c.touchQ {
		if q.n >= atLeast {
			pending = append(pending, q.take(addr))
		}
	}
	c.mu.Unlock()
	for _, b := range pending {
		c.sendTouches(ctx, b)
	}
}

// sendTouches reports one batch of access records and folds the ack's
// piggybacked promotion set into the client's hot-key view (§4.2 made
// bidirectional): the same traffic that feeds the server's heat sketch
// carries its promotion decisions back.
func (c *Client) sendTouches(ctx context.Context, b touchBatch) {
	resp, _, err := c.call(ctx, nil, b.addr, proto.MethodTouch, b.req)
	c.mu.Lock()
	if b.q.spare == nil {
		b.q.spare = b.req
	}
	c.mu.Unlock()
	if err != nil {
		return
	}
	if tr, terr := proto.UnmarshalTouchResp(resp); terr == nil {
		c.ingestPromo(b.addr, tr.HotEpoch, tr.HotKeys)
	}
}
