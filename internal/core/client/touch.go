package client

// Access reporting (§4.2): one-sided reads never run backend code, so the
// client batches access records back over RPC to feed eviction and the
// hot-key sketch.

import (
	"context"

	"cliquemap/internal/core/proto"
)

// noteTouch queues an access record for the key's primary backend and
// flushes opportunistically (§4.2's batched background reporting).
func (c *Client) noteTouch(key []byte) {
	if c.opt.TouchBatch <= 0 {
		return
	}
	c.mu.Lock()
	cfg := c.cfg
	h := c.opt.Hash(key)
	var flush map[string][][]byte
	for _, shard := range cfg.Cohort(int(h.Hi % uint64(cfg.Shards))) {
		addr := cfg.AddrFor(shard)
		if addr == "" {
			continue
		}
		c.touchQ[addr] = append(c.touchQ[addr], append([]byte(nil), key...))
		if len(c.touchQ[addr]) >= c.opt.TouchBatch {
			if flush == nil {
				flush = map[string][][]byte{}
			}
			flush[addr] = c.touchQ[addr]
			c.touchQ[addr] = nil
		}
	}
	c.mu.Unlock()
	for addr, keys := range flush {
		c.sendTouches(context.Background(), addr, keys)
	}
}

// FlushTouches force-flushes all pending access records.
func (c *Client) FlushTouches(ctx context.Context) {
	c.mu.Lock()
	pending := c.touchQ
	c.touchQ = make(map[string][][]byte)
	c.mu.Unlock()
	for addr, keys := range pending {
		if len(keys) == 0 {
			continue
		}
		c.sendTouches(ctx, addr, keys)
	}
}

// sendTouches reports one batch of access records and folds the ack's
// piggybacked promotion set into the client's hot-key view (§4.2 made
// bidirectional): the same traffic that feeds the server's heat sketch
// carries its promotion decisions back.
func (c *Client) sendTouches(ctx context.Context, addr string, keys [][]byte) {
	resp, _, err := c.rpcc.Call(ctx, addr, proto.MethodTouch, proto.TouchReq{Keys: keys}.Marshal())
	if err != nil {
		return
	}
	if tr, terr := proto.UnmarshalTouchResp(resp); terr == nil {
		c.ingestPromo(addr, tr.HotEpoch, tr.HotKeys)
	}
}
