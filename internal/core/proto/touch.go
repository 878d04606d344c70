package proto

// Access records (§4.2): the keys of a client's one-sided hits, reported
// to each cohort member by a Touch RPC (acked with an Ack) or carried by
// a mutation leg (SetReq.Touches), to feed eviction and the heat sketch.

import "cliquemap/internal/wire"

// TouchReq is the batched access-record report clients send so backends
// can run recency-based eviction despite never seeing RMA GETs (§4.2).
type TouchReq struct {
	Keys [][]byte `wire:"1"`
}

// Marshal encodes the request; UnmarshalTouchReq decodes it, Keys aliasing b.
func (r TouchReq) Marshal() []byte                       { return wire.Append(nil, &r) }
func UnmarshalTouchReq(b []byte) (r TouchReq, err error) { err = wire.Decode(b, &r); return }

// AppendTouchKey adds one access record to the TouchReq being encoded in e:
// a client keeps its pending records as the request that will report them.
func AppendTouchKey(e *wire.Encoder, key []byte) { e.Bytes(1, key) }

// RangeTouchKeys calls fn with each access record of the encoded TouchReq
// b, in order, as a view of b: the handler walks its request where it lies
// and keeps only what it copies.
func RangeTouchKeys(b []byte, fn func(key []byte)) error {
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return err
	}
	for d.Next() {
		if d.Tag() == 1 {
			fn(d.Bytes())
		}
	}
	return d.Err()
}
