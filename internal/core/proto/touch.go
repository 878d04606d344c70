package proto

// Access records (§4.2): the keys of a client's one-sided hits, reported
// to each cohort member by a Touch RPC or carried by a mutation leg
// (SetReq.Touches and kin), and the promotion set their acks return.

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
func RangeTouchKeys(b []byte, fn func(key []byte)) error { return rangeBytes(b, 1, fn) }

// rangeBytes calls fn with each tag field of the message b, in order, as a
// view of b.
func rangeBytes(b []byte, tag uint64, fn func(v []byte)) error {
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return err
	}
	for d.Next() {
		if d.Tag() == tag {
			fn(d.Bytes())
		}
	}
	return d.Err()
}

// TouchResp acknowledges a batched access-record report and piggybacks
// the backend's hot-key promotion set (its keys and the epoch naming it):
// the feed clients learn promotion from. Additive: pre-promotion servers
// answered a bare Ack (an empty frame), which decodes as epoch 0 with no
// keys, and pre-promotion clients ignore the body entirely.
type TouchResp struct {
	HotEpoch uint64   `wire:"1,omitzero"`
	HotKeys  [][]byte `wire:"2"`
}

// AppendTo appends the encoded response to b; Marshal is AppendTo(nil).
// UnmarshalTouchResp decodes it; HotKeys alias b.
func (r TouchResp) AppendTo(b []byte) []byte               { return wire.Append(b, &r) }
func (r TouchResp) Marshal() []byte                        { return r.AppendTo(nil) }
func UnmarshalTouchResp(b []byte) (r TouchResp, err error) { err = wire.Decode(b, &r); return }

// TouchRespEpoch returns the HotEpoch of the encoded TouchResp b, and
// RangeHotKeys calls fn with each of its promoted keys, in order, as a view
// of b: a client reads the epoch and walks the keys only when it changed.
func TouchRespEpoch(b []byte) (epoch uint64, err error) {
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return 0, err
	}
	for d.Next() {
		if d.Tag() == 1 {
			epoch = d.Uint()
		}
	}
	return epoch, d.Err()
}

func RangeHotKeys(b []byte, fn func(key []byte)) error { return rangeBytes(b, 2, fn) }
