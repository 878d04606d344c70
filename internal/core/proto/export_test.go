package proto

import "cliquemap/internal/wire"

// Decoders of the two empty requests: no handler reads its request body,
// so only the golden-frame and differential tables need them.

func UnmarshalHealthReq(b []byte) (r HealthReq, err error) { err = wire.Decode(b, &r); return }

func UnmarshalTierReq(b []byte) (r TierReq, err error) { err = wire.Decode(b, &r); return }
