package proto

// Decoders of the two empty requests: no handler reads its request body,
// so only the golden-frame and differential tables need them.

func UnmarshalHealthReq(b []byte) (HealthReq, error) { return decode[HealthReq](b) }

func UnmarshalTierReq(b []byte) (TierReq, error) { return decode[TierReq](b) }
