package proto

import (
	"bytes"
	"reflect"
	"testing"

	"cliquemap/internal/fabric"
	"cliquemap/internal/stats"
	"cliquemap/internal/truetime"
	"cliquemap/internal/wire"
)

// MethodHealth and the heat extensions of MethodDebug are decoded by
// remote tooling (cmstat) straight off the gateway socket; malformed
// frames — truncated nested messages, absurd varints, garbage strings —
// must never panic the decoders, only error or degrade to zero values.

func TestHealthRespRoundTrip(t *testing.T) {
	in := HealthResp{
		GeneratedNs: 12345,
		Rounds:      7,
		Classes: []HealthClass{
			{Class: "GET", State: "page", SinceNs: 99, AvailabilityPpm: 999000,
				LatencyTargetNs: 1_000_000, FastBurnMilli: 14400, SlowBurnMilli: 14400,
				WindowGood: 10, WindowBad: 5, Good: 100, Bad: 6,
				ProbeP50Ns: 7000, ProbeP99Ns: 70000, Pages: 2, Warns: 1},
			{Class: "SET", State: "ok"},
		},
		Targets: []HealthTarget{{Name: "2xR", Good: 50, Bad: 1}, {Name: "RPC", Good: 49}},
	}
	out, err := UnmarshalHealthResp(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n in  %+v\n out %+v", in, out)
	}
}

func TestDebugRespHeatRoundTrip(t *testing.T) {
	in := DebugResp{
		HotKeys:    []DebugHotKey{{Key: "k0", Count: 100, Err: 3}, {Key: "\x00probe/x", Count: 2}},
		StripeHeat: []uint64{5, 0, 17, 9},
	}
	out, err := UnmarshalDebugResp(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.HotKeys, out.HotKeys) || !reflect.DeepEqual(in.StripeHeat, out.StripeHeat) {
		t.Errorf("round trip:\n in  %+v\n out %+v", in, out)
	}
}

func FuzzHealthResp(f *testing.F) {
	f.Add(HealthResp{GeneratedNs: 1, Rounds: 2,
		Classes: []HealthClass{{Class: "GET", State: "warn", FastBurnMilli: 3000}},
		Targets: []HealthTarget{{Name: "SCAR", Good: 9, Bad: 1}},
	}.Marshal())
	// A class whose nested fields are hostile: non-UTF8 state, maxed
	// varints, and an extra unknown tag (forward compatibility).
	e := wire.NewEncoder()
	e.Uint(1, ^uint64(0))
	bad := wire.NewRawEncoder()
	bad.String(1, "\xff\xfeGET")
	bad.String(2, "not-a-state")
	bad.Uint(6, ^uint64(0))
	bad.Uint(99, 7)
	e.Message(3, bad)
	f.Add(e.Encoded())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalHealthResp(data)
		if err != nil {
			return
		}
		if len(r.Classes) > len(data) || len(r.Targets) > len(data) {
			t.Fatalf("decoder fabricated %d classes / %d targets from %d input bytes",
				len(r.Classes), len(r.Targets), len(data))
		}
		// Whatever decoded must re-marshal and re-decode identically.
		again, err := UnmarshalHealthResp(r.Marshal())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("re-decode drift:\n first  %+v\n second %+v", r, again)
		}
	})
}

// The handoff-plane frames below cross trust boundaries during a resize
// or maintenance migration: SealReq and MigrateBatch bodies
// arrive at backends from whichever peer claims to run the handoff, and
// GetReq's ConfigID stamp is the self-validation gate on the two-sided
// read path. A malformed frame must error, never panic, and never
// fabricate state (items out of thin air, a seal bit from a truncated
// varint).

func FuzzSealReq(f *testing.F) {
	f.Add(SealReq{On: true}.Marshal())
	f.Add(SealReq{}.Marshal())
	// A seal frame with a hostile extra tag and a maxed varint where the
	// bool belongs.
	e := wire.NewEncoder()
	e.Uint(1, ^uint64(0))
	e.Uint(99, 7)
	f.Add(e.Encoded())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalSealReq(data)
		if err != nil {
			return
		}
		again, err := UnmarshalSealReq(r.Marshal())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if again != r {
			t.Fatalf("re-decode drift: first %+v second %+v", r, again)
		}
	})
}

func FuzzGetReq(f *testing.F) {
	f.Add(GetReq{Key: []byte("k"), ConfigID: 7}.Marshal())
	f.Add(GetReq{Key: []byte{0x00, 0xff}}.Marshal())
	// ConfigID at the varint ceiling (must round-trip, not truncate: the
	// stamp comparison is exact) and a key under an unknown tag.
	e := wire.NewEncoder()
	e.Bytes(1, []byte("key"))
	e.Uint(2, ^uint64(0))
	e.Bytes(9, []byte("stray"))
	f.Add(e.Encoded())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalGetReq(data)
		if err != nil {
			return
		}
		if len(r.Key) > len(data) {
			t.Fatalf("decoder fabricated a %d-byte key from %d input bytes", len(r.Key), len(data))
		}
		again, err := UnmarshalGetReq(r.Marshal())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if again.ConfigID != r.ConfigID || string(again.Key) != string(r.Key) {
			t.Fatalf("re-decode drift: first %+v second %+v", r, again)
		}
	})
}

// FuzzSetReq: the one mutation request (SET, ERASE and CAS alike) is
// decoded off the gateway socket. Whatever the bytes, the decoder must not
// panic or fabricate fields longer than its input, and a decoded request
// must re-encode to a frame that decodes to the same fields.
func FuzzSetReq(f *testing.F) {
	ver := v(1<<50, 7, 3)
	f.Add(SetReq{Key: []byte("k"), Value: []byte("value"), Version: ver, ConfigID: 4}.Marshal())
	f.Add(SetReq{Key: []byte("k"), Version: ver, Repair: true}.Marshal()) // a repair sweep's ERASE
	f.Add(SetReq{Key: []byte{0x00, 0xff}, Value: []byte("nv"), Version: ver, Expected: v(1, 0, 2), Pending: true,
		Touches: TouchReq{Keys: [][]byte{[]byte("a")}}.Marshal()}.Marshal())
	// Expected's last part at the varint ceiling, its first part after
	// it, and a field under an unknown tag.
	e := wire.NewEncoder()
	e.Bytes(1, []byte("key"))
	e.Uint(12, ^uint64(0))
	e.Uint(10, 1)
	e.Bytes(99, []byte("stray"))
	f.Add(e.Encoded())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalSetReq(data)
		if err != nil {
			return
		}
		if n := len(r.Key) + len(r.Value) + len(r.Touches); n > len(data) {
			t.Fatalf("decoder fabricated %d bytes of fields from %d input bytes", n, len(data))
		}
		again, err := UnmarshalSetReq(r.Marshal())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		emptyToNil(reflect.ValueOf(&r).Elem())
		emptyToNil(reflect.ValueOf(&again).Elem())
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("re-decode drift: first %+v second %+v", r, again)
		}
	})
}

func FuzzMigrateBatchReq(f *testing.F) {
	// Every handoff frame is a MigrateBatch: the bulk stream's value items,
	// and the delta stream's tombstone items and final-frame summary fold,
	// so both shapes seed the corpus.
	f.Add(MigrateBatchReq{
		Shard: 1,
		Items: []MigrateItem{
			{Key: []byte("live"), Value: []byte("v"), Version: truetime.Version{Micros: 5, ClientID: 2, Seq: 3}},
			{Key: []byte("dead"), Tombstone: true, Version: truetime.Version{Micros: 9}},
		},
	}.Marshal())
	f.Add(MigrateBatchReq{
		Shard: -1, Final: true,
		TombSummary: truetime.Version{Micros: 1 << 40, ClientID: 1},
	}.Marshal())
	// An item whose nested body is a truncated varint, plus version
	// fields at the ceiling.
	e := wire.NewEncoder()
	e.Int(1, -9)
	bad := wire.NewRawEncoder()
	bad.Bytes(1, []byte("k"))
	bad.Uint(3, ^uint64(0))
	e.Message(2, bad)
	e.Bytes(2, []byte{0x10})
	f.Add(e.Encoded())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalMigrateBatchReq(data)
		if err != nil {
			return
		}
		if len(r.Items) > len(data) {
			t.Fatalf("decoder fabricated %d items from %d input bytes", len(r.Items), len(data))
		}
		for _, it := range r.Items {
			if len(it.Key)+len(it.Value) > len(data) {
				t.Fatalf("decoder fabricated a %d/%d-byte item from %d input bytes",
					len(it.Key), len(it.Value), len(data))
			}
		}
		// Whatever decoded must re-marshal and re-decode identically —
		// a tombstone dropped in transit would resurrect a deleted key
		// at the migration target.
		again, err := UnmarshalMigrateBatchReq(r.Marshal())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("re-decode drift:\n first  %+v\n second %+v", r, again)
		}
	})
}

func FuzzDebugRespHeat(f *testing.F) {
	f.Add(DebugResp{
		HotKeys:    []DebugHotKey{{Key: "hot", Count: 42, Err: 1}},
		StripeHeat: []uint64{1, 2, 3},
	}.Marshal())
	// Hot-key message with a truncated varint body and stripe entries at
	// the varint ceiling.
	e := wire.NewEncoder()
	e.Bytes(10, []byte{0x10})
	e.Uint(11, ^uint64(0))
	f.Add(e.Encoded())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalDebugResp(data)
		if err != nil {
			return
		}
		if len(r.HotKeys) > len(data) || len(r.StripeHeat) > len(data) {
			t.Fatalf("decoder fabricated %d hot keys / %d stripes from %d input bytes",
				len(r.HotKeys), len(r.StripeHeat), len(data))
		}
		_ = r.Marshal()
	})
}

// The tier routing snapshot is decoded by cmstat -tier straight off any
// member cell's gateway; same contract as MethodHealth: hostile frames
// error or zero out, never panic, never fabricate cells.

func TestTierRespRoundTrip(t *testing.T) {
	in := TierResp{
		RingVersion: 9,
		Vnodes:      128,
		Cells: []TierCell{
			{Name: "us", WeightMilli: 1000, BaseMilli: 1000, State: "ok", OwnedPpm: 333000},
			{Name: "eu", WeightMilli: 250, BaseMilli: 1000, State: "page", Demoted: true, OwnedPpm: 111000},
			{Name: "asia", State: "dead"},
		},
	}
	out, err := UnmarshalTierResp(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n in  %+v\n out %+v", in, out)
	}
}

func FuzzTierResp(f *testing.F) {
	f.Add(TierResp{RingVersion: 1, Vnodes: 128,
		Cells: []TierCell{{Name: "us", WeightMilli: 1000, BaseMilli: 1000, State: "ok", OwnedPpm: 500000}},
	}.Marshal())
	// A cell whose nested fields are hostile: non-UTF8 name, maxed
	// varints, and an unknown tag (forward compatibility).
	e := wire.NewEncoder()
	e.Uint(1, ^uint64(0))
	bad := wire.NewRawEncoder()
	bad.String(1, "\xff\xfeus")
	bad.Uint(2, ^uint64(0))
	bad.String(4, "not-a-state")
	bad.Uint(99, 7)
	e.Message(3, bad)
	f.Add(e.Encoded())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalTierResp(data)
		if err != nil {
			return
		}
		if len(r.Cells) > len(data) {
			t.Fatalf("decoder fabricated %d cells from %d input bytes", len(r.Cells), len(data))
		}
		again, err := UnmarshalTierResp(r.Marshal())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("re-decode drift:\n first  %+v\n second %+v", r, again)
		}
	})
}

// The fleet aggregator decodes DebugResp frames — now extended with raw
// histogram buckets (DebugHist tags 10/11) and tier span codes inside op
// frames — from every scraped cell's gateway. The extended decoder must
// uphold the same contract: hostile frames error or degrade, never
// panic, never fabricate buckets or spans, and whatever decodes
// re-marshals identically (a drifting bucket would corrupt every merged
// fleet percentile downstream).
func FuzzDebugRespExtended(f *testing.F) {
	f.Add(DebugResp{
		OpsTotal: 1000,
		Hists: []DebugHist{{
			Kind: "GET", Transport: "2xR", Count: 900, MeanNs: 8000,
			P50Ns: 7000, P99Ns: 20000, MaxNs: 40000, SumNs: 7_200_000,
			Buckets: []stats.HistBucket{{Index: 3, Count: 10}, {Index: 200, Count: 890}},
		}},
		SlowOps: []DebugOp{{
			ID: 9, Kind: "GET", Transport: "RPC", Attempts: 1, Ns: 90_000,
			Spans: []fabric.Span{
				{Code: 18, Arg: 1, Start: 0, Dur: 0},       // ring-lookup
				{Code: 17, Arg: 0, Start: 0, Dur: 0},       // tier-route
				{Code: 1, Arg: 2, Start: 0, Dur: 5000},     // follower-cell index fetch
				{Code: 21, Arg: 1, Start: 5000, Dur: 80e3}, // follower-revalidate
				{Code: 6, Arg: 1600, Start: 40e3, Dur: 39e3},
			},
		}},
	}.Marshal())
	// A hist whose bucket list is hostile: an index past the histogram
	// array, a count at the varint ceiling, a truncated nested bucket
	// body, and more bucket entries than any histogram has buckets.
	e := wire.NewEncoder()
	bad := wire.NewRawEncoder()
	bad.String(1, "GET")
	bad.Uint(10, ^uint64(0))
	bucket := wire.NewRawEncoder()
	bucket.Uint(1, ^uint64(0))
	bucket.Uint(2, ^uint64(0))
	bad.Message(11, bucket)
	bad.Bytes(11, []byte{0x08})
	e.Message(4, bad)
	f.Add(e.Encoded())
	flood := wire.NewEncoder()
	many := wire.NewRawEncoder()
	for i := 0; i < stats.NumBuckets+64; i++ {
		b := wire.NewRawEncoder()
		b.Uint(1, uint64(i))
		b.Uint(2, 1)
		many.Message(11, b)
	}
	flood.Message(4, many)
	f.Add(flood.Encoded())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalDebugResp(data)
		if err != nil {
			return
		}
		for _, h := range r.Hists {
			if len(h.Buckets) > stats.NumBuckets {
				t.Fatalf("decoder kept %d buckets, cap is %d", len(h.Buckets), stats.NumBuckets)
			}
		}
		var spans int
		for _, op := range append(append([]DebugOp{}, r.SlowOps...), r.Exemplars...) {
			spans += len(op.Spans)
		}
		if spans > 0 && spans > len(data) {
			t.Fatalf("decoder fabricated %d spans from %d input bytes", spans, len(data))
		}
		// Whatever decoded must re-marshal and re-decode identically —
		// the merged-percentile path feeds every decoded bucket straight
		// into fleet histograms.
		again, err := UnmarshalDebugResp(r.Marshal())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(r.Hists, again.Hists) {
			t.Fatalf("hist re-decode drift:\n first  %+v\n second %+v", r.Hists, again.Hists)
		}
		if !reflect.DeepEqual(r.SlowOps, again.SlowOps) || !reflect.DeepEqual(r.Exemplars, again.Exemplars) {
			t.Fatalf("op re-decode drift:\n first  %+v\n second %+v", r.SlowOps, again.SlowOps)
		}
	})
}

// cmstat's SATURATION table and the loadwall limiting-resource probe
// decode StatsResp frames — now extended with the saturation tags
// (27–41: stripe contention, rpc admission queue, NIC engine queue) —
// straight off the gateway socket. The decoder must uphold the standing
// contract: hostile frames (maxed varints, unknown tags, truncation)
// error or degrade to zeros, never panic, never fabricate counters, and
// whatever decodes re-marshals identically (drift would make cmstat
// -watch deltas lie about where the knee came from).
func FuzzStatsResp(f *testing.F) {
	f.Add(StatsResp{
		Shard: 2, Sealed: true, ResidentKeys: 1000, MemoryBytes: 1 << 20,
		Sets: 500, Gets: 9000, Stripes: 16, StripeMaxOps: 900, StripeTotalOps: 9500,
		CkptEpoch: 3, JournalRecords: 44, Recovering: true,
		StripeContended: 17, StripeWaitNs: 81234, StripeHeldNs: 400000, StripeHeldSampled: 12,
		RPCWorkerLimit: 64, RPCWorkersBusy: 7, RPCQueuedSubmits: 3, RPCSubmitWaitNs: 55555,
		RPCQueuedCalls: 120, RPCQueueNs: 9_000_000, RPCRhoMilli: 870,
		NICEngines: 4, NICRhoMilli: 930, NICQueueNs: 1_234_567, NICOps: 88_000,
		HotEpoch: 5, HotKeys: [][]byte{[]byte("hot"), {0x00, 0x01}},
		SlabDrains: 21, EntriesMoved: 1900, DataFragMilli: 153, DataTailBytes: 64 << 10,
		Erases: 300, CasOps: 200, Overflows: 2, Touches: 640, CorruptPurged: 1,
	}.Marshal())
	// Hostile saturation tags: every new field maxed, plus the hot-key
	// promotion tags (42/43) with a maxed epoch and a binary key, the op and
	// fault counters (48–52) maxed, plus an unknown tag beyond the current
	// ceiling (forward compatibility).
	e := wire.NewEncoder()
	for tag := uint64(27); tag <= 41; tag++ {
		e.Uint(tag, ^uint64(0))
	}
	for tag := uint64(48); tag <= 52; tag++ {
		e.Uint(tag, ^uint64(0))
	}
	e.Uint(42, ^uint64(0))
	e.Bytes(43, []byte("\xff\xfekey"))
	e.Uint(99, 7)
	f.Add(e.Encoded())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalStatsResp(data)
		if err != nil {
			return
		}
		again, err := UnmarshalStatsResp(r.Marshal())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("re-decode drift:\n first  %+v\n second %+v", r, again)
		}
	})
}

// TouchResp is decoded by every heat-reporting client off its Touch-flush
// ack — the promotion-learning channel of hot-key adaptive serving. The
// frame is additive over the old empty Ack, so the decoder must treat an
// empty body as "no promotion set" (epoch 0), and hostile bodies — maxed
// epochs, binary keys, truncated varints, unknown tags — must error or
// degrade, never panic, never fabricate keys. Drift matters doubly here:
// a fabricated key would be admitted to near-caches fleet-wide.
func FuzzTouchResp(f *testing.F) {
	f.Add(TouchResp{HotEpoch: 3, HotKeys: [][]byte{[]byte("hot-a"), {0x00, 0xff}}}.Marshal())
	f.Add(TouchResp{}.Marshal()) // the pre-promotion bare Ack
	e := wire.NewEncoder()
	e.Uint(1, ^uint64(0))
	e.Bytes(2, []byte("\xff\xfekey"))
	e.Uint(99, 7)
	f.Add(e.Encoded())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("\x010\x100")) // one empty hot key: []byte{} first, nil on re-decode
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalTouchResp(data)
		if err != nil {
			return
		}
		if len(r.HotKeys) > len(data) {
			t.Fatalf("decoder fabricated %d hot keys from %d input bytes", len(r.HotKeys), len(data))
		}
		for _, k := range r.HotKeys {
			if len(k) > len(data) {
				t.Fatalf("decoder fabricated a %d-byte key from %d input bytes", len(k), len(data))
			}
		}
		again, err := UnmarshalTouchResp(r.Marshal())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		drift := r.HotEpoch != again.HotEpoch || len(r.HotKeys) != len(again.HotKeys)
		for i := 0; !drift && i < len(r.HotKeys); i++ {
			drift = !bytes.Equal(r.HotKeys[i], again.HotKeys[i])
		}
		if drift {
			t.Fatalf("re-decode drift:\n first  %+v\n second %+v", r, again)
		}
	})
}

func TestTouchRespRoundTrip(t *testing.T) {
	in := TouchResp{HotEpoch: 9, HotKeys: [][]byte{[]byte("a"), []byte("b")}}
	out, err := UnmarshalTouchResp(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n in  %+v\n out %+v", in, out)
	}
	// The pre-promotion bare Ack (a header-only frame) decodes as "no
	// promotion set".
	empty, err := UnmarshalTouchResp(TouchResp{}.Marshal())
	if err != nil || empty.HotEpoch != 0 || len(empty.HotKeys) != 0 {
		t.Errorf("empty ack decoded to %+v, %v", empty, err)
	}
}
