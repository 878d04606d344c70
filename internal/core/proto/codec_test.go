package proto

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"cliquemap/internal/fabric"
	"cliquemap/internal/rmem"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
	"cliquemap/internal/wire"
)

// The struct tags are the one schema of every message, and wire's plan
// compiled from them is the one codec. These tests pin that from three
// sides: frames captured from the hand-written encoders of earlier commits
// still decode and re-encode byte-identically (interop with every peer
// built before the switch); the plan agrees with the reflective reference
// codec (reference_test.go) on every value of every message; and the tags
// themselves are well-formed.

type message interface{ Marshal() []byte }

// anyDecoder erases UnmarshalX's concrete return type for table use.
func anyDecoder[T message](f func([]byte) (T, error)) func([]byte) (message, error) {
	return func(b []byte) (message, error) { return f(b) }
}

// goldenFrames holds, for a populated and a zero value of each message,
// the frame the hand-written Marshal of the commit before the struct-tag
// codec produced for it (before the compiled plan, for the six datapath
// messages).
var goldenFrames = []struct {
	value  message
	decode func([]byte) (message, error)
	frame  string
}{
	{HelloResp{ConfigID: 9, Shard: -3, Buckets: 128, Ways: 14, IndexWindow: 5, IndexEpoch: 2,
		DataWindows: []rmem.WindowID{6, 700}},
		anyDecoder(UnmarshalHelloResp), "010408091005188001200e28053002380638bc05"},
	{ScanReq{Shard: -1, Cursor: 1 << 40, Limit: 512},
		anyDecoder(UnmarshalScanReq), "0104080110808080808020188004"},
	{ScanResp{
		Items: []ScanItem{
			{HashHi: 1, HashLo: ^uint64(0), Version: v(3, 4, 5), Key: []byte("live")},
			{HashHi: 6, Version: v(-8, 9, 10), Key: []byte{0x00, 0xff}, Tombstone: true},
		},
		NextCursor: 200, Done: true, TombSummary: v(1<<50, 7, 1)},
		anyDecoder(UnmarshalScanResp),
		"01040a1b080110ffffffffffffffffff0118032004280532046c69766538000a190806100018f8ffffffffffffffff01" +
			"2009280a320200ff380110c801180120808080808080800228073001"},
	{MigrateBatchReq{
		Shard: 2,
		Items: []MigrateItem{
			{Key: []byte("a"), Value: []byte("value-1"), Version: v(1, 1, 1)},
			{Key: []byte("dead"), Version: v(2, 2, 2), Tombstone: true},
		},
		Final: true, TombSummary: v(99, 3, 0)},
		anyDecoder(UnmarshalMigrateBatchReq),
		"0104080412140a0161120776616c75652d31180120012801300012100a04646561641200180220022802300118012063" +
			"28033000"},
	{AssumeShardReq{Shard: 5}, anyDecoder(UnmarshalAssumeShardReq), "0104080a"},
	{SealReq{On: true}, anyDecoder(UnmarshalSealReq), "01040801"},
	{ConfigResp{ConfigID: 77, Replicas: 3, Quorum: 2,
		ShardAddrs:    []string{"backend-0", "backend-1"},
		PendingShards: 3, PendingShardAddrs: []string{"backend-0", "backend-1", "spare-0"},
		SealedOld: []bool{true, false}},
		anyDecoder(UnmarshalConfigResp),
		"0104084d1003180222096261636b656e642d3022096261636b656e642d31280332096261636b656e642d303209626163" +
			"6b656e642d31320773706172652d3038013800"},
	{StatsResp{
		Shard: 2, Sealed: true, ResidentKeys: 1000, MemoryBytes: 1 << 20,
		Sets: 500, Gets: 9000, Evictions: 12, IndexResizes: 1, DataGrows: 2,
		RepairsIssued: 3, VersionRejects: 4, Stripes: 16, StripeMaxOps: 900, StripeTotalOps: 9500,
		HeatTracked: 64, HeatTotal: 9500, HandoffSealed: true, PendingShards: 6,
		CkptEpoch: 3, CkptUnixNano: 1_700_000_000_000_000_000, JournalRecords: 44, JournalBytes: 4096,
		RecoveredKeys: 990, ReplayedRecords: 10, SelfValidated: 980, Recovering: true,
		StripeContended: 17, StripeWaitNs: 81234, StripeHeldNs: 400000, StripeHeldSampled: 12,
		RPCWorkerLimit: 64, RPCWorkersBusy: 7, RPCQueuedSubmits: 3, RPCSubmitWaitNs: 55555,
		RPCQueuedCalls: 120, RPCQueueNs: 9_000_000, RPCRhoMilli: 870,
		NICEngines: 4, NICRhoMilli: 930, NICQueueNs: 1_234_567, NICOps: 88_000,
		HotEpoch: 5, HotKeys: [][]byte{[]byte("hot"), {0x00, 0x01}}},
		anyDecoder(UnmarshalStatsResp),
		"01040804100118e8072080804028f40330a846380c40014802500358046010688407709c4a784080019c4a8801019001" +
			"06980103a0018080a8b1e39fe7cb17a8012cb0018020b801de07c0010ac801d407d00101d80111e001d2fa04e80180b5" +
			"18f0010cf80140800207880203900283b203980278a002c0a8a504a802e606b00204b802a207c00287ad4bc802c0af05" +
			"d00205da0203686f74da02020001"},
	{DebugReq{MaxSlow: 16}, anyDecoder(UnmarshalDebugReq), "01040810"},
	{DebugResp{
		OpsTotal: 100, SlowTotal: 3, SlowThresholdNs: 2_000_000,
		Hists: []DebugHist{
			{Kind: "GET", Transport: "SCAR", Count: 90, MeanNs: 7000,
				P50Ns: 6000, P90Ns: 9000, P99Ns: 12000, P999Ns: 15000, MaxNs: 20000,
				SumNs: 630000, Buckets: []stats.HistBucket{{Index: 196, Count: 50}, {Index: 205, Count: 40}}},
			{Kind: "SET", Transport: "RPC", Count: 10, MeanNs: 90000},
		},
		CPU: []DebugCPU{{Component: "client", TotalNs: 5_000_000, Ops: 100}},
		SlowOps: []DebugOp{{
			ID: 42, Kind: "GET", Transport: "2xR", Attempts: 2,
			Ns: 3_000_000, Bytes: 1024, WallNs: -1_700_000_000,
			Spans: []fabric.Span{{Code: 1, Arg: 3, Start: 0, Dur: 4200}, {Code: 5, Start: 4200, Dur: 900}},
		}},
		Exemplars:  []DebugOp{{ID: 7, Kind: "CAS", Transport: "RPC", Attempts: 1, Ns: 50_000}},
		Hazards:    []DebugHazard{{Name: "drop", Count: 9}},
		Health:     []DebugHealth{{Addr: "backend-0", ScoreMilli: 1000}, {Addr: "backend-1", ScoreMilli: 120, Demoted: true}},
		HotKeys:    []DebugHotKey{{Key: "k0", Count: 100, Err: 3}, {Key: "\x00probe/x", Count: 2}},
		StripeHeat: []uint64{5, 0, 17, 9}},
		anyDecoder(UnmarshalDebugResp),
		"0104086410031880897a22320a03474554120453434152185a20d83628f02e30a84638e05d40987548a09c0150f0b926" +
			"5a0508c40110325a0508cd011028221c0a035345541203525043180a2090bf052800300038004000480050002a0f0a06" +
			"636c69656e7410c096b10218643233082a12034745541a03327852200228c08db70130800838ffc39fd50c4209080110" +
			"03180020e820420a0805100018e8202084073a16080712034341531a03525043200128d086033000380042080a046472" +
			"6f7010094a0e0a096261636b656e642d3010e8074a0f0a096261636b656e642d311078180152080a026b301064180352" +
			"0e0a080070726f62652f78100218005805580058115809"},
	{HealthReq{}, anyDecoder(UnmarshalHealthReq), "0104"},
	{HealthResp{
		GeneratedNs: 12345, Rounds: 7,
		Classes: []HealthClass{
			{Class: "GET", State: "page", SinceNs: 99, AvailabilityPpm: 999000,
				LatencyTargetNs: 1_000_000, FastBurnMilli: 14400, SlowBurnMilli: 14400,
				WindowGood: 10, WindowBad: 5, Good: 100, Bad: 6,
				ProbeP50Ns: 7000, ProbeP99Ns: 70000, Pages: 2, Warns: 1},
			{Class: "SET", State: "ok"},
		},
		Targets: []HealthTarget{{Name: "2xR", Good: 50, Bad: 1}, {Name: "RPC", Good: 49}}},
		anyDecoder(UnmarshalHealthResp),
		"010408b96010071a2e0a03474554120470616765186320d8fc3c28c0843d30c07038c070400a48055064580660d83668" +
			"f0a204700278011a230a0353455412026f6b180020002800300038004000480050005800600068007000780022090a03" +
			"3278521032180122090a0352504310311800"},
	{TierReq{}, anyDecoder(UnmarshalTierReq), "0104"},
	{TierResp{RingVersion: 9, Vnodes: 128,
		Cells: []TierCell{
			{Name: "us", WeightMilli: 1000, BaseMilli: 1000, State: "ok", OwnedPpm: 333000},
			{Name: "eu", WeightMilli: 250, BaseMilli: 1000, State: "page", Demoted: true, OwnedPpm: 111000},
			{Name: "asia", State: "dead"},
		}},
		anyDecoder(UnmarshalTierResp),
		"010408091080011a120a02757310e80718e80722026f6b30c8a9141a160a02657510fa0118e807220470616765280130" +
			"98e3061a120a0461736961100018002204646561643000"},

	// The six datapath messages, captured from the hand-written encoders
	// the compiled plan replaced: populated, a CAS carrying access records
	// (a partly zero Expected sends only its non-zero parts), and zero.
	{SetReq{Key: []byte("key-1"), Value: []byte("value-1"), Version: v(1<<50, 7, 3), Repair: true, Pending: true, ConfigID: 9},
		anyDecoder(UnmarshalSetReq), "01040a056b65792d31120776616c75652d3118808080808080800220072803300138014009"},
	{SetReq{Key: []byte{0x00, 0xff}, Value: []byte("nv"), Version: v(-8, 9, 10), ConfigID: 4,
		Touches: TouchReq{Keys: [][]byte{[]byte("a"), []byte("bb")}}.Marshal(), Expected: v(1, 0, 2)},
		anyDecoder(UnmarshalSetReq), "01040a0200ff12026e7618f8ffffffffffffffff012009280a3000380040044a0901040a01610a02626250016002"},
	{MutateResp{Applied: true, Stored: v(5, 6, 7), Evictions: 3, Sealed: true,
		Hot: TouchResp{HotEpoch: 4, HotKeys: [][]byte{[]byte("hot")}}.Marshal()},
		anyDecoder(UnmarshalMutateResp), "01040801100518062007280330013a09010408041203686f74"},
	{GetReq{Key: []byte("gk"), ConfigID: 1 << 40}, anyDecoder(UnmarshalGetReq), "01040a02676b10808080808020"},
	{GetResp{Found: true, Value: []byte("val"), Version: v(3, 2, 1)}, anyDecoder(UnmarshalGetResp),
		"01040801120376616c180320022801"},
	{TouchReq{Keys: [][]byte{[]byte("a"), {0x00, 0x01}, []byte("ccc")}}, anyDecoder(UnmarshalTouchReq),
		"01040a01610a0200010a03636363"},
	{TouchResp{HotEpoch: 9, HotKeys: [][]byte{[]byte("h1"), []byte("h2")}}, anyDecoder(UnmarshalTouchResp),
		"010408091202683112026832"},
	{SetReq{}, anyDecoder(UnmarshalSetReq), "01040a001200180020002800300038004000"},
	{MutateResp{}, anyDecoder(UnmarshalMutateResp), "0104080010001800200028003000"},
	{GetReq{}, anyDecoder(UnmarshalGetReq), "01040a001000"},
	{GetResp{}, anyDecoder(UnmarshalGetResp), "010408001200180020002800"},
	{TouchReq{}, anyDecoder(UnmarshalTouchReq), "0104"},
	{TouchResp{}, anyDecoder(UnmarshalTouchResp), "0104"},

	// Frames captured at the commit before the telemetry records moved to
	// their producers (DebugHist & co. became aliases of trace / stats
	// types) and StatsResp grew tags 48–52: the data-region tags 44–47 set,
	// a spare's negative shard, and every Debug list populated.
	{StatsResp{
		Shard: -1, ResidentKeys: 26_112, MemoryBytes: 32 << 20, Sets: 70_000, Gets: 1 << 33,
		Evictions: 43_888, RepairsIssued: 2, Stripes: 64, StripeMaxOps: 9_000, StripeTotalOps: 95_000,
		RPCWorkerLimit: 64, NICEngines: 1, NICOps: 1 << 40,
		SlabDrains: 21, EntriesMoved: 1900, DataFragMilli: 153, DataTailBytes: 64 << 10},
		anyDecoder(UnmarshalStatsResp),
		"0104080110001880cc01208080801028f0a20430808080802038f0d6024000480050025800604068a8467098e6057800" +
			"800100880100900100980100a00100a80100b00100b80100c00100c80100d00100d80100e00100e80100f00100f80140" +
			"800200880200900200980200a00200a80200b00201b80200c00200c802808080808020d00200e00215e802ec0ef00299" +
			"01f802808004"},
	{DebugResp{
		OpsTotal: 1 << 34, SlowTotal: 1,
		Hists: []DebugHist{{Kind: "ERASE", Transport: "MSG", Count: 3, MeanNs: 11, P50Ns: 10, P90Ns: 12, P99Ns: 12, P999Ns: 12,
			MaxNs: 13, SumNs: 35, Buckets: []stats.HistBucket{{Index: 10, Count: 1}, {Index: 12, Count: 2}}}},
		CPU: []DebugCPU{{Component: "rpc-server", TotalNs: 1, Ops: 1}, {Component: "handler"}},
		Exemplars: []DebugOp{{ID: 1 << 40, Kind: "OTHER", Transport: "RPC", WallNs: 1_700_000_000_000_000_000,
			Spans: []fabric.Span{{Code: 22, Arg: 870, Start: 1, Dur: 2}}}},
		Hazards:    []DebugHazard{{Name: "nic-delay", Count: 1 << 20}},
		Health:     []DebugHealth{{Addr: "spare-0", ScoreMilli: 1}},
		HotKeys:    []DebugHotKey{{Key: "\xff\xfe", Count: 1, Err: 1}},
		StripeHeat: []uint64{1 << 50}},
		anyDecoder(UnmarshalDebugResp),
		"01040880808080401001180022280a05455241534512034d53471803200b280a300c380c400c480d50235a04080a1001" +
			"5a04080c10022a100a0a7270632d736572766572100118012a0d0a0768616e646c6572100018003a2e08808080808020" +
			"12054f544845521a03525043200028003000388080d0e2c6bfce972f4209081610e60618012002420f0a096e69632d64" +
			"656c6179108080404a0b0a0773706172652d30100152080a02fffe10011801588080808080808002"},

	// The same messages with every field zero, one empty element per nested
	// list: which zeros still travel and which (omitzero) do not.
	{HelloResp{}, anyDecoder(UnmarshalHelloResp),
		"0104080010001800200028003000"},
	{ScanReq{}, anyDecoder(UnmarshalScanReq),
		"0104080010001800"},
	{ScanResp{Items: []ScanItem{{}}}, anyDecoder(UnmarshalScanResp),
		"01040a0e080010001800200028003200380010001800200028003000"},
	{MigrateBatchReq{Items: []MigrateItem{{}}}, anyDecoder(UnmarshalMigrateBatchReq),
		"01040800120c0a00120018002000280030001800200028003000"},
	{AssumeShardReq{}, anyDecoder(UnmarshalAssumeShardReq),
		"01040800"},
	{SealReq{}, anyDecoder(UnmarshalSealReq),
		"01040800"},
	{ConfigResp{}, anyDecoder(UnmarshalConfigResp),
		"01040800100018002800"},
	{StatsResp{}, anyDecoder(UnmarshalStatsResp),
		"0104080010001800200028003000380040004800500058006000680070007800800100880100900100980100a00100a8" +
			"0100b00100b80100c00100c80100d00100d80100e00100e80100f00100f80100800200880200900200980200a00200a8" +
			"0200b00200b80200c00200c80200d00200"},
	{DebugReq{}, anyDecoder(UnmarshalDebugReq),
		"01040800"},
	{DebugResp{Hists: []DebugHist{{}}, CPU: []DebugCPU{{}}, SlowOps: []DebugOp{{}}, Hazards: []DebugHazard{{}},
		Health: []DebugHealth{{}}, HotKeys: []DebugHotKey{{}}}, anyDecoder(UnmarshalDebugResp),
		"010408001000180022140a001200180020002800300038004000480050002a060a0010001800320e080012001a002000" +
			"28003000380042040a0010004a040a00100052060a0010001800"},
	{HealthResp{Classes: []HealthClass{{}}, Targets: []HealthTarget{{}}}, anyDecoder(UnmarshalHealthResp),
		"0104080010001a1e0a001200180020002800300038004000480050005800600068007000780022060a0010001800"},
	{TierResp{Cells: []TierCell{{}}}, anyDecoder(UnmarshalTierResp),
		"0104080010001a0a0a001000180022003000"},
}

// retiredHealthTags is what the captured populated HealthResp frame carried
// past tag 4 — tag 5 (HotEpoch 4) and tag 6 (HotKeys "hot-h"), a hot-key
// piggyback nothing read; the golden frame above is the capture less them.
const retiredHealthTags = "28043205686f742d68"

// retiredTags are tags a message once carried: senders built before their
// removal may still send them, so no field may claim them again.
var retiredTags = map[reflect.Type][]uint64{reflect.TypeOf(HealthResp{}): {5, 6}}

func TestGoldenFrames(t *testing.T) {
	for _, c := range goldenFrames {
		name := reflect.TypeOf(c.value).Name()
		frame, err := hex.DecodeString(c.frame)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", name, err)
		}
		got, err := c.decode(frame)
		if err != nil {
			t.Errorf("%s: decoding the parent's frame: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.value) {
			t.Errorf("%s: parent's frame decoded to\n %+v\nwant\n %+v", name, got, c.value)
		}
		if again := got.Marshal(); !bytes.Equal(again, frame) {
			t.Errorf("%s: re-encoded frame differs from the parent's:\n got  %x\n want %x", name, again, frame)
		}
		// A datapath message appends itself after what the caller's
		// storage holds, in that storage when it has the room.
		if a, ok := c.value.(interface{ AppendTo([]byte) []byte }); ok {
			dst := append(make([]byte, 0, 256), "prefix"...)
			if got := a.AppendTo(dst); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], frame) || &got[0] != &dst[0] {
				t.Errorf("%s: AppendTo after a prefix gave %x, want prefix then %x in the caller's storage", name, got, frame)
			}
		}
	}
}

// TestDatapathDecodeAliasesFrame: decoding a datapath message allocates
// nothing, and each byte field it returns is a view of the frame. The two
// access-record messages decode into a value whose key list has room, as a
// reused one does.
func TestDatapathDecodeAliasesFrame(t *testing.T) {
	inFrame := func(name string, frame, field []byte) {
		t.Helper()
		lo, at := uintptr(unsafe.Pointer(unsafe.SliceData(frame))), uintptr(unsafe.Pointer(unsafe.SliceData(field)))
		if len(field) == 0 || at < lo || at+uintptr(len(field)) > lo+uintptr(len(frame)) {
			t.Errorf("%s: %q is not a view of its frame", name, field)
		}
	}
	hot := TouchResp{HotEpoch: 4, HotKeys: [][]byte{[]byte("hot")}}.Marshal()
	set := SetReq{Key: []byte("k"), Value: []byte("v"), Version: v(1, 2, 3), Touches: TouchReq{Keys: [][]byte{[]byte("a")}}.Marshal(), Expected: v(1, 1, 1)}.Marshal()
	mut := MutateResp{Applied: true, Stored: v(1, 2, 3), Hot: hot}.Marshal()
	get := GetReq{Key: []byte("k"), ConfigID: 7}.Marshal()
	resp := GetResp{Found: true, Value: []byte("value"), Version: v(1, 2, 3)}.Marshal()
	touch := TouchReq{Keys: [][]byte{[]byte("a"), []byte("b")}}.Marshal()
	var (
		sr  SetReq
		mr  MutateResp
		gq  GetReq
		gr  GetResp
		tq  = TouchReq{Keys: make([][]byte, 0, 2)}
		tr  = TouchResp{HotKeys: make([][]byte, 0, 1)}
		err error
	)
	for name, decode := range map[string]func(){
		"SetReq":     func() { sr, err = UnmarshalSetReq(set) },
		"MutateResp": func() { mr, err = UnmarshalMutateResp(mut) },
		"GetReq":     func() { gq, err = UnmarshalGetReq(get) },
		"GetResp":    func() { gr, err = UnmarshalGetResp(resp) },
		"TouchReq":   func() { err = wire.Decode(touch, &tq) },
		"TouchResp":  func() { err = wire.Decode(hot, &tr) },
	} {
		if allocs := testing.AllocsPerRun(100, decode); allocs != 0 || err != nil {
			t.Errorf("%s: decode allocates %.1f (err %v), want 0", name, allocs, err)
		}
	}
	inFrame("SetReq.Key", set, sr.Key)
	inFrame("SetReq.Value", set, sr.Value)
	inFrame("SetReq.Touches", set, sr.Touches)
	inFrame("MutateResp.Hot", mut, mr.Hot)
	inFrame("GetReq.Key", get, gq.Key)
	inFrame("GetResp.Value", resp, gr.Value)
	inFrame("TouchReq.Keys[1]", touch, tq.Keys[1])
	inFrame("TouchResp.HotKeys[0]", hot, tr.HotKeys[0])
	if len(tq.Keys) != 2 || len(tr.HotKeys) != 1 || tr.HotEpoch != 4 || sr.Expected != v(1, 1, 1) || gq.ConfigID != 7 || !gr.Found {
		t.Errorf("decoded %+v %+v %+v %+v", tq, tr, sr, gq)
	}
}

// TestRetiredHealthTagsDecode: a HealthResp frame from a server that still
// sends the retired tags 5–6 decodes to the same snapshot as one without.
func TestRetiredHealthTagsDecode(t *testing.T) {
	for _, c := range goldenFrames {
		if _, ok := c.value.(HealthResp); !ok {
			continue
		}
		frame, err := hex.DecodeString(c.frame + retiredHealthTags)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalHealthResp(frame)
		if err != nil || !reflect.DeepEqual(got, c.value) {
			t.Errorf("old frame decoded to %+v (err %v), want %+v", got, err, c.value)
		}
	}
}

// TestOldDecoderSkipsNewStatsTags decodes a frame carrying the additive
// tags 48–52 with the schema as it stood before them — StatsResp's own
// fields cut off at tag 47, read by the reference codec — and expects
// every older field intact: a cmstat
// built before the tags reads a new backend's frame as it always did.
func TestOldDecoderSkipsNewStatsTags(t *testing.T) {
	cur := StatsResp{Shard: -1, Sealed: true, Gets: 9000, NICOps: 88_000, HotKeys: [][]byte{[]byte("hot")},
		DataTailBytes: 64 << 10, Erases: 300, CasOps: 200, Overflows: 2, Touches: 640, CorruptPurged: 1}
	typ := reflect.TypeOf(cur)
	var older []reflect.StructField
	for i := 0; i < typ.NumField(); i++ {
		if n, _ := strconv.Atoi(strings.Split(typ.Field(i).Tag.Get("wire"), ",")[0]); n <= 47 {
			older = append(older, typ.Field(i))
		}
	}
	if len(older) != 47 {
		t.Fatalf("schema through tag 47 has %d fields", len(older))
	}
	old := reflect.New(reflect.StructOf(older))
	if err := refUnmarshal(cur.Marshal(), old.Interface()); err != nil {
		t.Fatalf("old decoder on a new frame: %v", err)
	}
	for _, f := range older {
		if got, want := old.Elem().FieldByName(f.Name).Interface(), reflect.ValueOf(cur).FieldByName(f.Name).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: old decoder read %v, sent %v", f.Name, got, want)
		}
	}
	// And the other direction: a frame from a sender that predates the tags
	// leaves them zero.
	cur.Erases, cur.CasOps, cur.Overflows, cur.Touches, cur.CorruptPurged = 0, 0, 0, 0, 0
	if got, err := UnmarshalStatsResp(refMarshal(old.Interface())); err != nil || !reflect.DeepEqual(got, cur) {
		t.Errorf("old sender's frame decoded to %+v (err %v), want %+v", got, err, cur)
	}
}

// emptyToNil normalises zero-length slices to nil throughout v, so values
// that encode identically compare equal: decoders that copy a zero-length
// field leave nil, decoders that alias the input leave an empty slice.
func emptyToNil(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			emptyToNil(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
		for i := 0; i < v.Len(); i++ {
			emptyToNil(v.Index(i))
		}
	}
}

// differential checks one message type on seeded random values: the
// reference codec and the type's own Marshal / UnmarshalX (the plan) must
// produce the same bytes, decode them to the same value (the original),
// and agree on whether a truncated frame is an error.
func differential[T message](rng *rand.Rand, unmarshal func([]byte) (T, error)) func(*testing.T) {
	return func(t *testing.T) {
		for i := 0; i < 300; i++ {
			rv, ok := quick.Value(reflect.TypeOf(*new(T)), rng)
			if !ok {
				t.Fatal("cannot generate a random value")
			}
			m := rv.Interface().(T)
			frame := m.Marshal()
			if got := refMarshal(&m); !bytes.Equal(got, frame) {
				t.Fatalf("encoders disagree on %+v:\n reference %x\n plan      %x", m, got, frame)
			}
			// A datapath message appends itself after what the caller's
			// storage holds, in that storage when it has the room.
			if a, ok := any(m).(interface{ AppendTo([]byte) []byte }); ok {
				dst := append(make([]byte, 0, 64<<10), "prefix"...)
				if got := a.AppendTo(dst); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], frame) || &got[0] != &dst[0] {
					t.Fatalf("AppendTo after a prefix gave %x, want prefix then %x in the caller's storage", got, frame)
				}
			}
			var viaTags T
			if err := refUnmarshal(frame, &viaTags); err != nil {
				t.Fatalf("reference decode: %v", err)
			}
			viaOwn, err := unmarshal(frame)
			if err != nil {
				t.Fatalf("own unmarshal: %v", err)
			}
			for _, p := range []*T{&m, &viaTags, &viaOwn} {
				emptyToNil(reflect.ValueOf(p).Elem())
			}
			if !reflect.DeepEqual(viaTags, viaOwn) || !reflect.DeepEqual(viaTags, m) {
				t.Fatalf("decoders disagree:\n value %+v\n tags  %+v\n own   %+v", m, viaTags, viaOwn)
			}
			cut := frame[:rng.Intn(len(frame)+1)]
			var scratch T
			_, errOwn := unmarshal(cut)
			if errTags := refUnmarshal(cut, &scratch); (errTags == nil) != (errOwn == nil) {
				t.Fatalf("truncation to %d of %d bytes: tags err=%v, own err=%v", len(cut), len(frame), errTags, errOwn)
			}
		}
	}
}

func TestCodecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// The six datapath messages.
	t.Run("SetReq", differential(rng, UnmarshalSetReq))
	t.Run("GetReq", differential(rng, UnmarshalGetReq))
	t.Run("GetResp", differential(rng, UnmarshalGetResp))
	t.Run("MutateResp", differential(rng, UnmarshalMutateResp))
	t.Run("TouchReq", differential(rng, UnmarshalTouchReq))
	t.Run("TouchResp", differential(rng, UnmarshalTouchResp))
	// The fourteen off-datapath messages.
	t.Run("HelloResp", differential(rng, UnmarshalHelloResp))
	t.Run("ScanReq", differential(rng, UnmarshalScanReq))
	t.Run("ScanResp", differential(rng, UnmarshalScanResp))
	t.Run("MigrateBatchReq", differential(rng, UnmarshalMigrateBatchReq))
	t.Run("AssumeShardReq", differential(rng, UnmarshalAssumeShardReq))
	t.Run("SealReq", differential(rng, UnmarshalSealReq))
	t.Run("ConfigResp", differential(rng, UnmarshalConfigResp))
	t.Run("StatsResp", differential(rng, UnmarshalStatsResp))
	t.Run("DebugReq", differential(rng, UnmarshalDebugReq))
	t.Run("DebugResp", differential(rng, UnmarshalDebugResp))
	t.Run("HealthReq", differential(rng, UnmarshalHealthReq))
	t.Run("HealthResp", differential(rng, UnmarshalHealthResp))
	t.Run("TierReq", differential(rng, UnmarshalTierReq))
	t.Run("TierResp", differential(rng, UnmarshalTierResp))
}

// lintSchema walks t and every struct reachable through its tagged
// fields, checking that each type's tags are non-zero and unique once
// flat fields are expanded over their N..N+k-1 range, and returns the
// max= literals it met, keyed by Type.Field.
func lintSchema(t *testing.T, typ reflect.Type, seen map[reflect.Type]bool, caps map[string]int) {
	if seen[typ] {
		return
	}
	seen[typ] = true
	owner := make(map[uint64]string)
	for _, n := range retiredTags[typ] {
		owner[n] = "a retired field"
	}
	claim := func(tag uint64, field string) {
		if tag == 0 {
			t.Errorf("%s.%s: tag 0", typ, field)
		}
		if prev, dup := owner[tag]; dup {
			t.Errorf("%s: tag %d claimed by both %s and %s", typ, tag, prev, field)
		}
		owner[tag] = field
	}
	tagged := 0
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		spec, ok := sf.Tag.Lookup("wire")
		if !ok {
			if sf.IsExported() {
				t.Errorf("%s.%s: exported field without a wire tag", typ, sf.Name)
			}
			continue
		}
		tagged++
		opts := strings.Split(spec, ",")
		n, err := strconv.ParseUint(opts[0], 10, 32)
		if err != nil {
			t.Errorf("%s.%s: tag %q: %v", typ, sf.Name, spec, err)
			continue
		}
		inner := sf.Type
		for inner.Kind() == reflect.Slice {
			inner = inner.Elem()
		}
		if inner.Kind() == reflect.Struct {
			lintSchema(t, inner, seen, caps)
		}
		width := uint64(1)
		for _, o := range opts[1:] {
			if o == "flat" {
				width = uint64(inner.NumField())
			}
			if k, ok := strings.CutPrefix(o, "max="); ok {
				caps[typ.Name()+"."+sf.Name], _ = strconv.Atoi(k)
			}
		}
		for d := uint64(0); d < width; d++ {
			claim(n+d, sf.Name)
		}
	}
	if tagged == 0 && typ.NumField() > 0 {
		t.Errorf("%s: no tagged fields", typ)
	}
}

func TestSchemaLint(t *testing.T) {
	seen := make(map[reflect.Type]bool)
	caps := make(map[string]int)
	for _, m := range []any{
		SetReq{}, GetReq{}, GetResp{}, MutateResp{}, TouchReq{}, TouchResp{},
		HelloResp{}, ScanReq{}, ScanResp{}, MigrateBatchReq{}, AssumeShardReq{},
		SealReq{}, ConfigResp{}, StatsResp{}, DebugReq{}, DebugResp{}, HealthReq{}, HealthResp{},
		TierReq{}, TierResp{},
	} {
		lintSchema(t, reflect.TypeOf(m), seen, caps)
	}
	for _, typ := range []any{truetime.Version{}, fabric.Span{}, stats.HistBucket{}, ScanItem{}, MigrateItem{}} {
		if !seen[reflect.TypeOf(typ)] {
			t.Errorf("%T is not reachable from any message", typ)
		}
	}
	// A tag literal cannot name a constant, so the two hostile-frame caps
	// are spelled as numbers; hold them to the constants they stand for.
	want := map[string]int{"HistStat.Buckets": stats.NumBuckets, "OpRecord.Spans": trace.MaxWireSpans}
	if !reflect.DeepEqual(caps, want) {
		t.Errorf("max= caps are %v, want %v", caps, want)
	}
}

// TestDecodeCaps sends frames that exceed both hostile-frame caps and one
// whose nested message is cut short.
func TestDecodeCaps(t *testing.T) {
	hist := DebugHist{Kind: "GET", Buckets: make([]stats.HistBucket, stats.NumBuckets+64)}
	op := DebugOp{ID: 1, Spans: make([]fabric.Span, trace.MaxWireSpans+3)}
	out, err := UnmarshalDebugResp(DebugResp{Hists: []DebugHist{hist}, SlowOps: []DebugOp{op}}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Hists[0].Buckets); got != stats.NumBuckets {
		t.Errorf("kept %d buckets, cap is %d", got, stats.NumBuckets)
	}
	if got := len(out.SlowOps[0].Spans); got != trace.MaxWireSpans {
		t.Errorf("kept %d spans, cap is %d", got, trace.MaxWireSpans)
	}

	// A sub-message that ends mid-varint fails the whole decode, for the
	// telemetry messages as for Scan/Migrate items.
	e := wire.NewEncoder()
	e.Bytes(10, []byte{0x10}) // DebugResp.HotKeys: header for tag 2, no value
	if _, err := UnmarshalDebugResp(e.Encoded()); err == nil {
		t.Error("truncated nested DebugHotKey decoded without error")
	}
}

// BenchmarkCodecCost prices the one codec. bulk: the messages that carry
// payload — one full handoff page (migrateBatchSize items of 4 KiB) and
// one full repair-scan page (ScanReq.Limit keys). datapath: one SET and one
// GET round trip (the bench probes' shape), each message appended to a
// reused buffer as an op appends to its leased arena. Run the same
// benchmark on an earlier commit for the codec it replaced.
func BenchmarkCodecCost(b *testing.B) {
	ver := truetime.Version{Micros: 1e15, ClientID: 7, Seq: 3}
	key, value := []byte("key-000001"), make([]byte, 128)
	mig := MigrateBatchReq{Shard: 3, Final: true, TombSummary: ver}
	for i := 0; i < 256; i++ {
		mig.Items = append(mig.Items, MigrateItem{Key: key, Value: make([]byte, 4096), Version: ver, Tombstone: i%16 == 0})
	}
	scan := ScanResp{NextCursor: 4096, TombSummary: ver}
	for i := 0; i < 4096; i++ {
		scan.Items = append(scan.Items, ScanItem{HashHi: uint64(i) * 0x9e3779b97f4a7c15, HashLo: ^uint64(i), Version: ver, Key: key})
	}
	migFrame, scanFrame := mig.Marshal(), scan.Marshal()
	buf := make([]byte, 0, 4096)
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"bulk/MigrateBatchReq/marshal", func() { mig.Marshal() }},
		{"bulk/MigrateBatchReq/unmarshal", func() { UnmarshalMigrateBatchReq(migFrame) }},
		{"bulk/ScanResp/marshal", func() { scan.Marshal() }},
		{"bulk/ScanResp/unmarshal", func() { UnmarshalScanResp(scanFrame) }},
		{"datapath/set", func() {
			req, _ := UnmarshalSetReq(SetReq{Key: key, Value: value, Version: ver, ConfigID: 1}.AppendTo(buf))
			UnmarshalMutateResp(MutateResp{Applied: true, Stored: req.Version}.AppendTo(buf))
		}},
		{"datapath/get", func() {
			UnmarshalGetReq(GetReq{Key: key, ConfigID: 1}.AppendTo(buf))
			UnmarshalGetResp(GetResp{Found: true, Value: value, Version: ver}.AppendTo(buf))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.op()
			}
		})
	}
}
