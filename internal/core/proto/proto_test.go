package proto

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"cliquemap/internal/fabric"
	"cliquemap/internal/rmem"
	"cliquemap/internal/stats"
	"cliquemap/internal/truetime"
	"cliquemap/internal/wire"
)

func v(m int64, c, s uint64) truetime.Version {
	return truetime.Version{Micros: m, ClientID: c, Seq: s}
}

func TestHelloRoundTrip(t *testing.T) {
	in := HelloResp{
		ConfigID: 9, Shard: 3, Buckets: 128, Ways: 14,
		IndexWindow: 5, IndexEpoch: 2, DataWindows: []rmem.WindowID{6, 7},
	}
	out, err := UnmarshalHelloResp(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.ConfigID != 9 || out.Shard != 3 || out.Buckets != 128 || out.Ways != 14 ||
		out.IndexWindow != 5 || out.IndexEpoch != 2 || len(out.DataWindows) != 2 || out.DataWindows[1] != 7 {
		t.Errorf("round trip: %+v", out)
	}
}

func TestSetReqRoundTrip(t *testing.T) {
	in := SetReq{Key: []byte("k"), Value: []byte("value"), Version: v(5, 6, 7), Repair: true}
	out, err := UnmarshalSetReq(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Key, in.Key) || !bytes.Equal(out.Value, in.Value) || out.Version != in.Version || !out.Repair {
		t.Errorf("round trip: %+v", out)
	}
}

func TestSetReqProperty(t *testing.T) {
	f := func(key, val []byte, m int64, c, s uint64, repair bool) bool {
		in := SetReq{Key: key, Value: val, Version: v(m, c, s), Repair: repair}
		out, err := UnmarshalSetReq(in.Marshal())
		return err == nil && bytes.Equal(out.Key, key) && bytes.Equal(out.Value, val) &&
			out.Version == in.Version && out.Repair == repair
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMutateRespRoundTrip(t *testing.T) {
	in := MutateResp{Applied: true, Stored: v(1, 2, 3), Evictions: 4, Hot: TouchResp{HotEpoch: 5}.Marshal()}
	out, err := UnmarshalMutateResp(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("%+v != %+v", out, in)
	}
}

// TestEraseCasRoundTrip: an ERASE (no value) and a CAS (Expected set) are
// SetReqs like a SET, and a SET leaves Expected off the wire.
func TestEraseCasRoundTrip(t *testing.T) {
	e := SetReq{Key: []byte("k"), Version: v(9, 8, 7)}
	eo, err := UnmarshalSetReq(e.Marshal())
	if err != nil || !bytes.Equal(eo.Key, e.Key) || len(eo.Value) != 0 || eo.Version != e.Version || !eo.Expected.Zero() {
		t.Errorf("erase: %+v %v", eo, err)
	}
	c := SetReq{Key: []byte("k"), Value: []byte("nv"), Expected: v(1, 1, 1), Version: v(2, 2, 2)}
	co, err := UnmarshalSetReq(c.Marshal())
	if err != nil || !bytes.Equal(co.Value, c.Value) || co.Expected != c.Expected || co.Version != c.Version {
		t.Errorf("cas: %+v %v", co, err)
	}
	if cas, set := len(c.Marshal()), len(SetReq{Key: c.Key, Value: c.Value, Version: c.Version}.Marshal()); cas != set+6 {
		t.Errorf("CAS frame is %d bytes, SET frame %d: Expected should add exactly its three fields", cas, set)
	}
}

func TestGetRoundTrip(t *testing.T) {
	rq, err := UnmarshalGetReq(GetReq{Key: []byte("gk")}.Marshal())
	if err != nil || string(rq.Key) != "gk" {
		t.Errorf("get req: %+v %v", rq, err)
	}
	rs := GetResp{Found: true, Value: []byte("val"), Version: v(3, 2, 1)}
	ro, err := UnmarshalGetResp(rs.Marshal())
	if err != nil || !ro.Found || !bytes.Equal(ro.Value, rs.Value) || ro.Version != rs.Version {
		t.Errorf("get resp: %+v %v", ro, err)
	}
}

func TestTouchRoundTrip(t *testing.T) {
	in := TouchReq{Keys: [][]byte{[]byte("a"), []byte("b"), []byte("c")}}
	out, err := UnmarshalTouchReq(in.Marshal())
	if err != nil || len(out.Keys) != 3 || string(out.Keys[2]) != "c" {
		t.Errorf("touch: %+v %v", out, err)
	}
}

func TestScanRoundTrip(t *testing.T) {
	req := ScanReq{Shard: 2, Cursor: 77, Limit: 100}
	rq, err := UnmarshalScanReq(req.Marshal())
	if err != nil || rq != req {
		t.Errorf("scan req: %+v %v", rq, err)
	}
	resp := ScanResp{
		Items: []ScanItem{
			{HashHi: 1, HashLo: 2, Version: v(3, 4, 5), Key: []byte("x")},
			{HashHi: 6, HashLo: 7, Version: v(8, 9, 10), Key: []byte("y")},
		},
		NextCursor: 200, Done: true,
	}
	ro, err := UnmarshalScanResp(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(ro.Items) != 2 || ro.Items[1].HashHi != 6 || string(ro.Items[0].Key) != "x" ||
		ro.Items[0].Version != v(3, 4, 5) || ro.NextCursor != 200 || !ro.Done {
		t.Errorf("scan resp: %+v", ro)
	}
}

func TestMigrateBatchRoundTrip(t *testing.T) {
	in := MigrateBatchReq{
		Shard: 1,
		Items: []MigrateItem{
			{Key: []byte("a"), Value: []byte("1"), Version: v(1, 1, 1)},
			{Key: []byte("b"), Value: []byte("2"), Version: v(2, 2, 2)},
		},
		Final: true,
	}
	out, err := UnmarshalMigrateBatchReq(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Shard != 1 || len(out.Items) != 2 || string(out.Items[1].Value) != "2" || !out.Final {
		t.Errorf("migrate: %+v", out)
	}
}

func TestAssumeShardRoundTrip(t *testing.T) {
	out, err := UnmarshalAssumeShardReq(AssumeShardReq{Shard: 5}.Marshal())
	if err != nil || out.Shard != 5 {
		t.Errorf("assume shard: %+v %v", out, err)
	}
}

// TestForwardCompat simulates a newer peer adding fields: old decoders
// must ignore them and still parse the known fields.
func TestForwardCompat(t *testing.T) {
	e := wire.NewEncoder()
	e.Bytes(1, []byte("key"))
	e.Bytes(2, []byte("val"))
	e.Uint(3, 1)
	e.Uint(4, 2)
	e.Uint(5, 3)
	e.Bool(6, false)
	e.String(99, "future-field")
	e.Uint(100, 12345)
	out, err := UnmarshalSetReq(e.Encoded())
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Key) != "key" || string(out.Value) != "val" {
		t.Errorf("forward compat parse: %+v", out)
	}
}

func TestGarbageRejected(t *testing.T) {
	if _, err := UnmarshalSetReq([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Error("garbage decoded as SetReq")
	}
}

func TestDebugRoundTrip(t *testing.T) {
	in := DebugResp{
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
			Ns: 3_000_000, Bytes: 1024, WallNs: 1_700_000_000_000_000_000,
			Spans: []fabric.Span{
				{Code: 1, Arg: 3, Start: 0, Dur: 4200},
				{Code: 5, Arg: 0, Start: 4200, Dur: 900},
			},
		}},
		Exemplars: []DebugOp{{ID: 7, Kind: "CAS", Transport: "RPC", Attempts: 1, Ns: 50_000}},
	}
	out, err := UnmarshalDebugResp(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.OpsTotal != in.OpsTotal || out.SlowTotal != in.SlowTotal || out.SlowThresholdNs != in.SlowThresholdNs {
		t.Errorf("counters: %+v", out)
	}
	if len(out.Hists) != 2 || !reflect.DeepEqual(out.Hists, in.Hists) {
		t.Errorf("hists: %+v", out.Hists)
	}
	if len(out.CPU) != 1 || out.CPU[0] != in.CPU[0] {
		t.Errorf("cpu: %+v", out.CPU)
	}
	if len(out.SlowOps) != 1 {
		t.Fatalf("slow ops: %+v", out.SlowOps)
	}
	got, want := out.SlowOps[0], in.SlowOps[0]
	if got.ID != want.ID || got.Kind != want.Kind || got.Transport != want.Transport ||
		got.Attempts != want.Attempts || got.Ns != want.Ns || got.Bytes != want.Bytes ||
		got.WallNs != want.WallNs || len(got.Spans) != 2 ||
		got.Spans[0] != want.Spans[0] || got.Spans[1] != want.Spans[1] {
		t.Errorf("slow op: %+v", got)
	}
	if len(out.Exemplars) != 1 || out.Exemplars[0].ID != 7 || out.Exemplars[0].Kind != "CAS" {
		t.Errorf("exemplars: %+v", out.Exemplars)
	}

	req, err := UnmarshalDebugReq(DebugReq{MaxSlow: 16}.Marshal())
	if err != nil || req.MaxSlow != 16 {
		t.Errorf("req round trip: %+v err=%v", req, err)
	}
}
