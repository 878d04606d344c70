package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"cliquemap"
	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// TestMetricsPage pins the /metrics page of a seeded in-process cell whose
// state owes nothing to a clock: an idle 2-shard + 1-spare cell, with fixed
// ops recorded straight into its tracer, CPU account and health plane. The
// golden was first captured from the three live-object writers cmcell used
// to glue together; `go test ./cmd/cmcell -update` rewrites it.
func TestMetricsPage(t *testing.T) {
	cell, err := cliquemap.NewCell(cliquemap.Options{Shards: 2, Spares: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := cell.Tracer()
	for i, ns := range []uint64{5000, 6000, 7000, 9000, 40_000} {
		tr.Record(uint64(i+1), trace.KindGet, trace.Transport2xR, 1, fabric.OpTrace{Ns: ns, Bytes: 128})
	}
	tr.Record(6, trace.KindGet, trace.TransportSCAR, 1, fabric.OpTrace{Ns: 4100})
	tr.Record(7, trace.KindSet, trace.TransportRPC, 2, fabric.OpTrace{Ns: 3_000_001}) // slow: above MinSlowNs
	tr.Record(8, trace.KindSet, trace.TransportRPC, 1, fabric.OpTrace{Ns: 90_000})
	tr.HazardInc("drop", 3)
	tr.HazardInc("partition", 1)
	acct := cell.Internal().Acct
	acct.Charge("client", 5000)
	acct.Charge("client", 7000)
	acct.Charge("rpc", 44_000)

	plane := cell.Health()
	get2xr, setRPC := plane.Observer("2xR"), plane.Observer("RPC")
	for i := 0; i < 7; i++ {
		get2xr(trace.KindGet, trace.Transport2xR, 7000, nil)
	}
	get2xr(trace.KindGet, trace.Transport2xR, 0, os.ErrDeadlineExceeded)
	setRPC(trace.KindSet, trace.TransportRPC, 90_000, nil)

	var got bytes.Buffer
	writeMetrics(&got, cell)
	const path = "testdata/metrics.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/metrics differs from %s:\n--- got\n%s\n--- want\n%s", path, got.Bytes(), want)
	}
}
