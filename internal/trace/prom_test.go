package trace_test

import (
	"strings"
	"testing"
	"time"

	"cliquemap/internal/core/cell"
	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
)

// TestWritePromExposition checks the tracing plane's exposition, end to
// end on the one writer: tracer and CPU account → MethodDebug record → the
// cell's scrape → fleet's WriteProm (this package's own writer went with
// the other three).
func TestWritePromExposition(t *testing.T) {
	c, err := cell.New(cell.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Tracer.Record(c.Tracer.NextID(), trace.KindGet, trace.TransportSCAR, 1, fabric.OpTrace{Ns: 7_000})
	c.Acct.Charge("client", 2_000)
	var sb strings.Builder
	cs := c.Scrape(time.Now())
	cs.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"cliquemap_ops_total 1",
		`kind="GET"`,
		`transport="SCAR"`,
		`quantile="0.99"`,
		`cliquemap_cpu_ns_total{component="client"} 2000`,
		`cliquemap_op_latency_ns_sum{kind="GET",transport="SCAR"} 7000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
