package health_test

import (
	"strings"
	"testing"
	"time"

	"cliquemap/internal/core/cell"
	"cliquemap/internal/trace"
)

// TestWriteProm smoke-checks the health plane's exposition, end to end on
// the one writer: plane → MethodHealth record → the cell's scrape →
// fleet's WriteProm (this package's own writer went with the other three).
func TestWriteProm(t *testing.T) {
	c, err := cell.New(cell.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Health().Observer("2xR")(trace.KindGet, trace.Transport2xR, 10, nil)
	var b strings.Builder
	cs := c.Scrape(time.Now())
	cs.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		`cliquemap_slo_burn_rate{class="GET",window="fast"}`,
		`cliquemap_slo_alert_state{class="GET"} 0`,
		`cliquemap_probe_ops_total{class="GET",outcome="good"} 1`,
		`cliquemap_probe_target_ops_total{target="2xR",outcome="good"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q:\n%s", want, out)
		}
	}
}
