package cell

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/fabric"
)

// TestPartialRoundAsksCrashedReplicaLast: a partial read round — a
// two-sided R=3.2 quorum, R=2/Immutable's one replica — asks last a member
// whose last leg to this client failed (resilience.go), so once a warmed
// client has met a crash of shard 0 its GETs cost about what they did
// before. Without the rule, each GET whose rotation starts at the dead
// replica pays a failed leg and a second round, on every partial row. The
// one-sided R=3.2 rows ask all three replicas and never read the mark;
// they pin that the full round rides out the crash without it. One client
// per row reads 300 keys once to resolve its replicas, once warm, and
// twice after the crash, on a manual clock advanced by each op's modelled
// time. The check reads the second crash pass: in the first, a 2×R
// client's remembered pointers into the dead replica each cost one data
// read that fails before the pointer is dropped (ptrs.go), with or
// without the mark.
func TestPartialRoundAsksCrashedReplicaLast(t *testing.T) {
	const (
		keys    = 300
		thinkNs = 10_000
		bound   = 1.07 // the second crash pass's mean GET against the warm pass's
	)
	names := make([]string, keys)
	corpus := make(map[string][]byte, keys)
	for i := range names {
		names[i] = fmt.Sprintf("crash-%03d", i)
		corpus[names[i]] = []byte(fmt.Sprintf("value-%03d", i))
	}
	for _, row := range []struct {
		name     string
		mode     config.Mode
		strategy client.Strategy
	}{
		{"R32-RPC", config.R32, client.StrategyRPC},
		{"R32-MSG", config.R32, client.StrategyMSG},
		{"R32-SCAR", config.R32, client.StrategySCAR},
		{"R32-2xR", config.R32, client.Strategy2xR},
		{"R2Imm-RPC", config.R2Immutable, client.StrategyRPC},
		{"R2Imm-MSG", config.R2Immutable, client.StrategyMSG},
		{"R2Imm-SCAR", config.R2Immutable, client.StrategySCAR},
		{"R2Imm-2xR", config.R2Immutable, client.Strategy2xR},
	} {
		t.Run(row.name, func(t *testing.T) {
			clk := &fabric.ManualClock{}
			opt := small32()
			opt.Mode, opt.Fabric = row.mode, fabric.Params{Clock: clk}
			opt.Backend.Geometry.Buckets = 512 // no bucket overflows: every key hits
			c := newTestCell(t, opt)
			ctx := context.Background()
			cl := c.NewClient(client.Options{Strategy: row.strategy})
			if row.mode == config.R2Immutable {
				if err := c.LoadImmutable(ctx, corpus); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, k := range names {
					if err := cl.Set(ctx, []byte(k), corpus[k]); err != nil {
						t.Fatal(err)
					}
				}
			}
			// pass GETs every key and returns the mean modelled GET and the
			// RPC calls per GET.
			pass := func() (meanUs, calls float64) {
				calls0 := c.Net.Calls()
				var ns uint64
				for _, k := range names {
					v, found, tr, err := cl.GetTraced(ctx, []byte(k))
					if err != nil || !found || !bytes.Equal(v, corpus[k]) {
						t.Fatalf("GET %s: %q found=%v err=%v", k, v, found, err)
					}
					ns += tr.Ns
					clk.Advance(tr.Ns + thinkNs)
				}
				return float64(ns) / keys / 1000, float64(c.Net.Calls()-calls0) / keys
			}
			pass()
			warm, warmCalls := pass()
			c.Crash(0)
			m1, c1 := pass()
			m2, c2 := pass()
			t.Logf("warm %.2f µs (%.2f RPC calls/GET) → crashed %.2f, %.2f µs (%.2f, %.2f); mean %.2f µs",
				warm, warmCalls, m1, m2, c1, c2, (m1+m2)/2)
			if m2 > warm*bound {
				t.Errorf("with shard 0 crashed a GET takes %.2f µs, %.1f %% over the warm %.2f µs (bound %.0f %%): the round asks the dead replica first",
					m2, (m2/warm-1)*100, warm, (bound-1)*100)
			}
		})
	}
}
