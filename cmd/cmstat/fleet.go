package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"cliquemap/internal/fabric"
	"cliquemap/internal/fleet"
	"cliquemap/internal/rpc"
)

// redialCaller lazily dials a cell gateway and re-dials after a failed
// call. A fleet scrape must outlive any one cell: a gateway that is down
// at startup or dies mid-watch surfaces as a DOWN/STALE roster row and
// recovers on its own once the cell returns, instead of killing cmstat.
type redialCaller struct {
	addr      string
	principal string
	mu        sync.Mutex
	cl        *rpc.TCPClient
}

func (r *redialCaller) Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	r.mu.Lock()
	cl := r.cl
	if cl == nil {
		var err error
		if cl, err = rpc.DialTCP(r.addr, r.principal); err != nil {
			r.mu.Unlock()
			return nil, fabric.OpTrace{}, err
		}
		r.cl = cl
	}
	r.mu.Unlock()
	resp, tr, err := cl.Call(ctx, addr, method, req)
	if err != nil {
		r.mu.Lock()
		if r.cl == cl {
			cl.Close()
			r.cl = nil
		}
		r.mu.Unlock()
	}
	return resp, tr, err
}

// parseFleetTargets parses the -fleet argument: a comma-separated list of
// cell gateways, each optionally named ("us=host:port" or bare
// "host:port", which is named cell<i>).
func parseFleetTargets(spec, principal string) ([]fleet.Target, error) {
	var out []fleet.Target
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr := fmt.Sprintf("cell%d", i), part
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			name, addr = part[:eq], part[eq+1:]
		}
		out = append(out, fleet.Target{Name: name, Caller: &redialCaller{addr: addr, principal: principal}})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no gateways in -fleet %q", spec)
	}
	return out, nil
}

// runFleet drives fleet mode: scrape all cells, render the merged view,
// and repeat on -watch. Output is one of table, -json document, or -prom
// text exposition per round.
func runFleet(ctx context.Context, spec, principal string, watch time.Duration, jsonOut, promOut bool, maxHot int) {
	targets, err := parseFleetTargets(spec, principal)
	if err != nil {
		fatal("%v", err)
	}
	agg := fleet.New(targets, fleet.Options{})
	var prev *fleet.View
	for {
		cur := agg.ScrapeOnce(ctx)
		switch {
		case promOut:
			cur.WriteProm(os.Stdout)
		case jsonOut:
			printFleetJSON(os.Stdout, cur)
		default:
			printFleet(os.Stdout, cur, prev, maxHot)
		}
		if watch <= 0 {
			return
		}
		prev = cur
		time.Sleep(watch)
		if !jsonOut && !promOut {
			fmt.Println()
		}
	}
}

func printFleetJSON(w io.Writer, v *fleet.View) {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		fatal("json encode: %v", err)
	}
}

// printFleet renders one merged fleet view: the per-cell roster (with
// stale-as-of markers for cells that dropped out mid-watch), the merged
// latency distributions, the fleet SLO verdict, the global hot-key
// ranking, and the routing-skew table.
func printFleet(w io.Writer, cur, prev *fleet.View, maxHot int) {
	live := 0
	for _, c := range cur.Cells {
		if !c.Stale && c.Err == "" {
			live++
		}
	}
	fmt.Fprintf(w, "fleet: %d/%d cells live, verdict=%s", live, len(cur.Cells), strings.ToUpper(string(cur.Verdict)))
	if cur.RingOK {
		fmt.Fprintf(w, ", ring v%d", cur.Ring.RingVersion)
	}
	fmt.Fprintln(w)

	tw := newTab(w)
	fmt.Fprintln(tw, "CELL\tSTATE\tKEYS\tMEMORY\tOPS\tOWNED\tOBSERVED\tSKEW")
	skews := make(map[string]fleet.CellSkew, len(cur.Skew))
	for _, s := range cur.Skew {
		skews[s.Name] = s
	}
	for _, c := range cur.Cells {
		state := "up"
		switch {
		case c.Stale:
			state = "STALE as of " + c.At.Format("15:04:05")
		case c.Err != "":
			state = "DOWN (" + c.Err + ")"
		}
		owned, observed, ratio := "-", "-", "-"
		if s, ok := skews[c.Name]; ok {
			observed = fmt.Sprintf("%.1f%%", float64(s.ObservedPpm)/1e4)
			if s.OwnedPpm > 0 {
				owned = fmt.Sprintf("%.1f%%", float64(s.OwnedPpm)/1e4)
				ratio = fmt.Sprintf("%.2f", float64(s.RatioMilli)/1000)
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%d\t%s\t%s\t%s\n",
			c.Name, state, c.Keys, fmtBytes(c.Bytes), c.Ops, owned, observed, ratio)
	}
	tw.Flush()

	if len(cur.Hists) > 0 {
		printLatency(w, cur.Hists, true)
	}

	if len(cur.Classes) > 0 {
		tw = newTab(w)
		fmt.Fprintln(tw, "\nSLO CLASS\tSTATE\tCELLS\tBURN(fast,max)\tBURN(slow,max)\tWINDOW G/B\tPAGES\tWARNS")
		for _, c := range cur.Classes {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%.2f\t%d/%d\t%d\t%d\n",
				c.Class, strings.ToUpper(string(c.State)), c.Cells,
				float64(c.FastBurnMilli)/1000, float64(c.SlowBurnMilli)/1000,
				c.WindowGood, c.WindowBad, c.Pages, c.Warns)
		}
		tw.Flush()
	}

	printHotKeys(w, "GLOBAL HOT KEY", cur.HotKeys, maxHot)

	if prev != nil {
		elapsed := cur.At.Sub(prev.At).Seconds()
		var dOps uint64
		for _, s := range cur.Skew {
			dOps += s.Ops
		}
		if elapsed > 0 {
			fmt.Fprintf(w, "interval: %s ops/s fleet-wide\n", fmtRate(dOps, elapsed))
		}
	}
}
