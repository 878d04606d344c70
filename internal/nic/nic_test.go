package nic_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/onerma"
	"cliquemap/internal/pony"
	"cliquemap/internal/rmem"
	"cliquemap/internal/stats"
)

// rowRig is a client and a server NIC of one row on a manual clock, the
// server holding one 64 KiB window.
type rowRig struct {
	f      *fabric.Fabric
	clk    *fabric.ManualClock
	conn   *nic.Conn
	client *nic.NIC
	win    rmem.WindowID
	acct   *stats.CPUAccount
	hist   *stats.Histogram
}

var rows = []struct {
	name string
	nics func(f *fabric.Fabric, reg *rmem.Registry, acct *stats.CPUAccount, hist *stats.Histogram) (client, server *nic.NIC)
}{
	{"pony", func(f *fabric.Fabric, reg *rmem.Registry, acct *stats.CPUAccount, _ *stats.Histogram) (*nic.NIC, *nic.NIC) {
		return pony.New(f.Host(0), nil, pony.CostModel{}, pony.EngineConfig{}, acct), pony.New(f.Host(1), reg, pony.CostModel{}, pony.EngineConfig{}, acct)
	}},
	{"1rma", func(f *fabric.Fabric, reg *rmem.Registry, acct *stats.CPUAccount, hist *stats.Histogram) (*nic.NIC, *nic.NIC) {
		return onerma.New(f.Host(0), nil, onerma.CostModel{}, acct, hist), onerma.New(f.Host(1), reg, onerma.CostModel{}, acct, nil)
	}},
}

func newRowRig(t *testing.T, row int, serverReg bool) *rowRig {
	t.Helper()
	r := &rowRig{clk: &fabric.ManualClock{}, acct: stats.NewCPUAccount(), hist: &stats.Histogram{}}
	r.clk.Advance(1_000_000)
	r.f = fabric.New(2, fabric.Params{Clock: r.clk})
	reg := rmem.NewRegistry()
	region := rmem.NewRegion(1<<16, 1<<16)
	region.Write(100, []byte("one-sided"))
	r.win = reg.Register(region, 1).ID
	if !serverReg {
		reg = nil
	}
	var server *nic.NIC
	r.client, server = rows[row].nics(r.f, reg, r.acct, r.hist)
	r.conn = nic.Dial(r.f, r.client, server)
	return r
}

// bill renders one leg's outcome and everything it left behind: its
// error, ns, bytes and spans, the CPU account's components, and the
// hardware timestamps.
func (r *rowRig) bill(tr fabric.OpTrace, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err=%v ns=%d bytes=%d spans=%v cpu=", err, tr.Ns, tr.Bytes, tr.Spans)
	for _, c := range r.acct.Components() {
		fmt.Fprintf(&b, "%s:%d/%d,", c, r.acct.TotalNanos(c), r.acct.OpCount(c))
	}
	fmt.Fprintf(&b, " hw=%d/%d", r.hist.Count(), r.hist.Max())
	return b.String()
}

// TestLegBills pins each row's bill for a one-sided read on every outcome
// — a hit, a damaged extent, a revoked window, a down or client-only or
// isolated target, a down initiator — pinned and unpinned, and the bill of
// the pinned hit that follows once the fault is healed, which shows what
// the failed leg left on the hosts' downlinks and in the rows' state. The
// values are the ones the two per-substrate NIC implementations produced
// before one leg skeleton replaced them.
func TestLegBills(t *testing.T) {
	for _, tc := range []struct {
		name      string
		serverReg bool
		off, n    int
		prep      func(r *rowRig)
	}{
		{"hit", true, 96, 1024, nil},
		{"damaged extent", true, 0, 1 << 40, nil},
		{"revoked window", true, 0, 64, func(r *rowRig) { r.conn.Target().Registry().Revoke(r.win) }},
		{"target down", true, 0, 64, func(r *rowRig) { r.conn.Target().SetDown(true) }},
		{"client-only target", false, 0, 64, nil},
		{"isolated target", true, 0, 64, func(r *rowRig) { r.f.IsolateHost(1) }},
		{"initiator down", true, 0, 64, func(r *rowRig) { r.client.SetDown(true) }},
		{"brownout", true, 0, 4096, func(r *rowRig) { r.conn.Target().SetServiceDelay(7_000) }},
	} {
		for i, row := range rows {
			for _, at := range []uint64{0, 990_000} {
				name := fmt.Sprintf("%s/%s/at %d", row.name, tc.name, at)
				t.Run(name, func(t *testing.T) {
					r := newRowRig(t, i, tc.serverReg)
					if tc.prep != nil {
						tc.prep(r)
					}
					_, tr, err := r.conn.Read(at, r.win, tc.off, tc.n)
					got := []string{r.bill(tr, err)}
					r.f.HealLinks()
					r.conn.Target().SetDown(false)
					r.client.SetDown(false)
					r.clk.Advance(1_000)
					_, tr, err = r.conn.Read(1_001_000, r.win, 96, 1024)
					got = append(got, r.bill(tr, err))
					if want := legBills[name]; !equal(got, want) {
						t.Errorf("%q: {\n%q,\n%q},\nwant\n%q", name, got[0], got[1], want)
					}
				})
			}
		}
	}
}

func equal(a, b []string) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

// TestMessageBills pins a two-sided message's bill on Pony on every
// outcome — answered, a handler error, no handler, a down or isolated
// target — pinned and unpinned.
func TestMessageBills(t *testing.T) {
	echo := func(r []byte) ([]byte, error) { return r, nil }
	for _, tc := range []struct {
		name string
		prep func(r *rowRig, server *nic.NIC)
	}{
		{"ok", func(_ *rowRig, s *nic.NIC) {
			s.SetMsgHandler(func(r []byte) ([]byte, error) { return append(r, "-pong"...), nil })
		}},
		{"handler error", func(_ *rowRig, s *nic.NIC) {
			s.SetMsgHandler(func([]byte) ([]byte, error) { return nil, errors.New("boom") })
		}},
		{"no handler", func(*rowRig, *nic.NIC) {}},
		{"target down", func(_ *rowRig, s *nic.NIC) { s.SetMsgHandler(echo); s.SetDown(true) }},
		{"isolated target", func(r *rowRig, s *nic.NIC) { s.SetMsgHandler(echo); r.f.IsolateHost(1) }},
	} {
		for _, at := range []uint64{0, 990_000} {
			name := fmt.Sprintf("%s/at %d", tc.name, at)
			r := newRowRig(t, 0, true)
			tc.prep(r, r.conn.Target())
			resp, tr, err := r.conn.Message(at, make([]byte, 300))
			if got := fmt.Sprintf("resp=%d ", len(resp)) + r.bill(tr, err); got != msgBills[name] {
				t.Errorf("%s:\n got %q\nwant %q", name, got, msgBills[name])
			}
		}
	}
}

// TestTwoSidedAndScarByRow: SCAR and messaging are capabilities of the
// row. On 1RMA both refuse before billing anything, and its NIC reports no
// messaging, so a cell gives its clients no message path.
func TestTwoSidedAndScarByRow(t *testing.T) {
	for i, row := range rows {
		r := newRowRig(t, i, true)
		_, scarTr, scarErr := r.conn.ScanAndRead(0, r.win, 0, 64, hashring.KeyHash{}, 4)
		_, msgTr, msgErr := r.conn.Message(0, []byte("x"))
		offered := row.name == "pony"
		if r.conn.SupportsScar() != offered || r.client.Messaging() != offered {
			t.Errorf("%s: SupportsScar %v, Messaging %v; want both %v", row.name, r.conn.SupportsScar(), r.client.Messaging(), offered)
		}
		if offered {
			// No handler is installed: the message finds no one to serve it.
			if scarErr != nil || !errors.Is(msgErr, nic.ErrUnreachable) {
				t.Errorf("%s: SCAR err %v, message err %v", row.name, scarErr, msgErr)
			}
			continue
		}
		if !errors.Is(scarErr, nic.ErrNotSupported) || !errors.Is(msgErr, nic.ErrNotSupported) ||
			scarTr.Ns+msgTr.Ns != 0 || scarTr.Spans != nil || msgTr.Spans != nil || len(r.acct.Components()) != 0 {
			t.Errorf("%s: SCAR %v %+v, message %v %+v, CPU %v", row.name, scarErr, scarTr, msgErr, msgTr, r.acct.Components())
		}
	}
}
