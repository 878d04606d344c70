package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
)

func newTCPRig(t *testing.T) (*Network, *TCPGateway, *TCPClient) {
	t.Helper()
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("Echo", func(_ context.Context, _ string, req []byte) ([]byte, error) {
		return req, nil
	})
	s.Handle("Who", func(_ context.Context, principal string, _ []byte) ([]byte, error) {
		return []byte(principal), nil
	})
	g, err := ServeTCP(n, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	c, err := DialTCP(g.Addr(), "remote-user")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return n, g, c
}

func TestTCPRoundTrip(t *testing.T) {
	_, _, c := newTCPRig(t)
	resp, tr, err := c.Call(context.Background(), "b", "Echo", []byte("over-the-wire"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "over-the-wire" {
		t.Errorf("resp = %q", resp)
	}
	if tr.Ns == 0 {
		t.Error("modelled trace not propagated across the socket")
	}
}

func TestTCPPrincipalPropagates(t *testing.T) {
	_, _, c := newTCPRig(t)
	resp, _, err := c.Call(context.Background(), "b", "Who", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "remote-user" {
		t.Errorf("principal = %q", resp)
	}
}

func TestTCPErrorClassesCrossTheWire(t *testing.T) {
	_, _, c := newTCPRig(t)
	_, _, err := c.Call(context.Background(), "b", "Nope", nil)
	if !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("missing method over tcp: %v", err)
	}
	_, _, err = c.Call(context.Background(), "absent", "Echo", nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("missing addr over tcp: %v", err)
	}
}

func TestTCPConcurrentMultiplexing(t *testing.T) {
	_, _, c := newTCPRig(t)
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				req := []byte(fmt.Sprintf("%d-%d", g, i))
				resp, _, err := c.Call(context.Background(), "b", "Echo", req)
				if err != nil {
					errs <- err
					return
				}
				if string(resp) != string(req) {
					errs <- fmt.Errorf("cross-talk: sent %q got %q", req, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPAuthOverWire(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("M", func(context.Context, string, []byte) ([]byte, error) { return nil, nil })
	s.SetAuthenticator(func(principal, method string) error {
		if principal != "alice" {
			return fmt.Errorf("no")
		}
		return nil
	})
	g, err := ServeTCP(n, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	mallory, err := DialTCP(g.Addr(), "mallory")
	if err != nil {
		t.Fatal(err)
	}
	defer mallory.Close()
	if _, _, err := mallory.Call(context.Background(), "b", "M", nil); !errors.Is(err, ErrUnauthenticated) {
		t.Errorf("mallory over tcp: %v", err)
	}
	alice, err := DialTCP(g.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	if _, _, err := alice.Call(context.Background(), "b", "M", nil); err != nil {
		t.Errorf("alice over tcp: %v", err)
	}
}

func TestTCPGatewayCloseFailsInflight(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	block := make(chan struct{})
	s.Handle("Slow", func(context.Context, string, []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	g, err := ServeTCP(n, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP(g.Addr(), "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := c.Call(context.Background(), "b", "Slow", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the handler
	c.Close()                         // client-side teardown
	close(block)                      // unblock the handler so Close can reap
	g.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("in-flight call survived teardown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after teardown")
	}
}

func TestTCPContextCancel(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	block := make(chan struct{})
	s.Handle("Slow", func(context.Context, string, []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	g, err := ServeTCP(n, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP(g.Addr(), "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := c.Call(ctx, "b", "Slow", nil); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("cancelled call: %v", err)
	}
	// Unblock the abandoned handler before Close, which waits for it.
	close(block)
	g.Close()
}

func bufioOver(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// TestTCPGoldenFrames: the frames below were captured from the per-call
// marshal() the TCP path used before it encoded into connection scratch and
// decoded in place. The wire format is byte-identical: the new encoder must
// produce each of them, prefix included, and the in-place decoder must read
// each back to the message it was made from.
func TestTCPGoldenFrames(t *testing.T) {
	zeros := func(n int) string { return strings.Repeat("00", n) }
	reqs := []struct {
		msg tcpRequest
		hex string
	}{
		{tcpRequest{ID: 1, Addr: "backend-0", Method: "CliqueMap.Get", Principal: "bench", Payload: []byte("payload-bytes"), TraceID: 1, Kind: "GET"},
			"0104080112096261636b656e642d301a0d436c697175654d61702e476574220562656e63682a0d7061796c6f61642d627974657330013a034745544000"},
		{tcpRequest{ID: 0x1234567890, Addr: "backend-2", Method: "CliqueMap.Set", Principal: "remote-user", Payload: make([]byte, 200), TraceID: 99, Kind: "SET", Attempt: 3},
			"01040890f1d9a2a30212096261636b656e642d321a0d436c697175654d61702e536574220b72656d6f74652d757365722ac801" + zeros(200) + "30633a035345544003"},
		{tcpRequest{ID: 7, Addr: "b", Method: "Echo"},
			"010408071201621a044563686f22002a00"},
	}
	names := make(internTable)
	for i, tc := range reqs {
		want, _ := hex.DecodeString(tc.hex)
		if got := frameOf(t, &tc.msg); !bytes.Equal(got, want) {
			t.Errorf("request %d encodes to\n%x\nwant\n%x", i, got, want)
		}
		var got tcpRequest
		if err := got.decode(want, names); err != nil || !sameRequest(got, tc.msg) {
			t.Errorf("request %d decodes to %+v, %v; want %+v", i, got, err, tc.msg)
		}
		if len(got.Payload) > 0 && &got.Payload[0] != &want[bytes.Index(want, got.Payload)] {
			t.Errorf("request %d: payload was copied out of its frame", i)
		}
	}

	resps := []struct {
		msg tcpResponse
		hex string
	}{
		{tcpResponse{ID: 1, OK: true, Payload: []byte("value-bytes"), TraceNs: 75989, Spans: []fabric.Span{
			{Code: 5, Arg: 0, Start: 0, Dur: 32000}, {Code: 7, Arg: 157, Start: 32000, Dur: 1200},
			{Code: 6, Arg: 1600, Start: 33200, Dur: 39600}, {Code: 7, Arg: 300, Start: 72800, Dur: 3189}}},
			"0104080110011a0b76616c75652d6279746573220028d5d104320a0805100018002080fa01320c0807109d011880fa0120b009320d080610c00c18b0830220b0b502320c080710ac0218e0b80420f518"},
		{tcpResponse{ID: 2, Err: "rpc: no such method: b Nope", TraceNs: 33200},
			"0104080210001a00221b7270633a206e6f2073756368206d6574686f643a2062204e6f706528b08302"},
		{tcpResponse{ID: 0xffffffffffffffff, OK: true, Payload: make([]byte, 300), TraceNs: 1 << 40, Spans: []fabric.Span{
			{Code: 0xffff, Arg: 0xffffffff, Start: 1<<64 - 1, Dur: 1<<63 + 5}, {}}},
			"010408ffffffffffffffffff0110011aac02" + zeros(300) + "220028808080808020322008ffff0310ffffffff0f18ffffffffffffffffff01208580808080808080800132080800100018002000"},
	}
	for i, tc := range resps {
		want, _ := hex.DecodeString(tc.hex)
		if got := frameOf(t, &tc.msg); !bytes.Equal(got, want) {
			t.Errorf("response %d encodes to\n%x\nwant\n%x", i, got, want)
		}
		var got tcpResponse
		if err := got.decode(want, nil); err != nil || !sameResponse(got, tc.msg) {
			t.Errorf("response %d decodes to %+v, %v; want %+v", i, got, err, tc.msg)
		}
	}
}

// A connection's send scratch carries one frame after another: a long
// frame followed by a short one must not leak the long one's tail, and a
// frame past maxSendScratch must not become the scratch.
func TestTCPSendScratchReuse(t *testing.T) {
	scratch := make([]byte, tcpPrefix, 16)
	var sent bytes.Buffer
	msgs := []tcpRequest{
		{ID: 1, Addr: "a", Method: "M", Payload: bytes.Repeat([]byte{0xab}, 4000)},
		{ID: 2, Addr: "a", Method: "M", Payload: []byte("short")},
		{ID: 3, Addr: "a", Method: "M", Payload: make([]byte, maxSendScratch+1)},
		{ID: 4, Addr: "a", Method: "M"},
	}
	for i := range msgs {
		e := beginTCPFrame(scratch)
		msgs[i].encode(&e)
		if err := writeTCPFrame(&sent, &scratch, e.Encoded()); err != nil {
			t.Fatal(err)
		}
		if cap(scratch) > maxSendScratch {
			t.Fatalf("after frame %d the connection keeps a %d-byte scratch", i, cap(scratch))
		}
	}
	br := bufioOver(sent.Bytes())
	names := make(internTable)
	for i := range msgs {
		frame, err := readTCPFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got tcpRequest
		if err := got.decode(frame, names); err != nil || !sameRequest(got, msgs[i]) {
			t.Fatalf("frame %d read back as id=%d (%d-byte payload), %v", i, got.ID, len(got.Payload), err)
		}
	}
}

// Four bytes from a stranger must not cost a frame-limit-sized buffer: a
// maximal length prefix followed by nothing allocates one chunk, and a
// prefix past the limit allocates nothing.
func TestTCPHostilePrefixAllocatesLittle(t *testing.T) {
	var hdr [tcpPrefix]byte
	binary.LittleEndian.PutUint32(hdr[:], maxTCPFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readTCPFrame(bufioOver(hdr[:]), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a prefix with no frame behind it read as a frame")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a %d-byte length prefix and EOF allocated %d bytes", maxTCPFrame, got)
	}
	binary.LittleEndian.PutUint32(hdr[:], maxTCPFrame+1)
	if _, err := readTCPFrame(bufioOver(hdr[:]), nil); err == nil {
		t.Error("a frame over the limit was accepted")
	}
}

// Frames past wire.ReadFrameBody's first 64 KiB step take the doubling
// path; they must arrive whole, in a buffer of exactly their size, across
// the chunk boundaries.
func TestTCPLargeFrames(t *testing.T) {
	const frameChunk = 64 << 10
	_, _, c := newTCPRig(t)
	for _, n := range []int{frameChunk - 64, frameChunk, 2*frameChunk + 1, 5*frameChunk + 12345} {
		req := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(req)
		resp, _, err := c.Call(context.Background(), "b", "Echo", req)
		if err != nil || !bytes.Equal(resp, req) {
			t.Fatalf("%d-byte echo: %d bytes back, err %v", n, len(resp), err)
		}
	}
	// The buffer itself: exact size, however many steps it took.
	var hdr [tcpPrefix]byte
	binary.LittleEndian.PutUint32(hdr[:], 3*frameChunk+7)
	frame, err := readTCPFrame(bufioOver(append(hdr[:], make([]byte, 3*frameChunk+7)...)), nil)
	if err != nil || len(frame) != 3*frameChunk+7 || cap(frame) != len(frame) {
		t.Errorf("frame of %d bytes read into len %d cap %d, err %v", 3*frameChunk+7, len(frame), cap(frame), err)
	}
}

func TestInternTableBounded(t *testing.T) {
	names := make(internTable)
	for i := 0; i < 10*internEntries; i++ {
		b := []byte(fmt.Sprintf("name-%d", i))
		if got := names.get(b); got != string(b) {
			t.Fatalf("get(%q) = %q", b, got)
		}
	}
	if len(names) != internEntries {
		t.Errorf("table holds %d entries, bound %d", len(names), internEntries)
	}
	long := bytes.Repeat([]byte("x"), internMaxLen+1)
	fresh := make(internTable)
	if got := fresh.get(long); got != string(long) || len(fresh) != 0 {
		t.Errorf("a %d-byte name: returned intact = %v, kept = %v", len(long), got == string(long), len(fresh) != 0)
	}
	if raceEnabled {
		return
	}
	hit := []byte("name-3")
	if n := testing.AllocsPerRun(100, func() { names.get(hit) }); n != 0 {
		t.Errorf("a hit allocates %v times", n)
	}
}

// TestTCPCallAllocBudget holds one traced 256-byte echo over loopback —
// client, gateway and the in-process call behind it — to DESIGN.md's "TCP
// RPC datapath" table: through AppendCall into storage the caller owns, it
// allocates nothing (the frames, the call records and the gateway's reply
// and span storage are all reused), and a plain Call allocates only the
// payload and the spans it hands back.
func TestTCPCallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	_, _, c := newTCPRig(t)
	var ctx trace.OpContext
	ctx.Init(context.Background(), trace.SpanContext{OpID: 42, Kind: trace.KindGet})
	req := make([]byte, 256)
	dst, spans := make([]byte, 0, 512), make([]fabric.Span, 0, 8)
	for _, tc := range []struct {
		name   string
		call   func() ([]byte, fabric.OpTrace, error)
		budget float64
	}{
		{"AppendCall", func() ([]byte, fabric.OpTrace, error) { return c.AppendCall(&ctx, dst, spans, "b", "Echo", req) }, 0},
		{"Call", func() ([]byte, fabric.OpTrace, error) { return c.Call(&ctx, "b", "Echo", req) }, 2},
	} {
		call := func() {
			resp, tr, err := tc.call()
			if err != nil || len(resp) != len(req) || len(tr.Spans) == 0 {
				t.Fatalf("%s echo: %d bytes, %d spans, err %v", tc.name, len(resp), len(tr.Spans), err)
			}
		}
		call() // the connection's dispatcher, scratch, records and intern table warm up
		if got := testing.AllocsPerRun(500, call); got > tc.budget {
			t.Errorf("%v allocations per traced TCP %s, budget %v", got, tc.name, tc.budget)
		}
	}
}

// TestAppendCallAppends: AppendCall, in process and across the socket, puts
// the response after what dst holds and the spans after what spans holds —
// in their storage when it has the room, whether the handler appended to
// the storage it was lent or returned a buffer of its own — and on an error
// hands dst back as it was. Appending reaches a Caller without the append
// form through its Call.
func TestAppendCallAppends(t *testing.T) {
	n, _, tcp := newTCPRig(t)
	s, _ := n.lookup("b")
	s.Handle("Lent", func(ctx context.Context, _ string, req []byte) ([]byte, error) {
		return append(trace.SinkFrom(ctx).Reply(), req...), nil
	})
	var ctx trace.OpContext
	ctx.Init(context.Background(), trace.SpanContext{OpID: 7, Kind: trace.KindGet})
	req := []byte("payload")
	for name, a := range map[string]Appender{
		"in-process": n.Client(0, "p"), "tcp": tcp,
	} {
		for _, method := range []string{"Echo", "Lent"} {
			dst := append(make([]byte, 0, 64), "head"...)
			spans := append(make([]fabric.Span, 0, 8), fabric.Span{Code: 99})
			got, tr, err := a.AppendCall(&ctx, dst, spans, "b", method, req)
			if err != nil || string(got) != "headpayload" || &got[0] != &dst[0] {
				t.Errorf("%s %s: %q, err %v; want headpayload in dst's storage", name, method, got, err)
			}
			if len(tr.Spans) < 2 || tr.Spans[0].Code != 99 || &tr.Spans[0] != &spans[:1][0] {
				t.Errorf("%s %s: spans %+v, want the call's after the one held, in spans' storage", name, method, tr.Spans)
			}
		}
		dst := []byte("head")
		if got, _, err := a.AppendCall(&ctx, dst, nil, "b", "Nope", req); err == nil || string(got) != "head" {
			t.Errorf("%s: a failed call gave %q, %v; want dst as it was and the error", name, got, err)
		}
	}
	if got, _, err := Appending(struct{ Caller }{tcp}).AppendCall(&ctx, nil, nil, "b", "Echo", req); err != nil || string(got) != "payload" {
		t.Errorf("Appending over Call: %q, %v", got, err)
	}
}

// TestAppendCallLendsUntracedSlot: an untraced call whose ctx has an op
// node armed with OpID 0 (a touch flush's leased record) lends its handler
// dst's tail through the node's slot and records no spans; an untraced
// call without a node lends nothing, as before.
func TestAppendCallLendsUntracedSlot(t *testing.T) {
	n, _, _ := newTCPRig(t)
	s, _ := n.lookup("b")
	var lent int // the reply capacity the handler was lent
	s.Handle("Lent", func(ctx context.Context, _ string, req []byte) ([]byte, error) {
		if trace.FromContext(ctx) != nil {
			t.Error("a bare node carried a span context to the handler")
		}
		lent = cap(trace.SinkFrom(ctx).Reply())
		return append(trace.SinkFrom(ctx).Reply(), req...), nil
	})
	var bare trace.OpContext
	bare.Init(context.Background(), trace.SpanContext{})
	c := n.Client(0, "p")
	for _, tc := range []struct {
		name string
		ctx  context.Context
		lent bool
	}{{"bare node", &bare, true}, {"no node", context.Background(), false}} {
		dst := append(make([]byte, 0, 64), "head"...)
		got, tr, err := c.AppendCall(tc.ctx, dst, nil, "b", "Lent", []byte("payload"))
		if err != nil || string(got) != "headpayload" {
			t.Fatalf("%s: %q, %v", tc.name, got, err)
		}
		if len(tr.Spans) != 0 {
			t.Errorf("%s: an untraced call recorded %d spans", tc.name, len(tr.Spans))
		}
		if (lent == 60) != tc.lent {
			t.Errorf("%s: the handler was lent %d bytes of dst's 60-byte tail, want lent=%v", tc.name, lent, tc.lent)
		}
	}
}

// failingConn fails its Write once budget bytes have gone out, part-way
// through whichever frame crosses the line.
type failingConn struct {
	net.Conn
	budget atomic.Int64
}

func (c *failingConn) Write(p []byte) (int, error) {
	if left := c.budget.Add(-int64(len(p))); left < 0 {
		n := max(0, len(p)+int(left))
		c.Conn.Write(p[:n])
		return n, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

type failingListener struct {
	net.Listener
	budget int64
}

func (l *failingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := &failingConn{Conn: conn}
	fc.budget.Store(l.budget)
	return fc, nil
}

// A response the gateway could not write in full leaves the stream
// mis-framed and its caller waiting: the gateway must close the connection,
// so that a caller without a deadline fails instead of hanging.
func TestTCPGatewayClosesOnFailedWrite(t *testing.T) {
	n := newNet(nil)
	n.Serve("b", 1).Handle("Echo", func(_ context.Context, _ string, req []byte) ([]byte, error) { return req, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := serveListener(n, &failingListener{Listener: ln, budget: 600}, 0)
	defer g.Close()
	c, err := DialTCP(g.Addr(), "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ { // ~350 bytes per response: the third dies mid-frame
			if _, _, err := c.Call(context.Background(), "b", "Echo", make([]byte, 256)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("every call succeeded across a connection whose writes fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the call whose response was cut short is still waiting")
	}
	if _, _, err := c.Call(context.Background(), "b", "Echo", nil); err == nil {
		t.Error("the connection still serves after a mis-framed response")
	}
}

// TestTCPGatewayBoundsInflight: a connection that pipelines far more calls
// than tcpDispatchLimit into blocked handlers holds the gateway to its
// dispatchers (plus the server's own workers) — the rest wait in the
// socket — and every call still completes once the handlers unblock.
func TestTCPGatewayBoundsInflight(t *testing.T) {
	const calls, workers = 8 * tcpDispatchLimit, 4
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.SetWorkerLimit(workers)
	block := make(chan struct{})
	var entered atomic.Int32
	s.Handle("Slow", func(_ context.Context, _ string, req []byte) ([]byte, error) {
		entered.Add(1)
		<-block
		return req, nil
	})
	g, err := ServeTCP(n, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c, err := DialTCP(g.Addr(), "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := runtime.NumGoroutine()
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			req := []byte(fmt.Sprintf("call-%d", i))
			resp, _, err := c.Call(context.Background(), "b", "Slow", req)
			if err == nil && !bytes.Equal(resp, req) {
				err = fmt.Errorf("sent %q got %q", req, resp)
			}
			errs <- err
		}(i)
	}
	// Steady state: the server's workers are all inside the handler and the
	// goroutine count has stopped moving.
	deadline := time.Now().Add(5 * time.Second)
	for entered.Load() < workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	peak := 0
	for stable := 0; stable < 20 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if now := runtime.NumGoroutine(); now > peak {
			peak, stable = now, 0
		} else {
			stable++
		}
	}
	// Ours: the callers above. The gateway's: dispatchers, the server's
	// workers, and a few for the connection itself.
	if extra := peak - before - calls; extra > tcpDispatchLimit+workers+4 {
		t.Errorf("%d calls in flight hold %d gateway-side goroutines; the bound is %d dispatchers + %d workers",
			calls, extra, tcpDispatchLimit, workers)
	}
	close(block)
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d calls completed after the handlers unblocked", i, calls)
		}
	}
}

// TestTCPLateResponseAfterCancel hammers the one interleaving pooled call
// records make dangerous: calls give up while their responses are already
// on the way. A record recycled by anyone but the call that received its
// response would deliver that late response to a stranger, so every call
// that succeeds must see its own payload and its own op's spans, and
// nothing else. Each call appends into storage of its own, filled with a
// sentinel: a late response must never land in a call's storage after the
// call gave up. Run it under -race, repeatedly (CI does).
func TestTCPLateResponseAfterCancel(t *testing.T) {
	n := newNet(nil)
	n.Serve("b", 1).Handle("Jitter", func(_ context.Context, _ string, req []byte) ([]byte, error) {
		time.Sleep(time.Duration(req[0]) * 20 * time.Microsecond)
		return req, nil
	})
	g, err := ServeTCP(n, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c, err := DialTCP(g.Addr(), "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines, per = 8, 300
	const sentinel = 0xEE
	var wg sync.WaitGroup
	var served, gaveUp atomic.Int64
	abandoned := make([][][]byte, goroutines) // each given-up call's storage
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				// The payload's length is unique to the call, and the fabric
				// spans that come back are sized by it. Byte 0 is the
				// handler's delay.
				size := 8 + w*per + i
				req := bytes.Repeat([]byte{byte(rng.Intn(8))}, size)
				binary.LittleEndian.PutUint32(req[1:], uint32(size))
				// Most calls may give up around their round trip; every 8th
				// waits it out, so a slow (-race, loaded) host still serves.
				wait := time.Duration(rng.Intn(300)) * time.Microsecond
				if i%8 == 0 {
					wait = time.Second
				}
				ctx, cancel := context.WithTimeout(context.Background(), wait)
				dst := bytes.Repeat([]byte{sentinel}, size)
				resp, tr, err := c.AppendCall(ctx, dst[:0], nil, "b", "Jitter", req)
				cancel()
				if err != nil {
					if !errors.Is(err, ErrDeadlineExceeded) {
						t.Errorf("call %d/%d: %v", w, i, err)
						return
					}
					if len(resp) != 0 {
						t.Errorf("call %d/%d gave up with %d bytes in dst", w, i, len(resp))
					}
					gaveUp.Add(1)
					abandoned[w] = append(abandoned[w], dst)
					continue
				}
				served.Add(1)
				if !bytes.Equal(resp, req) {
					t.Errorf("call %d/%d (%d bytes) received another call's payload (%d bytes)", w, i, size, len(resp))
					return
				}
				reqLeg, ok := firstSpan(tr, trace.SpanFabric)
				if !ok || reqLeg.Arg != uint32(size+128) {
					t.Errorf("call %d/%d (%d bytes) received spans of another call: request leg %+v", w, i, size, reqLeg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if served.Load() == 0 || gaveUp.Load() == 0 {
		t.Errorf("served %d, gave up %d: the hammer needs both outcomes to mean anything", served.Load(), gaveUp.Load())
	}
	// The connection survives its abandoned calls; this call, as slow as the
	// slowest of them, gives their late responses time to arrive.
	if resp, _, err := c.Call(context.Background(), "b", "Jitter", []byte{7, 9, 9, 9, 9}); err != nil || len(resp) != 5 {
		t.Errorf("after the hammer: %v", err)
	}
	for w := range abandoned {
		for _, dst := range abandoned[w] {
			for i, b := range dst {
				if b != sentinel {
					t.Fatalf("worker %d: a call's storage changed at byte %d of %d after it gave up", w, i, len(dst))
				}
			}
		}
	}
}

func firstSpan(tr fabric.OpTrace, code uint16) (fabric.Span, bool) {
	for _, s := range tr.Spans {
		if s.Code == code {
			return s, true
		}
	}
	return fabric.Span{}, false
}

func BenchmarkTCPCall(b *testing.B) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("Echo", func(_ context.Context, _ string, req []byte) ([]byte, error) { return req, nil })
	g, err := ServeTCP(n, "127.0.0.1:0", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	c, err := DialTCP(g.Addr(), "p")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := make([]byte, 256)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Call(ctx, "b", "Echo", req); err != nil {
			b.Fatal(err)
		}
	}
}
