package shim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// memStore is a trivial Store for protocol tests.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemStore() *memStore { return &memStore{m: make(map[string][]byte)} }

func (s *memStore) Get(_ context.Context, key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[string(key)]
	return append([]byte(nil), v...), ok, nil
}

func (s *memStore) Set(_ context.Context, key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[string(key)] = append([]byte(nil), value...)
	return nil
}

func (s *memStore) Erase(_ context.Context, key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, string(key))
	return nil
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("frame-payload")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("frame = %q", got)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(p []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, p); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		return err == nil && bytes.Equal(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4GiB length prefix
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("oversize frame accepted")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("hello"))
	short := buf.Bytes()[:6]
	if _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Error("truncated frame accepted")
	}
}

// Four bytes from the other side of the pipe must not cost a frame-limit-
// sized buffer: a maximal length prefix followed by nothing allocates one
// chunk, and a prefix past the limit allocates nothing.
func TestShimHostilePrefixAllocatesLittle(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a prefix with no frame behind it read as a frame")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a %d-byte length prefix and EOF allocated %d bytes", MaxFrame, got)
	}
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Error("a frame over the limit was accepted")
	}
}

// TestGoldenFrames: the frames below were captured from the hand-written
// Marshal bodies Request and Response had before their wire tags became
// the codec. The tag-driven encoder must produce each of them and the
// decoder must read each back to the message it was made from.
func TestGoldenFrames(t *testing.T) {
	reqs := []struct {
		msg Request
		hex string
	}{
		{Request{}, "0104080010001a002200"},
		{Request{ID: 1, Op: OpPing}, "0104080110001a002200"},
		{Request{ID: 2, Op: OpGet, Key: []byte("user:42")}, "0104080210011a07757365723a34322200"},
		{Request{ID: 0x1234567890, Op: OpSet, Key: []byte("k"), Value: []byte("hello world")},
			"01040890f1d9a2a30210021a016b220b68656c6c6f20776f726c64"},
		{Request{ID: 300, Op: OpErase, Key: []byte{0, 1, 2, 0xff}}, "010408ac0210031a04000102ff2200"},
		{Request{ID: 7, Op: Op(200), Value: []byte("v-only")}, "0104080710c8011a002206762d6f6e6c79"},
	}
	for i, tc := range reqs {
		want, _ := hex.DecodeString(tc.hex)
		if got := tc.msg.Marshal(); !bytes.Equal(got, want) {
			t.Errorf("request %d encodes to\n%x\nwant\n%x", i, got, want)
		}
		if got, err := UnmarshalRequest(want); err != nil || !reflect.DeepEqual(got, tc.msg) {
			t.Errorf("request %d decodes to %+v, %v; want %+v", i, got, err, tc.msg)
		}
	}
	resps := []struct {
		msg Response
		hex string
	}{
		{Response{}, "0104080010001a002200"},
		{Response{ID: 1, Found: true}, "0104080110011a002200"},
		{Response{ID: 2, Found: true, Value: []byte("value-bytes")}, "0104080210011a0b76616c75652d62797465732200"},
		{Response{ID: 0x1234567890, Err: "shim: unknown op 9"},
			"01040890f1d9a2a30210001a0022127368696d3a20756e6b6e6f776e206f702039"},
		{Response{ID: 300, Value: []byte{0, 0xff}, Err: "x"}, "010408ac0210001a0200ff220178"},
	}
	for i, tc := range resps {
		want, _ := hex.DecodeString(tc.hex)
		if got := tc.msg.Marshal(); !bytes.Equal(got, want) {
			t.Errorf("response %d encodes to\n%x\nwant\n%x", i, got, want)
		}
		if got, err := UnmarshalResponse(want); err != nil || !reflect.DeepEqual(got, tc.msg) {
			t.Errorf("response %d decodes to %+v, %v; want %+v", i, got, err, tc.msg)
		}
	}
}

func TestRequestResponseRoundTrip(t *testing.T) {
	req := Request{ID: 7, Op: OpSet, Key: []byte("k"), Value: []byte("v")}
	got, err := UnmarshalRequest(req.Marshal())
	if err != nil || got.ID != 7 || got.Op != OpSet || string(got.Key) != "k" || string(got.Value) != "v" {
		t.Errorf("request: %+v %v", got, err)
	}
	resp := Response{ID: 7, Found: true, Value: []byte("v"), Err: "boom"}
	r2, err := UnmarshalResponse(resp.Marshal())
	if err != nil || r2.ID != 7 || !r2.Found || string(r2.Value) != "v" || r2.Err != "boom" {
		t.Errorf("response: %+v %v", r2, err)
	}
}

func TestInProcessShimEndToEnd(t *testing.T) {
	store := newMemStore()
	p, _ := ProfileFor("go")
	ip, err := NewInProcess(context.Background(), store, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	cl := ip.Client

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Set([]byte("k"), []byte("shim-value")); err != nil {
		t.Fatal(err)
	}
	v, found, shimNs, err := cl.Get([]byte("k"))
	if err != nil || !found || string(v) != "shim-value" {
		t.Fatalf("get: %q %v %v", v, found, err)
	}
	if shimNs == 0 {
		t.Error("go shim should bill latency")
	}
	if err := cl.Erase([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, found, _, _ := cl.Get([]byte("k")); found {
		t.Error("erased key visible through shim")
	}
	if cl.OpsDone() < 4 {
		t.Errorf("ops done = %d", cl.OpsDone())
	}
}

func TestShimManyOps(t *testing.T) {
	store := newMemStore()
	p, _ := ProfileFor("java")
	ip, err := NewInProcess(context.Background(), store, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if _, err := ip.Client.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		v, found, _, err := ip.Client.Get(k)
		if err != nil || !found || !bytes.Equal(v, k) {
			t.Fatalf("k%d: %q %v %v", i, v, found, err)
		}
	}
}

func TestProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 || ps[0].Name != "cpp" {
		t.Fatalf("profiles: %+v", ps)
	}
	if ps[0].PipeHop {
		t.Error("cpp must be native (no pipe hop)")
	}
	// Figure 6 ordering: python is the slowest, cpp free.
	var cpp, java, golang, py Profile
	for _, p := range ps {
		switch p.Name {
		case "cpp":
			cpp = p
		case "java":
			java = p
		case "go":
			golang = p
		case "py":
			py = p
		}
	}
	if !(cpp.ShimCPUNs < golang.ShimCPUNs && golang.ShimCPUNs < java.ShimCPUNs && java.ShimCPUNs < py.ShimCPUNs) {
		t.Errorf("CPU ordering wrong: cpp=%d go=%d java=%d py=%d", cpp.ShimCPUNs, golang.ShimCPUNs, java.ShimCPUNs, py.ShimCPUNs)
	}
	if _, err := ProfileFor("rust"); err == nil {
		t.Error("unknown language accepted")
	}
}

func TestServeUnknownOp(t *testing.T) {
	store := newMemStore()
	p, _ := ProfileFor("cpp")
	ip, err := NewInProcess(context.Background(), store, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	resp, err := ip.Client.roundTrip(Request{Op: Op(99)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Error("unknown op accepted")
	}
}

func TestServeStopsOnEOF(t *testing.T) {
	store := newMemStore()
	r, w := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- Serve(context.Background(), r, io.Discard, store) }()
	w.Close()
	if err := <-done; err != nil && !errors.Is(err, io.EOF) {
		t.Errorf("serve exit: %v", err)
	}
}

func BenchmarkShimGet(b *testing.B) {
	store := newMemStore()
	store.Set(context.Background(), []byte("k"), make([]byte, 1024))
	p, _ := ProfileFor("go")
	ip, err := NewInProcess(context.Background(), store, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer ip.Close()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ip.Client.Get([]byte("k")); err != nil {
			b.Fatal(err)
		}
	}
}
