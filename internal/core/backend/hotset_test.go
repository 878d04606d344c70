package backend

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"cliquemap/internal/core/proto"
)

// touchOverRPC reports keys to the rig's backend the way a client's flush
// does, and returns the request buffer the handler was given.
func touchOverRPC(t *testing.T, r *rig, keys [][]byte) []byte {
	t.Helper()
	req := proto.TouchReq{Keys: keys}.Marshal()
	if _, _, err := r.net.Client(5, "test").Call(context.Background(), "b0", proto.MethodTouch, req); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestEvalHotUnchangedSetAllocatesNothing: re-evaluating the promoted set
// over a sketch whose hot keys have not changed — what almost every touch
// window does — selects into the backend's scratch, finds the published set
// again, and builds nothing.
func TestEvalHotUnchangedSetAllocatesNothing(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	var batch [][]byte
	for i := 0; i < 64; i++ {
		batch = append(batch, []byte(fmt.Sprintf("hot-%d", i%4)), []byte(fmt.Sprintf("cold-%d", i)))
	}
	for i := 0; i < 8; i++ {
		touchOverRPC(t, r, batch)
	}
	epoch, hot := r.b.HotSnapshot()
	if epoch == 0 || len(hot) != 4 {
		t.Fatalf("promoted %q at epoch %d, want the four hot keys", hot, epoch)
	}
	total := r.b.Heat().Total()
	if got := testing.AllocsPerRun(100, func() { r.b.evalHot(total) }); got != 0 {
		t.Errorf("%v allocations per evaluation of an unchanged set, want 0", got)
	}
	if again, _ := r.b.HotSnapshot(); again != epoch {
		t.Errorf("epoch moved %d → %d over an unchanged set", epoch, again)
	}
}

// TestTouchHandlerKeepsNoRequestBytes: the decoded TouchReq aliases the
// request, which is the handler's only until it returns — a client reuses
// the buffer for its next batch. Whatever the backend keeps of a touch (the
// heat sketch's keys, the promoted set) must be its own copy.
func TestTouchHandlerKeepsNoRequestBytes(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	var batch [][]byte
	for i := 0; i < 64; i++ {
		batch = append(batch, []byte(fmt.Sprintf("hot-%d", i%2)))
	}
	for i := 0; i < 8; i++ {
		req := touchOverRPC(t, r, batch)
		for j := range req {
			req[j] = 'X'
		}
	}
	_, hot := r.b.HotSnapshot()
	if len(hot) != 2 || !bytes.Equal(hot[0], []byte("hot-0")) || !bytes.Equal(hot[1], []byte("hot-1")) {
		t.Errorf("promoted set %q changed with the request buffer, want [hot-0 hot-1]", hot)
	}
	for _, hk := range r.b.Heat().TopN(0) {
		if hk.Key != "hot-0" && hk.Key != "hot-1" {
			t.Errorf("heat sketch tracks %q: a view of a recycled request", hk.Key)
		}
	}
}
