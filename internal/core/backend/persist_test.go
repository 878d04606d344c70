package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/persist"
	"cliquemap/internal/truetime"
)

// TestWarmRestartRecoversCorpus: a backend restarted against its data
// directory rebuilds the full acked corpus — checkpointed entries,
// journal-tail entries, and tombstones — without any network repair.
func TestWarmRestartRecoversCorpus(t *testing.T) {
	dir := t.TempDir()
	r1 := newRig(t, Options{Shard: 0, DataDir: dir})
	vals := map[string]string{}
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("key-%02d", i), fmt.Sprintf("val-%02d", i)
		if applied, _, _ := r1.b.ApplySet([]byte(k), []byte(v), r1.v()); !applied {
			t.Fatalf("set %s not applied", k)
		}
		vals[k] = v
	}
	if err := r1.b.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Post-checkpoint tail: overwrites, new keys, and an erase — all of
	// this lives only in the journal.
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("key-%02d", i), fmt.Sprintf("val2-%02d", i)
		if applied, _, _ := r1.b.ApplySet([]byte(k), []byte(v), r1.v()); !applied {
			t.Fatalf("overwrite %s not applied", k)
		}
		vals[k] = v
	}
	if applied, _ := r1.b.ApplyErase([]byte("key-20"), r1.v()); !applied {
		t.Fatal("erase not applied")
	}
	delete(vals, "key-20")

	// "Crash": abandon r1 and rebuild a backend over the same directory,
	// the way cell.RestartBegin does.
	r2 := newRig(t, Options{Shard: 0, DataDir: dir, Recovering: true})
	for k, want := range vals {
		got, _, found := r2.b.get(nil, []byte(k))
		if !found {
			t.Fatalf("lost acked write %q after warm restart", k)
		}
		if string(got) != want {
			t.Fatalf("key %q = %q after warm restart, want %q", k, got, want)
		}
	}
	if _, _, found := r2.b.get(nil, []byte("key-20")); found {
		t.Fatal("acked erase resurrected by warm restart")
	}
	if got := r2.b.Len(); got != len(vals) {
		t.Fatalf("recovered %d resident keys, want %d", got, len(vals))
	}
	rs := r2.b.RecoveryStatsSnapshot()
	if rs.RecoveredKeys != uint64(len(vals)) {
		t.Fatalf("RecoveredKeys = %d, want %d", rs.RecoveredKeys, len(vals))
	}
	if rs.ReplayedRecords == 0 {
		t.Fatal("ReplayedRecords = 0, journal tail was not replayed")
	}
	if !rs.Recovering {
		t.Fatal("backend not in recovering state after warm restart")
	}
	if rs.CkptEpoch == 0 {
		t.Fatal("checkpoint epoch not recovered")
	}
}

// TestRecoveringMissBounce: while recovering, resident keys serve over
// RPC but misses bounce with ErrRecovering — the replica withholds its
// miss vote so the quorum cannot agree-miss a key it acked pre-crash.
func TestRecoveringMissBounce(t *testing.T) {
	dir := t.TempDir()
	r1 := newRig(t, Options{Shard: 0, DataDir: dir})
	if applied, _, _ := r1.b.ApplySet([]byte("resident"), []byte("x"), r1.v()); !applied {
		t.Fatal("set not applied")
	}

	r2 := newRig(t, Options{Shard: 0, DataDir: dir, Recovering: true})
	ctx := context.Background()
	client := r2.net.Client(7, "t")
	resp, _, err := client.Call(ctx, "b0", proto.MethodGet, proto.GetReq{Key: []byte("resident")}.Marshal())
	if err != nil {
		t.Fatalf("resident GET bounced while recovering: %v", err)
	}
	gr, err := proto.UnmarshalGetResp(resp)
	if err != nil || !gr.Found || string(gr.Value) != "x" {
		t.Fatalf("resident GET = %+v, err=%v", gr, err)
	}
	_, _, err = client.Call(ctx, "b0", proto.MethodGet, proto.GetReq{Key: []byte("absent")}.Marshal())
	if !errors.Is(err, proto.ErrRecovering) {
		t.Fatalf("miss while recovering: err=%v, want ErrRecovering", err)
	}

	r2.b.EndRecovery()
	resp, _, err = client.Call(ctx, "b0", proto.MethodGet, proto.GetReq{Key: []byte("absent")}.Marshal())
	if err != nil {
		t.Fatalf("miss after EndRecovery: %v", err)
	}
	if gr, _ := proto.UnmarshalGetResp(resp); gr.Found {
		t.Fatal("absent key found after EndRecovery")
	}
	rs := r2.b.RecoveryStatsSnapshot()
	if rs.Recovering {
		t.Fatal("still recovering after EndRecovery")
	}
	// One recovered key, no repair-path settles: it self-validated.
	if rs.SelfValidated != 1 {
		t.Fatalf("SelfValidated = %d, want 1", rs.SelfValidated)
	}
}

// TestWarmRestartSurvivesMidCheckpointCrash: a crash torn mid-checkpoint
// falls back to the journal lineage — nothing acked is lost.
func TestWarmRestartSurvivesMidCheckpointCrash(t *testing.T) {
	for _, point := range []string{"checkpoint.record.torn", "checkpoint.rename", "checkpoint.footer.torn"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			r1 := newRig(t, Options{Shard: 0, DataDir: dir, PersistHook: func(p string) bool { return p == point }})
			vals := map[string]string{}
			for i := 0; i < 25; i++ {
				k, v := fmt.Sprintf("key-%02d", i), fmt.Sprintf("val-%02d", i)
				if applied, _, _ := r1.b.ApplySet([]byte(k), []byte(v), r1.v()); !applied {
					t.Fatalf("set %s not applied", k)
				}
				vals[k] = v
			}
			if err := r1.b.CheckpointNow(); !errors.Is(err, persist.ErrCrashed) {
				t.Fatalf("checkpoint survived crash point %s: %v", point, err)
			}
			r2 := newRig(t, Options{Shard: 0, DataDir: dir, Recovering: true})
			for k, want := range vals {
				got, _, found := r2.b.get(nil, []byte(k))
				if !found || string(got) != want {
					t.Fatalf("lost acked write %q after crash at %s", k, point)
				}
			}
		})
	}
}

// TestJournalDepthTriggersCheckpoint: the mutation whose journal record
// crosses CheckpointEvery collapses the journal into a checkpoint before
// it returns — nothing else in the test takes one.
func TestJournalDepthTriggersCheckpoint(t *testing.T) {
	const every = 16
	dir := t.TempDir()
	r := newRig(t, Options{Shard: 0, DataDir: dir, CheckpointEvery: every})
	for i := 0; i < 4*every; i++ {
		if applied, _, _ := r.b.ApplySet([]byte(fmt.Sprintf("k%03d", i)), []byte("v"), r.v()); !applied {
			t.Fatalf("set %d not applied", i)
		}
	}
	rs := r.b.RecoveryStatsSnapshot()
	if rs.CkptEpoch == 0 {
		t.Fatal("no checkpoint after crossing the journal-depth trigger")
	}
	if rs.JournalRecords >= every {
		t.Fatalf("journal depth %d after the last SET returned, want < %d", rs.JournalRecords, every)
	}
}

// TestJournalDepthCheckpointLetsOtherStripesWrite: the SET that crosses
// CheckpointEvery scans the corpus inline, one stripe at a time, so SETs
// on other stripes keep completing while it runs — and every write acked
// during a scan is in the new journal, so a reopen recovers it.
func TestJournalDepthCheckpointLetsOtherStripesWrite(t *testing.T) {
	const corpus, every, writers, perWriter = 4096, 512, 4, 400
	var scanning atomic.Bool // between a checkpoint's begin and its footer
	dir := t.TempDir()
	geo := layout.Geometry{Buckets: 4096} // room for the corpus: nothing is evicted
	r1 := newRig(t, Options{Shard: 0, DataDir: dir, CheckpointEvery: every, Geometry: geo, PersistHook: func(p string) bool {
		switch p {
		case "checkpoint.begin":
			scanning.Store(true)
		case "checkpoint.footer":
			scanning.Store(false)
		}
		return false
	}})
	val := make([]byte, 256)
	for i := 0; i < corpus; i++ {
		if applied, _, _ := r1.b.ApplySet([]byte(fmt.Sprintf("c%05d", i)), val, r1.gen.Next()); !applied {
			t.Fatalf("corpus set %d not applied", i)
		}
	}
	epoch := r1.b.RecoveryStatsSnapshot().CkptEpoch
	acked := make([]map[string]truetime.Version, writers)
	var during atomic.Int64 // SETs acked while a checkpoint was scanning
	var sets sync.WaitGroup
	for w := 0; w < writers; w++ {
		acked[w] = map[string]truetime.Version{}
		sets.Add(1)
		go func(w int) {
			defer sets.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-k%03d", w, i)
				v := r1.gen.Next()
				if applied, _, _ := r1.b.ApplySet([]byte(k), []byte(k), v); applied {
					acked[w][k] = v
					if scanning.Load() {
						during.Add(1)
					}
				}
			}
		}(w)
	}
	sets.Wait()
	if c := r1.b.CountersSnapshot(); c.CapacityEvictions+c.AssocEvictions != 0 {
		t.Fatalf("%d evictions: the corpus must fit, or a lost key proves nothing", c.CapacityEvictions+c.AssocEvictions)
	}
	if got := r1.b.RecoveryStatsSnapshot().CkptEpoch; got <= epoch {
		t.Fatalf("checkpoint epoch %d after %d more SETs, want past %d", got, writers*perWriter, epoch)
	}
	if during.Load() == 0 {
		t.Fatal("no SET completed while an inline checkpoint was scanning")
	}

	r2 := newRig(t, Options{Shard: 0, DataDir: dir, Geometry: geo, Recovering: true})
	for w := range acked {
		if len(acked[w]) != perWriter {
			t.Fatalf("writer %d: %d of %d SETs acked", w, len(acked[w]), perWriter)
		}
		for k, want := range acked[w] {
			if got, ver, found := r2.b.get(nil, []byte(k)); !found || string(got) != k || ver != want {
				t.Fatalf("key %q after reopen: found=%v value=%q version=%v, want version %v", k, found, got, ver, want)
			}
		}
	}
}

// TestConcurrentCheckpointsRecoverEveryAckedKey: explicit CheckpointNow
// callers overlapping each other and the journal-depth trigger must not
// interleave records in the one temp image — every acked SET survives a
// reopen at its acked version.
func TestConcurrentCheckpointsRecoverEveryAckedKey(t *testing.T) {
	dir := t.TempDir()
	r1 := newRig(t, Options{Shard: 0, DataDir: dir, CheckpointEvery: 8})
	const writers, perWriter, checkpointers = 4, 150, 4
	acked := make([]map[string]truetime.Version, writers)
	stop := make(chan struct{})
	var ckpts, sets sync.WaitGroup
	for c := 0; c < checkpointers; c++ {
		ckpts.Add(1)
		go func() {
			defer ckpts.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r1.b.CheckpointNow(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		acked[w] = map[string]truetime.Version{}
		sets.Add(1)
		go func(w int) {
			defer sets.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-k%03d", w, i%60) // overwrites too
				v := r1.gen.Next()
				if applied, _, _ := r1.b.ApplySet([]byte(k), []byte(k), v); applied {
					acked[w][k] = v
				}
			}
		}(w)
	}
	sets.Wait()
	close(stop)
	ckpts.Wait()

	r2 := newRig(t, Options{Shard: 0, DataDir: dir, Recovering: true})
	for w := range acked {
		for k, want := range acked[w] {
			got, ver, found := r2.b.get(nil, []byte(k))
			if !found || string(got) != k || ver != want {
				t.Fatalf("key %q after reopen: found=%v value=%q version=%v, want version %v", k, found, got, ver, want)
			}
		}
	}
}
