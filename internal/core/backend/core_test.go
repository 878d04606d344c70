package backend

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/persist"
	"cliquemap/internal/truetime"
)

// compressible is a value the DEFLATE threshold used below always shrinks.
var compressible = bytes.Repeat([]byte("cliquemap "), 40)

// corpusView is one enumeration's (key → version) picture of the corpus:
// resident entries and exact tombstones.
type corpusView struct{ resident, tombs map[string]truetime.Version }

func newCorpusView() corpusView {
	return corpusView{map[string]truetime.Version{}, map[string]truetime.Version{}}
}

func (v corpusView) diff(t *testing.T, name string, want corpusView) {
	t.Helper()
	for _, side := range []struct {
		what      string
		got, want map[string]truetime.Version
	}{{"resident", v.resident, want.resident}, {"tombstone", v.tombs, want.tombs}} {
		if len(side.got) != len(side.want) {
			t.Errorf("%s: %d %s entries, want %d", name, len(side.got), side.what, len(side.want))
		}
		for k, ver := range side.want {
			if got, ok := side.got[k]; !ok || got != ver {
				t.Errorf("%s: %s %q = %v (present=%v), want %v", name, side.what, k, got, ok, ver)
			}
		}
	}
}

// TestCorpusViewsAgree: every enumeration of the corpus is the one walker,
// so Items, a paged scan, the checkpoint image, compact-restart survivors
// and the post-resize GC all see the same keys at the same versions — and
// the one damaged entry is quarantined by whichever of them meets it first,
// exactly once.
func TestCorpusViewsAgree(t *testing.T) {
	dir := t.TempDir()
	r := newRig(t, Options{
		Shard: 0, DataDir: dir,
		Geometry:          layout.Geometry{Buckets: 2, Ways: 4},
		MaxLoadFactor:     10, // no resize: the ninth key must overflow
		OverflowFallback:  true,
		CompressThreshold: 64,
		TombstoneCap:      1,
	})
	want := newCorpusView()
	set := func(k string, val []byte) {
		v := r.v()
		if applied, _, _ := r.b.ApplySet([]byte(k), val, v); !applied {
			t.Fatalf("set %s not applied", k)
		}
		want.resident[k] = v
	}
	for i := 0; i < 12; i++ { // 8 slots: at least 4 park in the side shards
		set(fmt.Sprintf("k%02d", i), []byte("plain"))
	}
	set("k00", []byte("overwritten"))
	set("k01", compressible)
	if r.b.CountersSnapshot().Overflows == 0 {
		t.Fatal("fixture has no side-table entry")
	}
	for _, k := range []string{"t-pending", "t-live"} { // cap 1: the first is demoted
		v := r.v()
		r.b.ApplyErase([]byte(k), v)
		want.tombs[k] = v
	}
	if r.b.tomb.n[pendingStage] != 1 || r.b.tomb.n[exactStage] != 1 {
		t.Fatalf("fixture tombstones: %d exact, %d pending", r.b.tomb.n[exactStage], r.b.tomb.n[pendingStage])
	}
	damaged := r.b.CorruptEntries(1, 7)
	if len(damaged) != 1 {
		t.Fatalf("corrupted %d entries, want 1", len(damaged))
	}
	delete(want.resident, string(damaged[0]))

	items := func() corpusView {
		v := newCorpusView()
		for _, it := range r.b.Items(-1, 0) {
			v.resident[string(it.Key)] = it.Version
		}
		v.tombs = want.tombs // Items carries no tombstones
		return v
	}
	items().diff(t, "Items", want)

	paged := newCorpusView()
	for cursor, pages := uint64(0), 0; ; pages++ {
		resp := r.b.scan(proto.ScanReq{Shard: -1, Cursor: cursor, Limit: 3})
		for _, it := range resp.Items {
			if it.Tombstone {
				paged.tombs[string(it.Key)] = it.Version
			} else {
				paged.resident[string(it.Key)] = it.Version
			}
		}
		if resp.Done {
			if pages < 2 {
				t.Errorf("Limit=3 scan finished in %d pages", pages+1)
			}
			break
		}
		cursor = resp.NextCursor
	}
	paged.diff(t, "paged scan", want)

	if err := r.b.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	images, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.cm"))
	if len(images) != 1 {
		t.Fatalf("checkpoint images: %v", images)
	}
	raw, err := os.ReadFile(images[0])
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err := persist.DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := newCorpusView()
	for _, rec := range recs {
		if rec.Op == persist.OpErase {
			ckpt.tombs[string(rec.Key)] = rec.Version
		} else {
			ckpt.resident[string(rec.Key)] = rec.Version
		}
		if string(rec.Key) == "k01" && !bytes.Equal(rec.Value, compressible) {
			t.Error("checkpoint carries k01's stored (compressed) bytes, not its value")
		}
	}
	ckpt.diff(t, "checkpoint", want)

	r.b.CompactRestart(0.2)
	items().diff(t, "CompactRestart survivors", want)

	// Post-resize GC as shard 0 of 3 with one replica: everything whose
	// primary shard is not 0 is foreign.
	kept, foreign := newCorpusView(), 0
	for k, v := range want.resident {
		if shardOf(r, k) == 0 {
			kept.resident[k] = v
		} else {
			foreign++
		}
	}
	for k, v := range want.tombs {
		if shardOf(r, k) == 0 {
			kept.tombs[k] = v
		}
	}
	if got := r.b.DropForeign(3, 1); got != foreign {
		t.Errorf("DropForeign dropped %d, want %d", got, foreign)
	}
	after := newCorpusView()
	for _, it := range r.b.scan(proto.ScanReq{Shard: -1, Limit: 1 << 20}).Items {
		if it.Tombstone {
			after.tombs[string(it.Key)] = it.Version
		} else {
			after.resident[string(it.Key)] = it.Version
		}
	}
	after.diff(t, "after DropForeign", kept)

	if got := r.b.CountersSnapshot().CorruptPurged; got != 1 {
		t.Errorf("CorruptPurged = %d, want 1", got)
	}
}

// TestEveryPublishIsTeed: each way a mutation can be published yields
// exactly one handoff-journal key and one durable record carrying the
// client-visible value; each way it can be rejected yields neither.
func TestEveryPublishIsTeed(t *testing.T) {
	full := Options{Geometry: layout.Geometry{Buckets: 1, Ways: 2}, MaxLoadFactor: 10}
	fullSide := full
	fullSide.OverflowFallback = true
	fill := func(r *rig) { // occupy both ways of the only bucket
		r.b.ApplySet([]byte("a"), compressible, r.v())
		r.b.ApplySet([]byte("b"), compressible, r.v())
	}
	seed := func(r *rig) { r.b.ApplySet([]byte("k"), compressible, r.v()) }
	var old truetime.Version // a version below everything setup wrote
	setOp := func(k string) func(*rig, truetime.Version) bool {
		return func(r *rig, v truetime.Version) bool {
			ok, _, _ := r.b.ApplySet([]byte(k), compressible, v)
			return ok
		}
	}
	cases := []struct {
		name  string
		opt   Options
		setup func(r *rig)
		op    func(r *rig, v truetime.Version) bool
		key   string
		erase bool
		want  bool
	}{
		{name: "insert", key: "k", want: true,
			op: setOp("k")},
		{name: "overwrite", setup: seed, key: "k", want: true,
			op: setOp("k")},
		{name: "overflow to side", opt: fullSide, setup: fill, key: "c", want: true,
			op: setOp("c")},
		{name: "assoc-evict insert", opt: full, setup: fill, key: "c", want: true,
			op: setOp("c")},
		{name: "cas", setup: seed, key: "k", want: true,
			op: func(r *rig, v truetime.Version) bool {
				_, cur, _ := r.b.get(nil, []byte("k"))
				ok, _ := r.b.ApplyCas([]byte("k"), compressible, cur, v)
				return ok
			}},
		{name: "erase", setup: seed, key: "k", erase: true, want: true,
			op: func(r *rig, v truetime.Version) bool { ok, _ := r.b.ApplyErase([]byte("k"), v); return ok }},
		{name: "update-version resident", setup: seed, key: "k", want: true,
			op: func(r *rig, v truetime.Version) bool { return r.b.updateVersion([]byte("k"), v) }},
		{name: "update-version side", opt: fullSide, key: "c", want: true,
			setup: func(r *rig) { fill(r); r.b.ApplySet([]byte("c"), compressible, r.v()) },
			op:    func(r *rig, v truetime.Version) bool { return r.b.updateVersion([]byte("c"), v) }},

		{name: "stale set", setup: seed, key: "k",
			op: func(r *rig, _ truetime.Version) bool {
				ok, _, _ := r.b.ApplySet([]byte("k"), compressible, old)
				return ok
			}},
		{name: "stale erase", setup: seed, key: "k",
			op: func(r *rig, _ truetime.Version) bool { ok, _ := r.b.ApplyErase([]byte("k"), old); return ok }},
		{name: "cas mismatch", setup: seed, key: "k",
			op: func(r *rig, v truetime.Version) bool {
				ok, _ := r.b.ApplyCas([]byte("k"), compressible, old, v)
				return ok
			}},
		{name: "update-version absent", key: "k",
			op: func(r *rig, v truetime.Version) bool { return r.b.updateVersion([]byte("k"), v) }},
		{name: "update-version stale", setup: seed, key: "k",
			op: func(r *rig, _ truetime.Version) bool { return r.b.updateVersion([]byte("k"), old) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := tc.opt
			opt.Shard, opt.DataDir, opt.CompressThreshold = 0, dir, 64
			r := newRig(t, opt)
			old = r.v()
			if tc.setup != nil {
				tc.setup(r)
			}
			before, _ := r.b.persist.Load().Depth()
			r.b.journalStart()
			v := r.v()
			applied := tc.op(r, v)
			keys := r.b.journalSwap()
			after, _ := r.b.persist.Load().Depth()
			if applied != tc.want {
				t.Fatalf("applied = %v, want %v", applied, tc.want)
			}
			if !tc.want {
				if len(keys) != 0 || after != before {
					t.Fatalf("rejected mutation noted %d journal keys and %d durable records", len(keys), after-before)
				}
				return
			}
			if len(keys) != 1 || keys[0] != tc.key {
				t.Errorf("handoff journal = %q, want exactly [%q]", keys, tc.key)
			}
			if after-before != 1 {
				t.Fatalf("durable records appended = %d, want 1", after-before)
			}
			wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.cm"))
			raw, err := os.ReadFile(wals[len(wals)-1])
			if err != nil {
				t.Fatal(err)
			}
			_, recs, _, err := persist.DecodeJournal(raw)
			if err != nil || len(recs) == 0 {
				t.Fatalf("journal decode: %d records, %v", len(recs), err)
			}
			last := recs[len(recs)-1]
			wantRec := persist.Record{Op: persist.OpSet, Key: []byte(tc.key), Value: compressible, Version: v}
			if tc.erase {
				wantRec.Op, wantRec.Value = persist.OpErase, nil
			}
			if last.Op != wantRec.Op || !bytes.Equal(last.Key, wantRec.Key) || !bytes.Equal(last.Value, wantRec.Value) || last.Version != v {
				t.Errorf("durable record = {op %d key %q %dB value %v}, want {op %d key %q %dB value %v}",
					last.Op, last.Key, len(last.Value), last.Version, wantRec.Op, wantRec.Key, len(wantRec.Value), v)
			}
		})
	}
}
