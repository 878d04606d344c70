package persist_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cliquemap/internal/checksum"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/persist"
	"cliquemap/internal/truetime"
)

// ver builds a strictly increasing version for op i.
func ver(i int) truetime.Version {
	return truetime.Version{Micros: int64(i + 1), ClientID: 7, Seq: uint64(i + 1)}
}

// rec builds the i-th workload record: keys cycle over a small space so
// later ops overwrite earlier ones, and every fifth op is an erase.
func rec(i int) proto.MigrateItem {
	key := []byte(fmt.Sprintf("k%02d", i%7))
	if i%5 == 4 {
		return proto.MigrateItem{Key: key, Version: ver(i), Tombstone: true}
	}
	return proto.MigrateItem{Key: key, Value: []byte(fmt.Sprintf("v%03d", i)), Version: ver(i)}
}

func sig(r proto.MigrateItem) string {
	return fmt.Sprintf("%t|%s|%d.%d.%d|%s", r.Tombstone, r.Key, r.Version.Micros, r.Version.ClientID, r.Version.Seq, r.Value)
}

// model is the acked corpus: per-key latest acked record, version-gated
// exactly like the backend's replay.
type model struct {
	state map[string]proto.MigrateItem // latest record per key (set or tombstone)
}

func newModel() *model { return &model{state: make(map[string]proto.MigrateItem)} }

func (m *model) apply(r proto.MigrateItem) {
	cur, ok := m.state[string(r.Key)]
	if ok && r.Version.Less(cur.Version) {
		return
	}
	m.state[string(r.Key)] = r
}

func (m *model) live() map[string]proto.MigrateItem {
	out := make(map[string]proto.MigrateItem)
	for k, r := range m.state {
		if !r.Tombstone {
			out[k] = r
		}
	}
	return out
}

// scenario drives a workload with two checkpoint cycles against dir,
// stopping at the first injected crash. It returns the acked model and
// the signature set of every record it attempted to write (acked or not).
func scenario(t *testing.T, dir string, opt persist.Options) (*model, map[string]bool) {
	t.Helper()
	acked := newModel()
	attempted := make(map[string]bool)

	st, recd, err := persist.Open(dir, 0, opt)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(recd.Checkpoint) != 0 || len(recd.Journal) != 0 {
		t.Fatalf("fresh dir recovered %d+%d records", len(recd.Checkpoint), len(recd.Journal))
	}
	defer st.Close()

	append1 := func(i int) bool {
		r := rec(i)
		attempted[sig(r)] = true
		if aerr := st.Append(r); aerr != nil {
			return false
		}
		acked.apply(r)
		return true
	}
	checkpoint := func() bool {
		ep, rerr := st.Rotate()
		if rerr != nil {
			return false
		}
		cw, berr := st.BeginCheckpoint(ep, 42)
		if berr != nil {
			return false
		}
		for _, r := range acked.state { // live sets and tombstones both ride
			attempted[sig(r)] = true
			if werr := cw.Write(r); werr != nil {
				return false
			}
		}
		return cw.Commit() == nil
	}

	for i := 0; i < 10; i++ {
		if !append1(i) {
			return acked, attempted
		}
	}
	if !checkpoint() {
		return acked, attempted
	}
	for i := 10; i < 20; i++ {
		if !append1(i) {
			return acked, attempted
		}
	}
	if !checkpoint() {
		return acked, attempted
	}
	for i := 20; i < 25; i++ {
		if !append1(i) {
			return acked, attempted
		}
	}
	return acked, attempted
}

// recover reopens dir with no hooks and replays what Open found into a
// fresh model, version-gated like the backend.
func recoverDir(t *testing.T, dir string) (*model, *persist.Recovered) {
	t.Helper()
	st, recd, err := persist.Open(dir, 0, persist.Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer st.Close()
	got := newModel()
	for _, r := range recd.Checkpoint {
		got.apply(r)
	}
	for _, r := range recd.Journal {
		got.apply(r)
	}
	return got, recd
}

// checkRecovery asserts the two core crash-safety invariants: zero lost
// acked writes, zero fabricated entries.
func checkRecovery(t *testing.T, label string, acked *model, attempted map[string]bool, got *model, recd *persist.Recovered) {
	t.Helper()
	for k, want := range acked.live() {
		r, ok := got.live()[k]
		if !ok {
			t.Fatalf("%s: lost acked write %q (version %v)", label, k, want.Version)
		}
		if r.Version.Less(want.Version) {
			t.Fatalf("%s: key %q recovered at stale version %v < acked %v", label, k, r.Version, want.Version)
		}
	}
	for k, want := range acked.state {
		if !want.Tombstone {
			continue
		}
		if r, ok := got.live()[k]; ok && r.Version.Less(want.Version) {
			t.Fatalf("%s: acked erase of %q resurrected by stale version %v", label, k, r.Version)
		}
	}
	for _, r := range recd.Checkpoint {
		if !attempted[sig(r)] {
			t.Fatalf("%s: fabricated checkpoint record %s", label, sig(r))
		}
	}
	for _, r := range recd.Journal {
		if !attempted[sig(r)] {
			t.Fatalf("%s: fabricated journal record %s", label, sig(r))
		}
	}
}

func TestRoundTripNoCrash(t *testing.T) {
	dir := t.TempDir()
	acked, attempted := scenario(t, dir, persist.Options{})
	got, recd := recoverDir(t, dir)
	checkRecovery(t, "clean", acked, attempted, got, recd)
	if recd.CheckpointEpoch == 0 {
		t.Fatal("no checkpoint recovered after two clean cycles")
	}
	if len(got.live()) != len(acked.live()) {
		t.Fatalf("recovered %d live keys, want %d", len(got.live()), len(acked.live()))
	}
}

// TestFailedCheckpointWriteClosesImage: a checkpoint Write that fails
// closes the temp image's file, as BeginCheckpoint and Commit do on theirs;
// its caller returns on the error and nothing else would close it.
func TestFailedCheckpointWriteClosesImage(t *testing.T) {
	st, _, err := persist.Open(t.TempDir(), 0, persist.Options{Hook: func(p string) bool { return p == "checkpoint.record" }})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ep, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	cw, err := st.BeginCheckpoint(ep, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(rec(0)); !errors.Is(err, persist.ErrCrashed) {
		t.Fatalf("Write at the checkpoint.record hook: %v, want ErrCrashed", err)
	}
	if err := persist.CheckpointFile(cw).Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("image file after a failed Write: Close = %v, want os.ErrClosed", err)
	}
}

// TestWriteAllocations: with no crash hook set, a journal append and a
// checkpoint record write allocate nothing once the store's encode
// buffers have grown to the record size.
func TestWriteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	st, _, err := persist.Open(t.TempDir(), 0, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	item := rec(0)
	ep, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	cw, err := st.BeginCheckpoint(ep, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name  string
		write func() error
	}{
		{"journal append", func() error { return st.Append(item) }},
		{"checkpoint record", func() error { return cw.Write(item) }},
	} {
		if err := row.write(); err != nil { // grows the encode buffer
			t.Fatal(err)
		}
		var werr error
		if n := testing.AllocsPerRun(100, func() {
			if err := row.write(); err != nil {
				werr = err
			}
		}); n != 0 || werr != nil {
			t.Errorf("%s: %.2f allocs, want 0 (err %v)", row.name, n, werr)
		}
	}
	if err := cw.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashPointMatrix kills the store at every phase boundary of the
// append/rotate/checkpoint protocol — including mid-frame torn writes —
// and asserts recovery is epoch-consistent with zero lost acked writes
// and zero fabricated entries at each one.
func TestCrashPointMatrix(t *testing.T) {
	points := []string{
		"journal.append", "journal.append.torn",
		"journal.rotate",
		"checkpoint.begin", "checkpoint.header.torn",
		"checkpoint.record", "checkpoint.record.torn",
		"checkpoint.footer", "checkpoint.footer.torn",
		"checkpoint.fsync", "checkpoint.rename",
		"checkpoint.dirsync", "checkpoint.prune",
	}
	for _, point := range points {
		for _, nth := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s@%d", point, nth), func(t *testing.T) {
				dir := t.TempDir()
				count, fired := 0, false
				opt := persist.Options{Hook: func(p string) bool {
					if p != point {
						return false
					}
					count++
					if count == nth {
						fired = true
						return true
					}
					return false
				}}
				acked, attempted := scenario(t, dir, opt)
				if nth == 1 && !fired {
					t.Fatalf("crash point %s never reached", point)
				}
				got, recd := recoverDir(t, dir)
				checkRecovery(t, point, acked, attempted, got, recd)

				// Recovery must be stable: a second open after the
				// truncating repair sees the identical corpus.
				got2, recd2 := recoverDir(t, dir)
				if len(got2.state) != len(got.state) {
					t.Fatalf("recovery not idempotent: %d then %d records", len(got.state), len(got2.state))
				}
				if recd2.CheckpointEpoch != recd.CheckpointEpoch {
					t.Fatalf("checkpoint epoch drifted across reopens: %d then %d",
						recd.CheckpointEpoch, recd2.CheckpointEpoch)
				}
			})
		}
	}
}

// TestCrashPointMatrixSynced repeats the matrix with per-append fsync on,
// which adds the journal.fsync boundary.
func TestCrashPointMatrixSynced(t *testing.T) {
	for _, nth := range []int{1, 3} {
		t.Run(fmt.Sprintf("journal.fsync@%d", nth), func(t *testing.T) {
			dir := t.TempDir()
			count := 0
			opt := persist.Options{Sync: true, Hook: func(p string) bool {
				if p != "journal.fsync" {
					return false
				}
				count++
				return count == nth
			}}
			acked, attempted := scenario(t, dir, opt)
			got, recd := recoverDir(t, dir)
			checkRecovery(t, "journal.fsync", acked, attempted, got, recd)
		})
	}
}

// TestJournalTruncationSweep cuts a journal at every byte boundary and
// asserts the recovered records are always a clean prefix of what was
// written — never a fabrication, never a reordering.
func TestJournalTruncationSweep(t *testing.T) {
	var want []proto.MigrateItem
	file := persist.EncodeHeaderFrame(persist.Header{Kind: persist.KindJournal, Epoch: 1, Shard: 0})
	for i := 0; i < 5; i++ {
		r := rec(i)
		want = append(want, r)
		file = append(file, persist.EncodeRecordFrame(r)...)
	}
	for cut := 0; cut <= len(file); cut++ {
		h, recs, clean, err := persist.DecodeJournal(file[:cut])
		if err != nil {
			continue // headerless prefix: rejected outright, nothing recovered
		}
		if h.Epoch != 1 {
			t.Fatalf("cut=%d: header epoch %d", cut, h.Epoch)
		}
		if clean > cut {
			t.Fatalf("cut=%d: clean prefix %d overruns input", cut, clean)
		}
		if len(recs) > len(want) {
			t.Fatalf("cut=%d: fabricated %d records", cut, len(recs)-len(want))
		}
		for i, r := range recs {
			if sig(r) != sig(want[i]) {
				t.Fatalf("cut=%d: record %d = %s, want %s", cut, i, sig(r), sig(want[i]))
			}
		}
		if cut == len(file) && len(recs) != len(want) {
			t.Fatalf("whole file decoded %d records, want %d", len(recs), len(want))
		}
	}
}

// TestJournalBitFlipSweep flips every byte of a journal image and asserts
// the damage only ever truncates — recovered records stay a clean prefix.
func TestJournalBitFlipSweep(t *testing.T) {
	var want []proto.MigrateItem
	file := persist.EncodeHeaderFrame(persist.Header{Kind: persist.KindJournal, Epoch: 1, Shard: 0})
	for i := 0; i < 5; i++ {
		r := rec(i)
		want = append(want, r)
		file = append(file, persist.EncodeRecordFrame(r)...)
	}
	for pos := 0; pos < len(file); pos++ {
		flipped := append([]byte(nil), file...)
		flipped[pos] ^= 0x40
		_, recs, _, err := persist.DecodeJournal(flipped)
		if err != nil {
			continue // damaged header: whole file rejected
		}
		for i, r := range recs {
			if i >= len(want) || sig(r) != sig(want[i]) {
				t.Fatalf("flip@%d: record %d not a clean prefix", pos, i)
			}
		}
	}
}

// TestCheckpointTruncationRejected: a checkpoint image is all-or-nothing —
// any truncation or bit flip rejects the whole file.
func TestCheckpointTruncationRejected(t *testing.T) {
	file := persist.EncodeHeaderFrame(persist.Header{Kind: persist.KindCheckpoint, Epoch: 2, ConfigID: 9, Shard: 0})
	n := 0
	for i := 0; i < 5; i++ {
		file = append(file, persist.EncodeRecordFrame(rec(i))...)
		n++
	}
	file = append(file, persist.EncodeFooterFrame(uint64(n))...)
	if _, recs, err := persist.DecodeCheckpoint(file); err != nil || len(recs) != n {
		t.Fatalf("intact image: %d records, err=%v", len(recs), err)
	}
	for cut := 0; cut < len(file); cut++ {
		if _, _, err := persist.DecodeCheckpoint(file[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for pos := 0; pos < len(file); pos++ {
		flipped := append([]byte(nil), file...)
		flipped[pos] ^= 0x01
		if _, _, err := persist.DecodeCheckpoint(flipped); err == nil {
			t.Fatalf("bit flip at %d accepted", pos)
		}
	}
}

// TestGoldenFrames pins the v2 bytes of each frame kind: a checkpoint
// header, a SET record, an ERASE record and a footer. Each is [4B len]
// [8B checksum][kind byte][wire message]; a record's message is a
// proto.MigrateItem. A change here orphans every lineage on disk, so it
// must come with a new magic.
func TestGoldenFrames(t *testing.T) {
	hdr := persist.Header{Kind: persist.KindCheckpoint, Epoch: 3, ConfigID: 1, Shard: 2}
	set, erase := rec(0), rec(4)
	frames := []struct {
		name, hex string
		got       []byte
	}{
		{"header", "150000003b45712bcde0642a100104088280cc92d588d4a6431043180320012802", persist.EncodeHeaderFrame(hdr)},
		{"set", "16000000fae4349dd7176b472001040a036b30301204763030301801200728013000", persist.EncodeRecordFrame(set)},
		{"erase", "12000000c91edf506f9a4a932001040a036b303412001805200728053001", persist.EncodeRecordFrame(erase)},
		{"footer", "05000000bb783027286a1e653001040802", persist.EncodeFooterFrame(2)},
	}
	var file []byte
	for _, f := range frames {
		want, err := hex.DecodeString(f.hex)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s frame:\n got  %x\n want %x", f.name, f.got, want)
		}
		file = append(file, want...)
	}
	h, items, err := persist.DecodeCheckpoint(file)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != hdr.Kind || h.Epoch != hdr.Epoch || h.ConfigID != hdr.ConfigID || h.Shard != hdr.Shard {
		t.Errorf("header decoded to %+v, want %+v", h, hdr)
	}
	if len(items) != 2 || sig(items[0]) != sig(set) || sig(items[1]) != sig(erase) || items[1].Value != nil {
		t.Errorf("records decoded to %+v, want [%+v %+v]", items, set, erase)
	}
}

// TestInvalidRecordFrame: a record frame whose checksum passes but whose
// item does not decode, or is an erase carrying a value, truncates a
// journal there and rejects a checkpoint image whole.
func TestInvalidRecordFrame(t *testing.T) {
	frame := func(payload []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		return append(binary.LittleEndian.AppendUint64(b, checksum.Sum(payload)), payload...)
	}
	good := persist.EncodeRecordFrame(rec(0))
	for name, bad := range map[string][]byte{
		"erase with a value": persist.EncodeRecordFrame(proto.MigrateItem{Key: []byte("k"), Value: []byte("v"), Tombstone: true}),
		"undecodable item":   frame([]byte{0x20, 0x01, 0x04, 0x0a, 0x7f}), // a record whose key overruns it
	} {
		j := persist.EncodeHeaderFrame(persist.Header{Kind: persist.KindJournal, Epoch: 1})
		j = append(append(append(j, good...), bad...), good...)
		if _, recs, clean, err := persist.DecodeJournal(j); err != nil || len(recs) != 1 || clean != len(j)-len(bad)-len(good) {
			t.Errorf("%s: journal kept %d records and a %d-byte clean prefix (err %v), want 1 and %d", name, len(recs), clean, err, len(j)-len(bad)-len(good))
		}
		c := persist.EncodeHeaderFrame(persist.Header{Kind: persist.KindCheckpoint, Epoch: 1})
		c = append(append(append(c, good...), bad...), persist.EncodeFooterFrame(2)...)
		if _, _, err := persist.DecodeCheckpoint(c); err == nil {
			t.Errorf("%s: checkpoint image accepted", name)
		}
	}
}

// TestV1LineageSkipped: a directory the v1 format wrote (a checkpoint and
// a journal, one SET each, bytes from the v1 encoder) reads as foreign
// files: Open recovers nothing from it and the task rejoins cold.
func TestV1LineageSkipped(t *testing.T) {
	dir := t.TempDir()
	for name, h := range map[string]string{
		"wal-0000000000000001.cm":  "220000003f03c5e4788c3dbf10570100535245504d4301000000000000000000000000000000000000000000000029000000933c9340b6d75ded2001010000000000000007000000000000000100000000000000030000006b30300400000076303030",
		"ckpt-0000000000000001.cm": "220000007f5ad1e11a2e97d010430100535245504d4301000000000000000000000000000000000000000000000029000000933c9340b6d75ded2001010000000000000007000000000000000100000000000000030000006b3030040000007630303009000000564d2008856f31ea300100000000000000",
	} {
		raw, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, recd, err := persist.Open(dir, 0, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if recd.CheckpointEpoch != 0 || len(recd.Checkpoint)+len(recd.Journal) != 0 {
		t.Errorf("v1 lineage recovered checkpoint epoch %d, %d+%d records", recd.CheckpointEpoch, len(recd.Checkpoint), len(recd.Journal))
	}
}

// TestTornTailTruncatedOnDisk: Open physically cuts a journal's torn tail
// so the next crash-recovery cycle starts from a clean file.
func TestTornTailTruncatedOnDisk(t *testing.T) {
	dir := t.TempDir()
	st, _, err := persist.Open(dir, 0, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if aerr := st.Append(rec(i)); aerr != nil {
			t.Fatal(aerr)
		}
	}
	epoch := st.Epoch()
	st.Close()

	path := filepath.Join(dir, fmt.Sprintf("wal-%016x.cm", epoch))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	garbage := append(append([]byte(nil), raw...), persist.EncodeRecordFrame(rec(9))[:7]...)
	if werr := os.WriteFile(path, garbage, 0o644); werr != nil {
		t.Fatal(werr)
	}

	st2, recd, err := persist.Open(dir, 0, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if len(recd.Journal) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recd.Journal))
	}
	fixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixed, raw) {
		t.Fatalf("torn tail not truncated on disk: %d bytes, want %d", len(fixed), len(raw))
	}
}

// TestResetWipesLineage: Reset must leave nothing recoverable.
func TestResetWipesLineage(t *testing.T) {
	dir := t.TempDir()
	st, _, err := persist.Open(dir, 0, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if aerr := st.Append(rec(i)); aerr != nil {
			t.Fatal(aerr)
		}
	}
	if rerr := st.Reset(); rerr != nil {
		t.Fatal(rerr)
	}
	st.Close()
	_, recd, err := persist.Open(dir, 0, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recd.Checkpoint)+len(recd.Journal) != 0 {
		t.Fatalf("reset lineage still recovered %d+%d records", len(recd.Checkpoint), len(recd.Journal))
	}
}

// reencodeJournal re-marshals a decode result; used as the fuzz oracle.
func reencodeJournal(h persist.Header, recs []proto.MigrateItem) []byte {
	out := persist.EncodeHeaderFrame(h)
	for _, r := range recs {
		out = append(out, persist.EncodeRecordFrame(r)...)
	}
	return out
}

// FuzzJournalDecode: whatever bytes arrive, an accepted journal's decoded
// records must re-marshal to exactly the clean prefix the decoder claims —
// so the decoder can neither fabricate entries nor mutate real ones.
func FuzzJournalDecode(f *testing.F) {
	valid := persist.EncodeHeaderFrame(persist.Header{Kind: persist.KindJournal, Epoch: 3, ConfigID: 1, Shard: 2})
	for i := 0; i < 3; i++ {
		valid = append(valid, persist.EncodeRecordFrame(rec(i))...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x80
	f.Add(flipped)
	f.Add(persist.EncodeHeaderFrame(persist.Header{Kind: persist.KindCheckpoint, Epoch: 1}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		h, recs, clean, err := persist.DecodeJournal(b)
		if err != nil {
			return
		}
		if clean > len(b) {
			t.Fatalf("clean prefix %d > input %d", clean, len(b))
		}
		if got := reencodeJournal(h, recs); !bytes.Equal(got, b[:clean]) {
			t.Fatalf("re-marshal drift: decoded records do not round-trip to the clean prefix")
		}
	})
}

// FuzzCheckpointDecode: an accepted checkpoint must be byte-for-byte
// canonical — header, records, footer, nothing else. Anything torn,
// truncated, or bit-flipped is rejected whole.
func FuzzCheckpointDecode(f *testing.F) {
	valid := persist.EncodeHeaderFrame(persist.Header{Kind: persist.KindCheckpoint, Epoch: 5, ConfigID: 2, Shard: 1})
	for i := 0; i < 3; i++ {
		valid = append(valid, persist.EncodeRecordFrame(rec(i))...)
	}
	valid = append(valid, persist.EncodeFooterFrame(3)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	flipped := append([]byte(nil), valid...)
	flipped[10] ^= 0x04
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		h, recs, err := persist.DecodeCheckpoint(b)
		if err != nil {
			return
		}
		out := persist.EncodeHeaderFrame(h)
		for _, r := range recs {
			out = append(out, persist.EncodeRecordFrame(r)...)
		}
		out = append(out, persist.EncodeFooterFrame(uint64(len(recs)))...)
		if !bytes.Equal(out, b) {
			t.Fatalf("accepted checkpoint is not canonical: re-marshal differs")
		}
	})
}
