package layout

import (
	"bytes"
	"testing"
	"testing/quick"

	"cliquemap/internal/hashring"
	"cliquemap/internal/rmem"
	"cliquemap/internal/truetime"
)

func sampleVersion() truetime.Version {
	return truetime.Version{Micros: 123456789, ClientID: 42, Seq: 7}
}

func TestIndexEntryRoundTrip(t *testing.T) {
	e := IndexEntry{
		Hash:    hashring.KeyHash{Hi: 0xdead, Lo: 0xbeef},
		Version: sampleVersion(),
		Ptr:     Pointer{Window: 3, Offset: 4096, Size: 128},
	}
	buf := make([]byte, IndexEntrySize)
	EncodeIndexEntry(buf, e)
	got, err := DecodeIndexEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("round trip: %+v != %+v", got, e)
	}
}

func TestIndexEntryRoundTripProperty(t *testing.T) {
	f := func(hi, lo, w, off, sz uint64, mic int64, cid, seq uint64) bool {
		e := IndexEntry{
			Hash:    hashring.KeyHash{Hi: hi, Lo: lo},
			Version: truetime.Version{Micros: mic, ClientID: cid, Seq: seq},
			Ptr:     Pointer{Window: rmem.WindowID(w), Offset: off, Size: sz},
		}
		buf := make([]byte, IndexEntrySize)
		EncodeIndexEntry(buf, e)
		got, err := DecodeIndexEntry(buf)
		return err == nil && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeIndexEntryShort(t *testing.T) {
	if _, err := DecodeIndexEntry(make([]byte, IndexEntrySize-1)); err == nil {
		t.Error("short index entry decoded")
	}
}

func TestEmptyEntry(t *testing.T) {
	var e IndexEntry
	if !e.Empty() {
		t.Error("zero entry should be empty")
	}
	e.Hash = hashring.KeyHash{Hi: 1}
	if e.Empty() {
		t.Error("hashed entry should not be empty")
	}
	if !(Pointer{}).Nil() {
		t.Error("zero pointer should be nil")
	}
}

func TestGeometry(t *testing.T) {
	g := Geometry{Buckets: 100, Ways: DefaultWays}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.BucketSize() != 1024 {
		t.Errorf("default bucket size = %d, want 1024 (paper's 1KB buckets)", g.BucketSize())
	}
	if g.RegionBytes() != 100*1024 {
		t.Errorf("region bytes = %d", g.RegionBytes())
	}
	if g.BucketOffset(3) != 3*1024 {
		t.Errorf("offset(3) = %d", g.BucketOffset(3))
	}
	if (Geometry{Buckets: 0, Ways: 1}).Validate() == nil {
		t.Error("zero buckets validated")
	}
	if (Geometry{Buckets: 1, Ways: 0}).Validate() == nil {
		t.Error("zero ways validated")
	}
}

func TestBucketEncodeDecodeFind(t *testing.T) {
	g := Geometry{Buckets: 1, Ways: 4}
	raw := make([]byte, g.BucketSize())
	EncodeBucketHeader(raw, 77, OverflowFlag)
	want := IndexEntry{
		Hash:    hashring.KeyHash{Hi: 5, Lo: 6},
		Version: sampleVersion(),
		Ptr:     Pointer{Window: 1, Offset: 64, Size: 32},
	}
	EncodeIndexEntry(raw[BucketHeaderSize+2*IndexEntrySize:], want)

	b, err := DecodeBucket(raw, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.ConfigID != 77 {
		t.Errorf("config id = %d", b.ConfigID)
	}
	if b.Flags&OverflowFlag == 0 {
		t.Error("overflow flag lost")
	}
	got, slot, ok := b.Find(want.Hash)
	if !ok || slot != 2 || got != want {
		t.Errorf("Find = %+v slot %d ok %v", got, slot, ok)
	}
	if _, _, ok := b.Find(hashring.KeyHash{Hi: 9, Lo: 9}); ok {
		t.Error("found absent hash")
	}
}

func TestDecodeBucketShort(t *testing.T) {
	if _, err := DecodeBucket(make([]byte, 100), 4); err == nil {
		t.Error("short bucket decoded")
	}
}

func TestDataEntryRoundTrip(t *testing.T) {
	key, val := []byte("user:1234"), []byte("profile-data-here")
	v := sampleVersion()
	buf := make([]byte, DataEntrySize(len(key), len(val)))
	n := EncodeDataEntry(buf, key, val, v)
	if n != len(buf) {
		t.Errorf("encoded %d, want %d", n, len(buf))
	}
	e, err := DecodeDataEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Key, key) || !bytes.Equal(e.Value, val) || e.Version != v {
		t.Errorf("decoded %+v", e)
	}
	if err := e.ValidateAgainst(key, &v); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestDataEntryRoundTripProperty(t *testing.T) {
	f := func(key, val []byte, mic int64, cid, seq uint64) bool {
		v := truetime.Version{Micros: mic, ClientID: cid, Seq: seq}
		buf := make([]byte, DataEntrySize(len(key), len(val)))
		EncodeDataEntry(buf, key, val, v)
		e, err := DecodeDataEntry(buf)
		return err == nil && bytes.Equal(e.Key, key) && bytes.Equal(e.Value, val) && e.Version == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestTornDataEntryDetected flips bytes across the encoded entry and
// requires every flip to be caught — the self-validation property.
func TestTornDataEntryDetected(t *testing.T) {
	key, val := []byte("k"), make([]byte, 512)
	for i := range val {
		val[i] = byte(i * 7)
	}
	buf := make([]byte, DataEntrySize(len(key), len(val)))
	EncodeDataEntry(buf, key, val, sampleVersion())
	for i := 0; i < len(buf); i += 13 {
		buf[i] ^= 0xff
		if _, err := DecodeDataEntry(buf); err == nil {
			t.Fatalf("byte flip at %d undetected", i)
		}
		buf[i] ^= 0xff
	}
	if _, err := DecodeDataEntry(buf); err != nil {
		t.Fatalf("pristine entry failed: %v", err)
	}
}

// TestHalfOverwrittenEntryIsTornRead simulates the §5.3 race: an entry
// half-overwritten by a new value (prefix of new bytes, suffix of old)
// must decode as ErrTornRead.
func TestHalfOverwrittenEntryIsTornRead(t *testing.T) {
	key := []byte("contended-key")
	oldVal := bytes.Repeat([]byte{0xAA}, 1024)
	newVal := bytes.Repeat([]byte{0xBB}, 1024)
	v0, v1 := sampleVersion(), truetime.Version{Micros: 999999999, ClientID: 1, Seq: 1}

	oldBuf := make([]byte, DataEntrySize(len(key), len(oldVal)))
	EncodeDataEntry(oldBuf, key, oldVal, v0)
	newBuf := make([]byte, DataEntrySize(len(key), len(newVal)))
	EncodeDataEntry(newBuf, key, newVal, v1)

	for _, cut := range []int{1, DataEntryHeaderSize, DataEntryHeaderSize + 100, len(oldBuf) - 1} {
		torn := append(append([]byte{}, newBuf[:cut]...), oldBuf[cut:]...)
		if bytes.Equal(torn, oldBuf) || bytes.Equal(torn, newBuf) {
			continue // cut fell inside a byte-identical prefix/suffix: not torn
		}
		if _, err := DecodeDataEntry(torn); err != ErrTornRead {
			t.Errorf("cut at %d: got %v, want ErrTornRead", cut, err)
		}
	}
}

func TestTornLengthFieldIsTornRead(t *testing.T) {
	buf := make([]byte, DataEntrySize(1, 1))
	EncodeDataEntry(buf, []byte("k"), []byte("v"), sampleVersion())
	buf[0] = 0xff // keyLen now points far past the read
	if _, err := DecodeDataEntry(buf); err != ErrTornRead {
		t.Errorf("oversize length: got %v, want ErrTornRead", err)
	}
}

func TestDecodeDataEntryTooShort(t *testing.T) {
	if _, err := DecodeDataEntry(make([]byte, 10)); err == nil {
		t.Error("10-byte entry decoded")
	}
}

func TestValidateAgainst(t *testing.T) {
	key, val := []byte("real-key"), []byte("v")
	v := sampleVersion()
	buf := make([]byte, DataEntrySize(len(key), len(val)))
	EncodeDataEntry(buf, key, val, v)
	e, err := DecodeDataEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ValidateAgainst([]byte("other-key"), nil); err != ErrKeyMismatch {
		t.Errorf("key mismatch: got %v", err)
	}
	other := truetime.Version{Micros: 1}
	if err := e.ValidateAgainst(key, &other); err != ErrTornRead {
		t.Errorf("version mismatch: got %v", err)
	}
	if err := e.ValidateAgainst(key, nil); err != nil {
		t.Errorf("nil quorum should skip version check: %v", err)
	}
}

func TestEntryChecksumVersionSensitive(t *testing.T) {
	k, val := []byte("k"), []byte("v")
	a := EntryChecksumF(k, val, truetime.Version{Micros: 1}, 0)
	b := EntryChecksumF(k, val, truetime.Version{Micros: 2}, 0)
	if a == b {
		t.Error("checksum insensitive to version")
	}
}

func BenchmarkEncodeDataEntry4KB(b *testing.B) {
	key := []byte("bench-key")
	val := make([]byte, 4096)
	buf := make([]byte, DataEntrySize(len(key), len(val)))
	v := sampleVersion()
	b.SetBytes(int64(len(val)))
	for i := 0; i < b.N; i++ {
		EncodeDataEntry(buf, key, val, v)
	}
}

func BenchmarkDecodeDataEntry4KB(b *testing.B) {
	key := []byte("bench-key")
	val := make([]byte, 4096)
	buf := make([]byte, DataEntrySize(len(key), len(val)))
	EncodeDataEntry(buf, key, val, sampleVersion())
	b.SetBytes(int64(len(val)))
	for i := 0; i < b.N; i++ {
		if _, err := DecodeDataEntry(buf); err != nil {
			b.Fatal(err)
		}
	}
}
