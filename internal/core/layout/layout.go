// Package layout defines CliqueMap's RMA-accessible memory formats
// (Figure 1 of the paper): the index region of fixed-size Buckets holding
// fixed-size IndexEntries, and the data region of variable-size DataEntries
// guarded by checksums.
//
// Everything here is byte-exact and position-independent because clients
// parse these structures out of raw RMA reads, with no server code running.
// The formats therefore carry everything a client needs to self-validate a
// response (§3): the KeyHash tag, the VersionNumber, the full key, and an
// end-to-end checksum over key + value + metadata.
package layout

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cliquemap/internal/checksum"
	"cliquemap/internal/hashring"
	"cliquemap/internal/rmem"
	"cliquemap/internal/truetime"
)

// IndexEntrySize is the fixed encoded size of one IndexEntry:
// KeyHash (16) + VersionNumber (24) + Pointer (window 8, offset 8, size 8).
const IndexEntrySize = 72

// BucketHeaderSize holds the bucket's ConfigID (8) and flags (8).
const BucketHeaderSize = 16

// DefaultWays is the bucket associativity. 14 ways of 72B plus the header
// is exactly 1KB — the paper's "3× 1KB Buckets" accounting in §7.2.2.
const DefaultWays = 14

// OverflowFlag marks a bucket that has spilled entries to the RPC-only
// side table (§4.2): clients may fall back to an RPC GET on a miss.
const OverflowFlag = 1 << 0

// DataEntryHeaderSize precedes the key and value bytes:
// keyLen (4) + dataLen (4, top bit = compressed flag) + VersionNumber (24)
// + checksum (8).
const DataEntryHeaderSize = 40

// compressedBit marks a DataEntry whose value bytes are DEFLATE-compressed
// (§9: compression was one of the features delivered post-launch through
// the RPC mutation path; old clients that predate it simply fail
// validation on such entries and fall back to RPC, where the backend
// decompresses for them). It takes the length word's top bit, so a value
// is at most 1<<31 - 1 bytes.
const compressedBit = 1 << 31

// ProbeKeyPrefix reserves a key namespace for the fleet health plane's
// E2E prober canaries (§6). The leading NUL byte keeps the namespace
// disjoint from any printable user key, so synthetic probe traffic can
// never collide with (or evict meaning from) user data, and the backend's
// key-heat / top-k accounting excludes it via IsProbeKey so canaries
// never masquerade as hot keys.
const ProbeKeyPrefix = "\x00probe/"

// IsProbeKey reports whether key lies in the reserved prober namespace.
func IsProbeKey(key []byte) bool {
	return len(key) >= len(ProbeKeyPrefix) && string(key[:len(ProbeKeyPrefix)]) == ProbeKeyPrefix
}

// TierKeyPrefix reserves the federation tier's follower-cache namespace:
// a non-owner cell stores remotely-fetched entries under this prefix in
// its local cell. Like probe keys, the leading NUL keeps it disjoint from
// user keys; unlike user keys, follower-cache traffic is an echo of reads
// already counted at the owner cell, so the heat sketch and the hot-key
// promotion loop exclude it via IsTierKey — otherwise every follower hit
// would re-count as local heat and self-amplify into a phantom hot key.
const TierKeyPrefix = "\x00tier/"

// IsTierKey reports whether key lies in the follower-cache namespace.
func IsTierKey(key []byte) bool {
	return len(key) >= len(TierKeyPrefix) && string(key[:len(TierKeyPrefix)]) == TierKeyPrefix
}

// Validation failure taxonomy. The client retries at a layer chosen by the
// error (§3, §9): torn reads retry the RMA; config changes refresh config;
// window errors fall back to RPC.
var (
	// ErrTornRead is a checksum mismatch — the RMA observed a concurrent
	// mutation mid-write. Rare but normal; retry the lookup.
	ErrTornRead = errors.New("layout: checksum mismatch (torn read)")
	// ErrKeyMismatch means the 128-bit KeyHash matched but the stored key
	// differs — the "(very) rare" hash collision guard of §3 step 5b.
	ErrKeyMismatch = errors.New("layout: key mismatch (hash collision)")
	// ErrConfigChanged means the bucket's ConfigID differs from the
	// client's expectation: a migration or reconfiguration is in flight
	// (§6.1) and the client must refresh its configuration.
	ErrConfigChanged = errors.New("layout: bucket config id changed")
	// ErrCorrupt reports undecodable bytes.
	ErrCorrupt = errors.New("layout: corrupt entry")
)

// Pointer locates a DataEntry for RMA: a window id, offset, and size —
// "(a memory region identifier, offset, size)" per §3.
type Pointer struct {
	Window rmem.WindowID
	Offset uint64
	Size   uint64
}

// Nil reports whether the pointer is null (empty index slot target).
func (p Pointer) Nil() bool { return p == Pointer{} }

// IndexEntry is one slot in a bucket.
type IndexEntry struct {
	Hash    hashring.KeyHash
	Version truetime.Version
	Ptr     Pointer
}

// Empty reports whether the slot is unoccupied.
func (e IndexEntry) Empty() bool { return e.Hash.Zero() }

// EncodeIndexEntry writes e into dst (≥IndexEntrySize bytes).
func EncodeIndexEntry(dst []byte, e IndexEntry) {
	_ = dst[IndexEntrySize-1]
	binary.LittleEndian.PutUint64(dst[0:], e.Hash.Hi)
	binary.LittleEndian.PutUint64(dst[8:], e.Hash.Lo)
	binary.LittleEndian.PutUint64(dst[16:], uint64(e.Version.Micros))
	binary.LittleEndian.PutUint64(dst[24:], e.Version.ClientID)
	binary.LittleEndian.PutUint64(dst[32:], e.Version.Seq)
	binary.LittleEndian.PutUint64(dst[40:], uint64(e.Ptr.Window))
	binary.LittleEndian.PutUint64(dst[48:], e.Ptr.Offset)
	binary.LittleEndian.PutUint64(dst[56:], e.Ptr.Size)
	binary.LittleEndian.PutUint64(dst[64:], 0) // reserved
}

// DecodeIndexEntry parses an IndexEntry from src.
func DecodeIndexEntry(src []byte) (IndexEntry, error) {
	if len(src) < IndexEntrySize {
		return IndexEntry{}, fmt.Errorf("%w: index entry %d bytes", ErrCorrupt, len(src))
	}
	return IndexEntry{
		Hash: hashring.KeyHash{
			Hi: binary.LittleEndian.Uint64(src[0:]),
			Lo: binary.LittleEndian.Uint64(src[8:]),
		},
		Version: truetime.Version{
			Micros:   int64(binary.LittleEndian.Uint64(src[16:])),
			ClientID: binary.LittleEndian.Uint64(src[24:]),
			Seq:      binary.LittleEndian.Uint64(src[32:]),
		},
		Ptr: Pointer{
			Window: rmem.WindowID(binary.LittleEndian.Uint64(src[40:])),
			Offset: binary.LittleEndian.Uint64(src[48:]),
			Size:   binary.LittleEndian.Uint64(src[56:]),
		},
	}, nil
}

// Geometry describes an index region's shape; clients learn it at
// connection time and on config refresh.
type Geometry struct {
	Buckets int // number of buckets
	Ways    int // IndexEntries per bucket
}

// BucketSize returns the encoded size of one bucket.
func (g Geometry) BucketSize() int { return BucketHeaderSize + g.Ways*IndexEntrySize }

// RegionBytes returns the index region's total populated size.
func (g Geometry) RegionBytes() int { return g.Buckets * g.BucketSize() }

// BucketOffset returns the byte offset of bucket b.
func (g Geometry) BucketOffset(b int) int { return b * g.BucketSize() }

// Validate checks the geometry is usable.
func (g Geometry) Validate() error {
	if g.Buckets <= 0 || g.Ways <= 0 {
		return fmt.Errorf("layout: invalid geometry %+v", g)
	}
	return nil
}

// Bucket is the decoded form of one bucket.
type Bucket struct {
	ConfigID uint64
	Flags    uint64
	Entries  []IndexEntry
}

// DecodeBucket parses a raw bucket of the given associativity into a
// Bucket. It is the reference decoder: the serving paths scan buckets in
// place through RawBucket, and tests hold the two to the same answers.
func DecodeBucket(src []byte, ways int) (Bucket, error) {
	want := BucketHeaderSize + ways*IndexEntrySize
	if len(src) < want {
		return Bucket{}, fmt.Errorf("%w: bucket %d bytes, want %d", ErrCorrupt, len(src), want)
	}
	b := Bucket{
		ConfigID: binary.LittleEndian.Uint64(src[0:]),
		Flags:    binary.LittleEndian.Uint64(src[8:]),
		Entries:  make([]IndexEntry, ways),
	}
	for i := 0; i < ways; i++ {
		e, err := DecodeIndexEntry(src[BucketHeaderSize+i*IndexEntrySize:])
		if err != nil {
			return Bucket{}, err
		}
		b.Entries[i] = e
	}
	return b, nil
}

// Find returns the entry matching h and its slot, or ok=false on a miss.
func (b Bucket) Find(h hashring.KeyHash) (IndexEntry, int, bool) {
	for i, e := range b.Entries {
		if e.Hash == h {
			return e, i, true
		}
	}
	return IndexEntry{}, -1, false
}

// RawBucket is one bucket's encoded bytes — header, then whole slots —
// scanned in place: a lookup compares the stored hash words where they lie
// and decodes only the slot that matches. The nil bucket has no slots.
type RawBucket []byte

// ViewBucket is DecodeBucket's in-place counterpart: it checks that src
// holds a bucket of the given associativity and returns exactly that
// extent, aliasing src.
func ViewBucket(src []byte, ways int) (RawBucket, error) {
	want := BucketHeaderSize + ways*IndexEntrySize
	if ways < 0 || len(src) < want {
		return nil, fmt.Errorf("%w: bucket %d bytes, want %d", ErrCorrupt, len(src), want)
	}
	return RawBucket(src[:want:want]), nil
}

// SlotOffset is the byte offset of slot within a bucket.
func SlotOffset(slot int) int { return BucketHeaderSize + slot*IndexEntrySize }

// Ways returns the number of whole slots the bucket holds (none, by
// truncating division, when it is shorter than a header and a slot).
func (r RawBucket) Ways() int { return (len(r) - BucketHeaderSize) / IndexEntrySize }

// ConfigID reads the header's configuration stamp.
func (r RawBucket) ConfigID() uint64 { return binary.LittleEndian.Uint64(r[0:]) }

// Flags reads the header's flag word.
func (r RawBucket) Flags() uint64 { return binary.LittleEndian.Uint64(r[8:]) }

// Hash reads slot's KeyHash; the zero hash marks an empty slot.
func (r RawBucket) Hash(slot int) hashring.KeyHash {
	off := SlotOffset(slot)
	return hashring.KeyHash{Hi: binary.LittleEndian.Uint64(r[off:]), Lo: binary.LittleEndian.Uint64(r[off+8:])}
}

// Entry decodes slot. The bucket covers whole slots, so decoding cannot
// fail.
func (r RawBucket) Entry(slot int) IndexEntry {
	e, _ := DecodeIndexEntry(r[SlotOffset(slot):])
	return e
}

// Find returns the entry matching h and its slot, or ok=false on a miss.
// The first matching slot wins, as in Bucket.Find.
func (r RawBucket) Find(h hashring.KeyHash) (IndexEntry, int, bool) {
	for i, n := 0, r.Ways(); i < n; i++ {
		if r.Hash(i) == h {
			return r.Entry(i), i, true
		}
	}
	return IndexEntry{}, -1, false
}

// EncodeBucketHeader writes the header fields into dst.
func EncodeBucketHeader(dst []byte, configID, flags uint64) {
	_ = dst[BucketHeaderSize-1]
	binary.LittleEndian.PutUint64(dst[0:], configID)
	binary.LittleEndian.PutUint64(dst[8:], flags)
}

// DataEntry is the decoded form of a stored KV pair. Value holds the
// stored bytes: when Compressed is set they are DEFLATE-compressed and the
// reader must DecompressValue them after validation.
type DataEntry struct {
	Key        []byte
	Value      []byte
	Version    truetime.Version
	Checksum   uint64
	Compressed bool
}

// DataEntrySize returns the encoded size for the given key/value lengths.
func DataEntrySize(keyLen, valLen int) int {
	return DataEntryHeaderSize + keyLen + valLen
}

// EntryChecksumF computes the self-validation checksum over key, value,
// version metadata and the entry's flag word, so a torn or flipped
// compression flag also fails validation.
func EntryChecksumF(key, value []byte, v truetime.Version, flags uint64) uint64 {
	return checksum.SumMeta(key, value, uint64(v.Micros), v.ClientID, v.Seq, flags)
}

// EncodeDataEntry serializes a KV pair with its checksum into dst, which
// must be at least DataEntrySize(len(key), len(value)) bytes. It returns
// the bytes written.
func EncodeDataEntry(dst []byte, key, value []byte, v truetime.Version) int {
	return EncodeDataEntryFlagged(dst, key, value, v, false)
}

// EncodeDataEntryFlagged is EncodeDataEntry for a possibly-compressed
// stored value.
func EncodeDataEntryFlagged(dst []byte, key, storedValue []byte, v truetime.Version, compressed bool) int {
	n := DataEntrySize(len(key), len(storedValue))
	_ = dst[n-1]
	lenWord := uint32(len(storedValue))
	var flags uint64
	if compressed {
		lenWord |= compressedBit
		flags = 1
	}
	binary.LittleEndian.PutUint32(dst[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(dst[4:], lenWord)
	binary.LittleEndian.PutUint64(dst[8:], uint64(v.Micros))
	binary.LittleEndian.PutUint64(dst[16:], v.ClientID)
	binary.LittleEndian.PutUint64(dst[24:], v.Seq)
	binary.LittleEndian.PutUint64(dst[32:], EntryChecksumF(key, storedValue, v, flags))
	copy(dst[DataEntryHeaderSize:], key)
	copy(dst[DataEntryHeaderSize+len(key):], storedValue)
	return n
}

// DecodeDataEntry parses and checksum-validates a DataEntry. A checksum
// failure returns ErrTornRead — the caller treats it as a retryable race,
// not corruption (§3).
func DecodeDataEntry(src []byte) (DataEntry, error) {
	if len(src) < DataEntryHeaderSize {
		return DataEntry{}, fmt.Errorf("%w: data entry %d bytes", ErrCorrupt, len(src))
	}
	keyLen := int(binary.LittleEndian.Uint32(src[0:]))
	lenWord := binary.LittleEndian.Uint32(src[4:])
	compressed := lenWord&compressedBit != 0
	valLen := int(lenWord &^ compressedBit)
	if keyLen < 0 || valLen < 0 || DataEntryHeaderSize+keyLen+valLen > len(src) {
		// Torn length fields can point past the read; that is a torn read,
		// not corruption, because the read raced a rewrite.
		return DataEntry{}, ErrTornRead
	}
	e := DataEntry{
		Version: truetime.Version{
			Micros:   int64(binary.LittleEndian.Uint64(src[8:])),
			ClientID: binary.LittleEndian.Uint64(src[16:]),
			Seq:      binary.LittleEndian.Uint64(src[24:]),
		},
		Checksum:   binary.LittleEndian.Uint64(src[32:]),
		Compressed: compressed,
	}
	var flags uint64
	if compressed {
		flags = 1
	}
	e.Key = src[DataEntryHeaderSize : DataEntryHeaderSize+keyLen]
	e.Value = src[DataEntryHeaderSize+keyLen : DataEntryHeaderSize+keyLen+valLen]
	if EntryChecksumF(e.Key, e.Value, e.Version, flags) != e.Checksum {
		return DataEntry{}, ErrTornRead
	}
	return e, nil
}

// ValidateAgainst performs the remaining client-side validation steps of
// §3/§5.1 once the checksum has passed: the stored key must equal the
// requested key (hash-collision guard) and, when a quorum version is
// supplied, the entry's version must match it (data-from-quorum-member
// guard).
func (e DataEntry) ValidateAgainst(key []byte, quorum *truetime.Version) error {
	if string(e.Key) != string(key) {
		return ErrKeyMismatch
	}
	if quorum != nil && e.Version != *quorum {
		return ErrTornRead // stale or racing data; retry
	}
	return nil
}
