// Package persist is CliqueMap's durability plane: per-task checkpoint +
// write-ahead journal files that let a crashed backend rejoin its cohort
// warm (§5.4's repair story without the repair storm).
//
// # File layout
//
// A Store owns one directory holding an epoch-stamped lineage:
//
//	ckpt-<epoch>.cm   full corpus snapshot taken at the epoch's rotation
//	wal-<epoch>.cm    append-only mutation journal for that epoch
//	ckpt.tmp          in-flight checkpoint (never recovered from)
//
// Both file kinds share one frame codec: a 4-byte little-endian payload
// length, the payload's 64-bit checksum (internal/checksum, the same
// CRC32C+mix the RMA DataEntry format uses), then the payload: a frame
// kind byte and one internal/wire message. A file is a header frame,
// record frames, and — for checkpoints only — a footer frame carrying the
// record count. A record is a proto.MigrateItem, the tuple a shard handoff
// streams, so the backend installs a recovered record exactly as it
// installs a migrated one. Frames are written in rmem.WriteChunk-sized
// slices, mirroring the region write discipline, so a torn write is
// bounded to a suffix of one frame.
//
// # Crash safety
//
// The recovery rule tolerates a crash at ANY byte boundary:
//
//   - A checkpoint becomes real only via tmp-write → fsync → atomic
//     rename → directory fsync. A torn checkpoint is either an ignored
//     ckpt.tmp or a ckpt-*.cm that fails footer/count validation and is
//     skipped in favour of the previous epoch's.
//   - A journal's torn tail (length or checksum mismatch, including any
//     bit flip) cleanly truncates the file at the last whole frame; the
//     mutation being appended at the moment of death was never
//     acknowledged, so dropping it loses nothing acked.
//   - Old epochs are pruned only after the newer checkpoint is durable,
//     so recovery always finds a footer-valid checkpoint (or the empty
//     epoch-0 corpus) plus every journal at or after its epoch.
//
// Recovery therefore loads the highest footer-valid checkpoint and
// replays all wal-*.cm with epoch ≥ that checkpoint's, in ascending epoch
// order. Replay on the backend side is version-gated and idempotent, so
// journals that partially overlap the checkpoint (the checkpoint scan is
// stripe-by-stripe, concurrent with appends) re-apply harmlessly.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cliquemap/internal/checksum"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/rmem"
	"cliquemap/internal/wire"
)

// Frame kinds (first payload byte).
const (
	frameHeader = byte(0x10)
	frameRecord = byte(0x20)
	frameFooter = byte(0x30)
)

// File kinds (header field).
const (
	KindCheckpoint = byte('C')
	KindJournal    = byte('W')
)

const (
	magic         = uint64(0x434d50455253_0002) // "CMPERS" + format v2
	frameOverhead = 4 + 8                       // length + checksum
	// maxFrame bounds a single frame so hostile length prefixes cannot
	// drive huge allocations (fuzz discipline; generous for real values).
	maxFrame = 64 << 20
)

// ErrCrashed is returned by every Store method after an injected crash
// point has fired: the store simulates a dead process — whatever bytes
// were written stay on disk, nothing further is written.
var ErrCrashed = errors.New("persist: simulated crash")

// Header identifies a persist file. The writer stamps Magic.
type Header struct {
	Magic    uint64 `wire:"1"`
	Kind     byte   `wire:"2"`
	Epoch    uint64 `wire:"3"`
	ConfigID uint64 `wire:"4"`
	Shard    int64  `wire:"5"`
}

// footer seals a checkpoint with its record count.
type footer struct {
	Count uint64 `wire:"1"`
}

// Options configures a Store.
type Options struct {
	// Hook, when set, is consulted at named phase boundaries; returning
	// true simulates process death at that point (the store goes dead and
	// every later call returns ErrCrashed). Mid-frame points ("*.torn")
	// leave a half-written frame behind, exactly like a real torn write.
	Hook func(point string) bool
	// Sync fsyncs the journal after every append. Off by default: the OS
	// page cache survives kill -9 (the crash mode the cell's restart story
	// targets), and power-loss durability costs an fsync per mutation.
	Sync bool
}

// Recovered is what Open found on disk.
type Recovered struct {
	CheckpointEpoch uint64              // epoch of the loaded checkpoint (0: none)
	ConfigID        uint64              // config stamp of that checkpoint
	Checkpoint      []proto.MigrateItem // checkpoint corpus, file order
	Journal         []proto.MigrateItem // journal tail, ascending epoch + append order
	Epoch           uint64              // the store's new live epoch
}

// Store manages one task's durable lineage. Append is safe under the
// caller's stripe locks (Store.mu is a leaf mutex); Rotate and checkpoints
// are driven by the backend with its own barriers.
type Store struct {
	dir   string
	shard int64
	opt   Options

	mu         sync.Mutex
	dead       bool
	epoch      uint64
	wal        *os.File
	walRecords uint64
	walBytes   uint64
	ckptEpoch  uint64
	ckptUnixNs int64
	encodeBuf  []byte
}

// die consults the crash hook.
func (s *Store) die(point string) bool {
	if s.dead {
		return true
	}
	if s.opt.Hook != nil && s.opt.Hook(point) {
		s.dead = true
		return true
	}
	return false
}

// ------------------------------------------------------------- encoding --

// appendFrame appends one frame holding kind and m to dst, filling in the
// frame's length and checksum once the payload is in place.
func appendFrame[T any](dst []byte, kind byte, m *T) []byte {
	at := len(dst)
	dst = append(append(dst, make([]byte, frameOverhead)...), kind)
	dst = wire.Append(dst, m)
	payload := dst[at+frameOverhead:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(dst[at+4:], checksum.Sum(payload))
	return dst
}

func appendHeader(dst []byte, h Header) []byte {
	h.Magic = magic
	return appendFrame(dst, frameHeader, &h)
}

// ------------------------------------------------------------- decoding --

// nextFrame returns the payload of the frame at b[off:] and the offset
// after it; ok=false when the remaining bytes are not one whole, valid
// frame (torn tail, bit flip, or hostile length).
func nextFrame(b []byte, off int) (payload []byte, next int, ok bool) {
	if off+frameOverhead > len(b) {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(b[off:]))
	if n > maxFrame || off+frameOverhead+n > len(b) {
		return nil, off, false
	}
	sum := binary.LittleEndian.Uint64(b[off+4:])
	payload = b[off+frameOverhead : off+frameOverhead+n]
	if checksum.Sum(payload) != sum {
		return nil, off, false
	}
	return payload, off + frameOverhead + n, true
}

// decodePayload reads a frame payload of the given kind into *m. Its
// []byte fields alias p.
func decodePayload[T any](p []byte, kind byte, m *T) error {
	if len(p) == 0 || p[0] != kind {
		return fmt.Errorf("persist: not a %#x frame", kind)
	}
	return wire.Decode(p[1:], m)
}

func decodeHeader(p []byte) (Header, error) {
	var h Header
	if err := decodePayload(p, frameHeader, &h); err != nil {
		return Header{}, err
	}
	if h.Magic != magic {
		return Header{}, errors.New("persist: bad magic")
	}
	if h.Kind != KindCheckpoint && h.Kind != KindJournal {
		return Header{}, errors.New("persist: unknown file kind")
	}
	return h, nil
}

func decodeRecord(p []byte) (proto.MigrateItem, error) {
	var it proto.MigrateItem
	if err := decodePayload(p, frameRecord, &it); err != nil {
		return proto.MigrateItem{}, err
	}
	if it.Tombstone && it.Value != nil {
		return proto.MigrateItem{}, errors.New("persist: erase record carries a value")
	}
	return it, nil
}

// DecodeCheckpoint strictly validates a checkpoint image: header frame,
// record frames, footer frame whose count matches, and nothing after the
// footer. Anything less — torn tail, bit flip, truncation — rejects the
// whole image (recovery then falls back to the previous epoch). Items
// alias b.
func DecodeCheckpoint(b []byte) (Header, []proto.MigrateItem, error) {
	p, off, ok := nextFrame(b, 0)
	if !ok {
		return Header{}, nil, errors.New("persist: checkpoint missing header frame")
	}
	h, err := decodeHeader(p)
	if err != nil {
		return Header{}, nil, err
	}
	if h.Kind != KindCheckpoint {
		return Header{}, nil, errors.New("persist: not a checkpoint file")
	}
	var recs []proto.MigrateItem
	for {
		p, next, ok := nextFrame(b, off)
		if !ok {
			return Header{}, nil, errors.New("persist: checkpoint torn before footer")
		}
		off = next
		if len(p) > 0 && p[0] == frameFooter {
			var f footer
			if ferr := decodePayload(p, frameFooter, &f); ferr != nil {
				return Header{}, nil, ferr
			}
			if f.Count != uint64(len(recs)) {
				return Header{}, nil, fmt.Errorf("persist: footer count %d != %d records", f.Count, len(recs))
			}
			if off != len(b) {
				return Header{}, nil, errors.New("persist: trailing bytes after footer")
			}
			return h, recs, nil
		}
		r, rerr := decodeRecord(p)
		if rerr != nil {
			return Header{}, nil, rerr
		}
		recs = append(recs, r)
	}
}

// DecodeJournal validates a journal image, returning every whole valid
// record frame before the first damage and the byte length of that clean
// prefix. A torn or bit-flipped tail truncates (never fabricates); only a
// missing or invalid header frame rejects the file outright. Items alias
// b.
func DecodeJournal(b []byte) (Header, []proto.MigrateItem, int, error) {
	p, off, ok := nextFrame(b, 0)
	if !ok {
		return Header{}, nil, 0, errors.New("persist: journal missing header frame")
	}
	h, err := decodeHeader(p)
	if err != nil {
		return Header{}, nil, 0, err
	}
	if h.Kind != KindJournal {
		return Header{}, nil, 0, errors.New("persist: not a journal file")
	}
	var recs []proto.MigrateItem
	clean := off
	for {
		p, next, ok := nextFrame(b, off)
		if !ok {
			return h, recs, clean, nil // torn tail: stop at the last whole frame
		}
		r, rerr := decodeRecord(p)
		if rerr != nil {
			return h, recs, clean, nil // damaged frame: treat as torn from here
		}
		recs = append(recs, r)
		off, clean = next, next
	}
}

// --------------------------------------------------------------- naming --

func ckptName(epoch uint64) string { return fmt.Sprintf("ckpt-%016x.cm", epoch) }
func walName(epoch uint64) string  { return fmt.Sprintf("wal-%016x.cm", epoch) }

func parseName(name string) (kind byte, epoch uint64, ok bool) {
	var e uint64
	if n, err := fmt.Sscanf(name, "ckpt-%016x.cm", &e); err == nil && n == 1 {
		return KindCheckpoint, e, true
	}
	if n, err := fmt.Sscanf(name, "wal-%016x.cm", &e); err == nil && n == 1 {
		return KindJournal, e, true
	}
	return 0, 0, false
}

// ----------------------------------------------------------------- open --

// Open loads dir's lineage (highest footer-valid checkpoint + journal
// tail), rotates to a fresh journal epoch, and returns the store plus
// what it recovered. The caller replays Recovered into its in-memory
// state before serving.
func Open(dir string, shard int, opt Options) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, shard: int64(shard), opt: opt}
	_ = os.Remove(filepath.Join(dir, "ckpt.tmp")) // never recovered from

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var ckptEpochs, walEpochs []uint64
	maxEpoch := uint64(0)
	for _, e := range entries {
		kind, ep, ok := parseName(e.Name())
		if !ok {
			continue
		}
		if ep > maxEpoch {
			maxEpoch = ep
		}
		if kind == KindCheckpoint {
			ckptEpochs = append(ckptEpochs, ep)
		} else {
			walEpochs = append(walEpochs, ep)
		}
	}
	sort.Slice(ckptEpochs, func(i, j int) bool { return ckptEpochs[i] > ckptEpochs[j] })
	sort.Slice(walEpochs, func(i, j int) bool { return walEpochs[i] < walEpochs[j] })

	rec := &Recovered{}
	for _, ep := range ckptEpochs { // newest first; fall back past torn images
		raw, rerr := os.ReadFile(filepath.Join(dir, ckptName(ep)))
		if rerr != nil {
			continue
		}
		h, recs, derr := DecodeCheckpoint(raw)
		if derr != nil || h.Epoch != ep {
			continue
		}
		rec.CheckpointEpoch, rec.ConfigID, rec.Checkpoint = ep, h.ConfigID, recs
		s.ckptEpoch = ep
		if fi, ferr := os.Stat(filepath.Join(dir, ckptName(ep))); ferr == nil {
			s.ckptUnixNs = fi.ModTime().UnixNano()
		}
		break
	}
	for _, ep := range walEpochs {
		if ep < rec.CheckpointEpoch {
			continue // subsumed by the checkpoint; pruning just hadn't finished
		}
		path := filepath.Join(dir, walName(ep))
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			continue
		}
		h, recs, clean, derr := DecodeJournal(raw)
		if derr != nil || h.Epoch != ep {
			continue // headerless/foreign file: no frames are trustworthy
		}
		if clean < len(raw) {
			_ = os.Truncate(path, int64(clean)) // cut the torn tail
		}
		rec.Journal = append(rec.Journal, recs...)
	}

	s.epoch = maxEpoch + 1
	rec.Epoch = s.epoch
	if err := s.openWAL(); err != nil {
		return nil, nil, err
	}
	return s, rec, nil
}

// openWAL creates wal-<s.epoch>.cm with its header frame. s.mu not needed:
// called from Open and under mu from Rotate.
func (s *Store) openWAL() error {
	f, err := os.OpenFile(filepath.Join(s.dir, walName(s.epoch)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	hdr := appendHeader(nil, Header{Kind: KindJournal, Epoch: s.epoch, Shard: s.shard})
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	s.wal = f
	s.walRecords, s.walBytes = 0, uint64(len(hdr))
	return nil
}

// writeChunked writes b to f in rmem.WriteChunk slices — the same publish
// granularity the RMA regions use — after consulting the crash hook at
// torn, a "<phase>.torn" point. A fired torn point leaves half the frame
// behind, the worst torn state a real death mid-write can produce. The
// callers name torn as a literal, so a write with no hook allocates
// nothing.
func (s *Store) writeChunked(f *os.File, b []byte, torn string) error {
	if s.die(torn) {
		_, _ = f.Write(b[:len(b)/2])
		return ErrCrashed
	}
	for i := 0; i < len(b); i += rmem.WriteChunk {
		end := i + rmem.WriteChunk
		if end > len(b) {
			end = len(b)
		}
		if _, err := f.Write(b[i:end]); err != nil {
			return err
		}
	}
	return nil
}

// --------------------------------------------------------------- append --

// Append journals one mutation. Callers hold the mutated key's stripe
// lock, which orders appends against checkpoint rotation; Store.mu is a
// leaf below it serializing appends from different stripes.
func (s *Store) Append(it proto.MigrateItem) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.die("journal.append") {
		return ErrCrashed
	}
	s.encodeBuf = appendFrame(s.encodeBuf[:0], frameRecord, &it)
	if err := s.writeChunked(s.wal, s.encodeBuf, "journal.append.torn"); err != nil {
		return err
	}
	if s.opt.Sync {
		if s.die("journal.fsync") {
			return ErrCrashed
		}
		if err := s.wal.Sync(); err != nil {
			return err
		}
	}
	s.walRecords++
	s.walBytes += uint64(len(s.encodeBuf))
	return nil
}

// Depth returns the live journal's record and byte counts.
func (s *Store) Depth() (records, bytes uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walRecords, s.walBytes
}

// Epoch returns the live journal epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// CheckpointState returns the last durable checkpoint's epoch and mtime.
func (s *Store) CheckpointState() (epoch uint64, unixNano int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptEpoch, s.ckptUnixNs
}

// --------------------------------------------------------- checkpointing --

// Rotate closes the live journal and opens the next epoch's. The caller
// must hold a barrier excluding all appends (the backend holds every
// stripe lock), so the old journal is exactly the pre-rotation mutation
// set and the upcoming checkpoint covers all of it.
func (s *Store) Rotate() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.die("journal.rotate") {
		return 0, ErrCrashed
	}
	if s.wal != nil {
		_ = s.wal.Sync()
		_ = s.wal.Close()
	}
	s.epoch++
	if err := s.openWAL(); err != nil {
		return 0, err
	}
	return s.epoch, nil
}

// CheckpointWriter streams a corpus snapshot into ckpt.tmp, committing it
// atomically as ckpt-<epoch>.cm.
type CheckpointWriter struct {
	s     *Store
	f     *os.File
	epoch uint64
	count uint64
	buf   []byte
}

// BeginCheckpoint opens the temp image for the given epoch (normally the
// result of Rotate) stamped with the backend's config ID.
func (s *Store) BeginCheckpoint(epoch, configID uint64) (*CheckpointWriter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.die("checkpoint.begin") {
		return nil, ErrCrashed
	}
	f, err := os.OpenFile(filepath.Join(s.dir, "ckpt.tmp"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	cw := &CheckpointWriter{s: s, f: f, epoch: epoch}
	cw.buf = appendHeader(nil, Header{Kind: KindCheckpoint, Epoch: epoch, ConfigID: configID, Shard: s.shard})
	if werr := s.writeChunked(f, cw.buf, "checkpoint.header.torn"); werr != nil {
		f.Close()
		return nil, werr
	}
	return cw, nil
}

// Write appends one corpus record to the image. A failed write closes the
// image and leaves it on disk as a crash would (Open never recovers from
// ckpt.tmp).
func (cw *CheckpointWriter) Write(it proto.MigrateItem) error {
	cw.s.mu.Lock()
	defer cw.s.mu.Unlock()
	if cw.s.die("checkpoint.record") {
		cw.f.Close()
		return ErrCrashed
	}
	cw.buf = appendFrame(cw.buf[:0], frameRecord, &it)
	if err := cw.s.writeChunked(cw.f, cw.buf, "checkpoint.record.torn"); err != nil {
		cw.f.Close()
		return err
	}
	cw.count++
	return nil
}

// Commit seals the image (footer → fsync → rename → dir fsync) and prunes
// every older epoch's files, which are now subsumed.
func (cw *CheckpointWriter) Commit() error {
	s := cw.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.die("checkpoint.footer") {
		cw.f.Close()
		return ErrCrashed
	}
	cw.buf = appendFrame(cw.buf[:0], frameFooter, &footer{cw.count})
	if err := s.writeChunked(cw.f, cw.buf, "checkpoint.footer.torn"); err != nil {
		cw.f.Close()
		return err
	}
	if s.die("checkpoint.fsync") {
		cw.f.Close()
		return ErrCrashed
	}
	if err := cw.f.Sync(); err != nil {
		cw.f.Close()
		return err
	}
	if err := cw.f.Close(); err != nil {
		return err
	}
	if s.die("checkpoint.rename") {
		return ErrCrashed
	}
	final := filepath.Join(s.dir, ckptName(cw.epoch))
	if err := os.Rename(filepath.Join(s.dir, "ckpt.tmp"), final); err != nil {
		return err
	}
	if s.die("checkpoint.dirsync") {
		return ErrCrashed
	}
	syncDir(s.dir)
	s.ckptEpoch = cw.epoch
	s.ckptUnixNs = time.Now().UnixNano()
	if s.die("checkpoint.prune") {
		return ErrCrashed
	}
	s.pruneLocked(cw.epoch)
	return nil
}

// pruneLocked removes every lineage file older than keepEpoch.
func (s *Store) pruneLocked(keepEpoch uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if _, ep, ok := parseName(e.Name()); !ok || ep >= keepEpoch {
			continue
		}
		_ = os.Remove(filepath.Join(s.dir, e.Name()))
	}
}

// syncDir fsyncs a directory so a just-renamed file's dirent is durable.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// ---------------------------------------------------------------- reset --

// Reset wipes the lineage and starts a fresh epoch — used when the
// backend's corpus is discarded wholesale (a shrink demoted it to a
// spare), so a later crash cannot resurrect dropped keys.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrCrashed
	}
	if s.wal != nil {
		_ = s.wal.Close()
		s.wal = nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if _, _, ok := parseName(e.Name()); ok || e.Name() == "ckpt.tmp" {
			_ = os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	s.epoch++
	s.ckptEpoch, s.ckptUnixNs = 0, 0
	return s.openWAL()
}

// Close releases the journal handle (final; the store is unusable after).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	s.dead = true
	return err
}
