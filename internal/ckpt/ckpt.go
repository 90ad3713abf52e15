// Package ckpt implements Dalí-style ping-pong checkpointing (paper
// §2.1). Two checkpoint images, Ckpt_A and Ckpt_B, live on disk together
// with a checkpoint anchor (cur_ckpt) naming the most recent valid image.
// Successive checkpoints alternate between the images, each writing the
// pages dirtied since that image was last written. Every image carries a
// copy of the active transaction table (with local undo logs), the
// database metadata, and CK_end — the log position the image is
// update-consistent with.
//
// The paper extends checkpointing for corruption protection: after an
// image is written, the whole database is audited, and only a clean audit
// certifies the checkpoint (making both direct and indirect corruption
// absent from the disk image, §4.2); the anchor also records Audit_SN,
// the log position at which the last clean audit began, which corruption
// recovery uses as the conservative lower bound on when corruption
// occurred. The audit itself is performed by the caller (it needs the
// protection scheme's latching); this package sequences the files.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/iofault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/region"
	"repro/internal/wal"
)

// ErrImageCorrupt is wrapped by every Load failure that means "the
// checkpoint files the anchor names cannot be trusted" — a torn or
// corrupt image page (per-page codeword mismatch), a bad meta checksum,
// truncated metadata, or missing files. Recovery uses errors.Is against
// it to decide whether falling back to the other ping-pong image is
// worth attempting. A missing anchor is NOT an ErrImageCorrupt: that is
// a database that never checkpointed.
var ErrImageCorrupt = errors.New("ckpt: checkpoint image corrupt on disk")

// File names inside the database directory.
const (
	AnchorFileName = "cur_ckpt"
	imageAName     = "ckpt_A.img"
	imageBName     = "ckpt_B.img"
	metaAName      = "ckpt_A.meta"
	metaBName      = "ckpt_B.meta"
)

// ImageFileName returns the on-disk file name of checkpoint image 0 (A)
// or 1 (B) — the Anchor.Current numbering — for tools that corrupt or
// inspect images directly.
func ImageFileName(which int) string {
	if which == 0 {
		return imageAName
	}
	return imageBName
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Anchor is cur_ckpt: it points at the current valid checkpoint image and
// carries the log positions recovery needs.
type Anchor struct {
	// Current is the valid image: 0 for A, 1 for B.
	Current int
	// SeqNo increments with every completed checkpoint.
	SeqNo uint64
	// CKEnd is the log position the image is update-consistent with:
	// recovery's forward scan starts here.
	CKEnd wal.LSN
	// AuditSN is the LSN of the begin record of the last clean audit
	// (the paper's Audit_SN).
	AuditSN wal.LSN
}

// anchorSize is the encoded anchor: the four fields and a CRC32C.
const anchorSize = 32

func (a Anchor) encode() []byte {
	b := make([]byte, 0, anchorSize)
	b = binary.LittleEndian.AppendUint32(b, uint32(a.Current))
	b = binary.LittleEndian.AppendUint64(b, a.SeqNo)
	b = binary.LittleEndian.AppendUint64(b, uint64(a.CKEnd))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.AuditSN))
	sum := crc32.Checksum(b, crcTable)
	return append(b, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

func decodeAnchor(b []byte) (Anchor, error) {
	if len(b) != anchorSize {
		return Anchor{}, fmt.Errorf("ckpt: anchor is %d bytes, want %d", len(b), anchorSize)
	}
	body, sumBytes := b[:len(b)-4], b[len(b)-4:]
	sum := uint32(sumBytes[0]) | uint32(sumBytes[1])<<8 | uint32(sumBytes[2])<<16 | uint32(sumBytes[3])<<24
	if crc32.Checksum(body, crcTable) != sum {
		return Anchor{}, fmt.Errorf("ckpt: anchor checksum mismatch")
	}
	return Anchor{
		Current: int(binary.LittleEndian.Uint32(body)),
		SeqNo:   binary.LittleEndian.Uint64(body[4:]),
		CKEnd:   wal.LSN(binary.LittleEndian.Uint64(body[12:])),
		AuditSN: wal.LSN(binary.LittleEndian.Uint64(body[20:])),
	}, nil
}

// pageSet is a set of dirty pages.
type pageSet map[mem.PageID]struct{}

// Set manages the pair of checkpoint images for one database directory.
type Set struct {
	fs       iofault.FS
	dir      string
	pageSize int
	// pool chunks the per-page codeword computation of Write across
	// workers; nil (until SetPool) keeps it on the calling goroutine.
	pool *region.Pool

	mu          sync.Mutex
	dirty       [2]pageSet // pages dirtied since image i was last written
	initialized [2]bool    // image i contains a full copy of the arena
	anchor      Anchor
	haveAnchor  bool
	// pageCW holds one codeword per page of each image file, persisted in
	// the image's meta file, so Load can detect storage-level corruption
	// of a checkpoint (the disk image protected by the same codeword idea
	// that protects the memory image).
	pageCW [2][]region.Codeword

	mPages    *obs.Counter
	mBytes    *obs.Counter
	mSkips    *obs.Counter
	mDirSyncs *obs.Counter
}

// SetRegistry wires the checkpoint writer's page/byte counters into reg.
// Must be called before concurrent use (core.Open does this while
// building the database).
func (s *Set) SetRegistry(reg *obs.Registry) {
	s.mPages = reg.Counter(obs.NameCkptPagesWritten)
	s.mBytes = reg.Counter(obs.NameCkptBytesWritten)
	s.mSkips = reg.Counter(obs.NameCkptDirtyClean)
	s.mDirSyncs = reg.Counter(obs.NameCkptDirSyncs)
}

// SetPool attaches the worker pool used to compute the written pages'
// codewords. Must be called before concurrent use (core wires the
// database's shared scan pool in here).
func (s *Set) SetPool(p *region.Pool) { s.pool = p }

// pageGrain is the minimum number of pages per parallel chunk, chosen so
// each chunk covers at least 64 KiB of image.
func pageGrain(pageSize int) int {
	if g := (64 << 10) / pageSize; g > 1 {
		return g
	}
	return 1
}

// Open prepares checkpoint management in dir, reading the anchor if one
// exists. A database that has never completed a checkpoint has no anchor.
// The checkpointer's durability I/O (image writes, meta writes, the
// anchor install and its directory fsync) goes through fsys, so
// storage-fault campaigns can inject torn pages, ENOSPC and crash points
// into the checkpoint path; iofault.OS is the real filesystem.
func Open(fsys iofault.FS, dir string, pageSize int) (*Set, error) {
	s := &Set{
		fs:       fsys,
		dir:      dir,
		pageSize: pageSize,
		dirty:    [2]pageSet{make(pageSet), make(pageSet)},
	}
	b, err := fsys.ReadFile(filepath.Join(dir, AnchorFileName))
	switch {
	case err == nil:
		a, err := decodeAnchor(b)
		if err != nil {
			return nil, err
		}
		s.anchor = a
		s.haveAnchor = true
		// After a restart the dirty sets are lost, so we cannot know
		// which pages each on-disk image is missing relative to the
		// recovered in-memory state. Leave both images marked
		// uninitialized: the next checkpoint of each image writes every
		// page once, after which incremental ping-pong resumes.
	case os.IsNotExist(err):
	default:
		return nil, fmt.Errorf("ckpt: read anchor: %w", err)
	}
	return s, nil
}

// Anchor returns the current anchor; ok is false if no checkpoint has
// completed yet.
func (s *Set) Anchor() (Anchor, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.anchor, s.haveAnchor
}

// NoteDirty records that a page was touched by a flushed physical log
// record. It feeds both images' dirty sets; registered with the system
// log as a DirtyNoter.
func (s *Set) NoteDirty(id mem.PageID) {
	s.mu.Lock()
	s.dirty[0][id] = struct{}{}
	s.dirty[1][id] = struct{}{}
	s.mu.Unlock()
}

// DirtyCounts reports the current sizes of the two dirty sets (for tests
// and instrumentation).
func (s *Set) DirtyCounts() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dirty[0]), len(s.dirty[1])
}

// Snapshot is the data captured under the update barrier that a
// checkpoint writes out.
type Snapshot struct {
	image int // which image this snapshot will be written to
	// Pages holds copies of the dirty pages (or all pages for an
	// uninitialized image), keyed by page ID.
	Pages map[mem.PageID][]byte
	// ATT is the serialized active transaction table with local undo logs.
	ATT []byte
	// Meta is the serialized database metadata (catalog, allocator).
	Meta []byte
	// CKEnd is the stable log end the snapshot is consistent with.
	CKEnd wal.LSN
}

// Begin captures a snapshot for the next checkpoint. The caller must hold
// the database's update barrier in exclusive mode and must have flushed
// the log (ckEnd is the resulting stable end). Pages are copied to the
// side so the barrier can be released before disk writes begin.
func (s *Set) Begin(arena *mem.Arena, att, meta []byte, ckEnd wal.LSN) *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := 0
	if s.haveAnchor {
		img = 1 - s.anchor.Current
	}
	snap := &Snapshot{
		image: img,
		Pages: make(map[mem.PageID][]byte),
		ATT:   att,
		Meta:  meta,
		CKEnd: ckEnd,
	}
	if !s.initialized[img] {
		for id := 0; id < arena.NumPages(); id++ {
			snap.Pages[mem.PageID(id)] = append([]byte(nil), arena.Page(mem.PageID(id))...)
		}
	} else {
		for id := range s.dirty[img] {
			snap.Pages[id] = append([]byte(nil), arena.Page(id)...)
		}
	}
	// The dirty set for this image restarts now: anything dirtied after
	// this point (it cannot be concurrent — the barrier is held) belongs
	// to the next checkpoint of this image.
	s.dirty[img] = make(pageSet)
	s.mSkips.Add(uint64(arena.NumPages() - len(snap.Pages)))
	return snap
}

// Write persists the snapshot's pages and metadata to its image files
// (fsynced) but does not certify it: the anchor is untouched, so a crash
// before Certify recovers from the previous checkpoint. This is the
// paper's sequencing — the full-database audit runs between Write and
// Certify.
func (s *Set) Write(snap *Snapshot, arenaSize int) error {
	imgPath := filepath.Join(s.dir, imageName(snap.image))
	f, err := s.fs.OpenFile(imgPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: open image: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(int64(arenaSize)); err != nil {
		return fmt.Errorf("ckpt: size image: %w", err)
	}
	// Deterministic write order.
	ids := make([]mem.PageID, 0, len(snap.Pages))
	for id := range snap.Pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if _, err := f.WriteAt(snap.Pages[id], int64(id)*int64(s.pageSize)); err != nil {
			return fmt.Errorf("ckpt: write page %d: %w", id, err)
		}
		s.mPages.Inc()
		s.mBytes.Add(uint64(len(snap.Pages[id])))
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("ckpt: sync image: %w", err)
	}

	// Maintain the image's per-page codeword table: entries for the pages
	// written this checkpoint, carried-over entries for the rest. The
	// per-page Compute calls are independent, so they are chunked across
	// the scan pool (reading the snapshot's page map concurrently is safe:
	// it is immutable by now); only the table install runs under the
	// mutex.
	numPages := arenaSize / s.pageSize
	written := make([]region.Codeword, len(ids))
	s.pool.Run(len(ids), pageGrain(s.pageSize), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			written[i] = region.Compute(snap.Pages[ids[i]])
		}
	})
	s.mu.Lock()
	if s.pageCW[snap.image] == nil {
		if len(snap.Pages) < numPages {
			s.mu.Unlock()
			return fmt.Errorf("ckpt: internal: incremental checkpoint of image %d without a page codeword table", snap.image)
		}
		s.pageCW[snap.image] = make([]region.Codeword, numPages)
	}
	cws := s.pageCW[snap.image]
	for i, id := range ids {
		cws[id] = written[i]
	}
	s.mu.Unlock()

	// Metadata file: CK_end, ATT, meta, page codewords — checksummed.
	var mb []byte
	mb = binary.LittleEndian.AppendUint64(mb, uint64(snap.CKEnd))
	mb = binary.LittleEndian.AppendUint64(mb, uint64(len(snap.ATT)))
	mb = append(mb, snap.ATT...)
	mb = binary.LittleEndian.AppendUint64(mb, uint64(len(snap.Meta)))
	mb = append(mb, snap.Meta...)
	mb = binary.LittleEndian.AppendUint64(mb, uint64(numPages))
	for _, cw := range cws {
		mb = binary.LittleEndian.AppendUint64(mb, uint64(cw))
	}
	sum := crc32.Checksum(mb, crcTable)
	mb = binary.LittleEndian.AppendUint32(mb, sum)
	if err := iofault.WriteFileSync(s.fs, filepath.Join(s.dir, metaName(snap.image)), mb); err != nil {
		return fmt.Errorf("ckpt: write meta: %w", err)
	}
	return nil
}

// Certify toggles the anchor to the snapshot's image, making it the
// current checkpoint. auditSN is the LSN of the begin record of the clean
// audit that certified the image.
func (s *Set) Certify(snap *Snapshot, auditSN wal.LSN) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := Anchor{
		Current: snap.image,
		SeqNo:   s.anchor.SeqNo + 1,
		CKEnd:   snap.CKEnd,
		AuditSN: auditSN,
	}
	if err := s.writeAnchor(a); err != nil {
		return err
	}
	s.anchor = a
	s.haveAnchor = true
	s.initialized[snap.image] = true
	return nil
}

func (s *Set) writeAnchor(a Anchor) error {
	tmp := filepath.Join(s.dir, AnchorFileName+".tmp")
	if err := iofault.WriteFileSync(s.fs, tmp, a.encode()); err != nil {
		return fmt.Errorf("ckpt: write anchor: %w", err)
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, AnchorFileName)); err != nil {
		return fmt.Errorf("ckpt: install anchor: %w", err)
	}
	return s.syncDir()
}

// syncDir fsyncs the database directory after an anchor install, making
// the rename durable. On platforms where directory fsync is reliable
// (Linux) a failure fails the checkpoint — the anchor toggle is not
// durable, so certifying on top of it would let a crash resurrect the
// previous checkpoint while the log has already been compacted past it.
// Elsewhere the failure is ignored, matching the historical best-effort
// behavior.
func (s *Set) syncDir() error {
	if err := s.fs.SyncDir(s.dir); err != nil {
		if dirSyncMandatory {
			return fmt.Errorf("ckpt: sync dir after anchor install: %w", err)
		}
		return nil
	}
	s.mDirSyncs.Inc()
	return nil
}

// Loaded is a checkpoint image read back for recovery.
type Loaded struct {
	Anchor Anchor
	// Image is the full database image.
	Image []byte
	// ATTEntries are the checkpointed transactions with their undo logs.
	ATTEntries []*wal.TxnEntry
	// Meta is the checkpointed database metadata.
	Meta []byte
}

// Load reads the current checkpoint image named by the anchor in dir,
// through fsys — the same (possibly fault-injected) filesystem the
// checkpointer wrote through. Failures that mean the anchored image
// cannot be trusted (torn pages, bad checksums, missing files) wrap
// ErrImageCorrupt so recovery can attempt LoadFallback.
func Load(fsys iofault.FS, dir string) (*Loaded, error) {
	ab, err := fsys.ReadFile(filepath.Join(dir, AnchorFileName))
	if err != nil {
		return nil, fmt.Errorf("ckpt: no checkpoint anchor: %w", err)
	}
	a, err := decodeAnchor(ab)
	if err != nil {
		return nil, err
	}
	ckEnd, img, entries, meta, err := loadImage(fsys, dir, a.Current)
	if err != nil {
		return nil, err
	}
	if ckEnd != a.CKEnd {
		return nil, fmt.Errorf("%w: meta CK_end %d disagrees with anchor %d", ErrImageCorrupt, ckEnd, a.CKEnd)
	}
	return &Loaded{
		Anchor:     a,
		Image:      img,
		ATTEntries: entries,
		Meta:       meta,
	}, nil
}

// LoadFallback reads the OTHER ping-pong image — the one the anchor does
// not name — verified against its own meta file. It is recovery's last
// resort when Load finds the anchored image corrupt on disk: the
// fallback image is one checkpoint older, so the returned anchor carries
// the fallback meta's own CK_end (replay must start there) and a zero
// AuditSN (the audit position that certified the older image is not
// recorded, so corruption recovery must assume the conservative bound).
// The fallback is only usable when the stable log still retains records
// back to that older CK_end — log compaction normally discards them, so
// callers must check wal.LogBase against the returned CKEnd.
func LoadFallback(fsys iofault.FS, dir string) (*Loaded, error) {
	ab, err := fsys.ReadFile(filepath.Join(dir, AnchorFileName))
	if err != nil {
		return nil, fmt.Errorf("ckpt: no checkpoint anchor: %w", err)
	}
	a, err := decodeAnchor(ab)
	if err != nil {
		return nil, err
	}
	fb := 1 - a.Current
	ckEnd, img, entries, meta, err := loadImage(fsys, dir, fb)
	if err != nil {
		return nil, fmt.Errorf("ckpt: fallback image %d: %w", fb, err)
	}
	la := a
	la.Current = fb
	la.CKEnd = ckEnd
	la.AuditSN = 0
	return &Loaded{
		Anchor:     la,
		Image:      img,
		ATTEntries: entries,
		Meta:       meta,
	}, nil
}

// loadImage reads and verifies one checkpoint image and its meta file,
// returning the meta's CK_end, the image bytes, the checkpointed ATT and
// the database metadata. Every verification failure wraps ErrImageCorrupt.
func loadImage(fsys iofault.FS, dir string, image int) (wal.LSN, []byte, []*wal.TxnEntry, []byte, error) {
	img, err := fsys.ReadFile(filepath.Join(dir, imageName(image)))
	if err != nil {
		return 0, nil, nil, nil, fmt.Errorf("%w: read image: %v", ErrImageCorrupt, err)
	}
	mb, err := fsys.ReadFile(filepath.Join(dir, metaName(image)))
	if err != nil {
		return 0, nil, nil, nil, fmt.Errorf("%w: read meta: %v", ErrImageCorrupt, err)
	}
	if len(mb) < 20 {
		return 0, nil, nil, nil, fmt.Errorf("%w: meta too short", ErrImageCorrupt)
	}
	body, sumb := mb[:len(mb)-4], mb[len(mb)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(sumb) {
		return 0, nil, nil, nil, fmt.Errorf("%w: meta checksum mismatch", ErrImageCorrupt)
	}
	ckEnd := wal.LSN(binary.LittleEndian.Uint64(body))
	pos := 8
	attLen := int(binary.LittleEndian.Uint64(body[pos:]))
	pos += 8
	if pos+attLen > len(body) {
		return 0, nil, nil, nil, fmt.Errorf("%w: meta truncated", ErrImageCorrupt)
	}
	entries, err := wal.DecodeEntries(body[pos : pos+attLen])
	if err != nil {
		return 0, nil, nil, nil, fmt.Errorf("%w: decode ATT: %v", ErrImageCorrupt, err)
	}
	pos += attLen
	if pos+8 > len(body) {
		return 0, nil, nil, nil, fmt.Errorf("%w: meta truncated", ErrImageCorrupt)
	}
	metaLen := int(binary.LittleEndian.Uint64(body[pos:]))
	pos += 8
	if pos+metaLen > len(body) {
		return 0, nil, nil, nil, fmt.Errorf("%w: meta truncated", ErrImageCorrupt)
	}
	meta := append([]byte(nil), body[pos:pos+metaLen]...)
	pos += metaLen

	// Verify the image against its per-page codeword table: corruption of
	// the checkpoint file itself (bad disk, a torn page from a lying
	// write, truncation, tampering) must not be trusted as a recovery
	// starting point.
	if pos+8 > len(body) {
		return 0, nil, nil, nil, fmt.Errorf("%w: meta truncated (no page codewords)", ErrImageCorrupt)
	}
	numPages := int(binary.LittleEndian.Uint64(body[pos:]))
	pos += 8
	if pos+8*numPages > len(body) {
		return 0, nil, nil, nil, fmt.Errorf("%w: page codeword table truncated", ErrImageCorrupt)
	}
	if numPages == 0 || len(img)%numPages != 0 {
		return 0, nil, nil, nil, fmt.Errorf("%w: image size %d not divisible into %d pages", ErrImageCorrupt, len(img), numPages)
	}
	if pos+8*numPages != len(body) {
		return 0, nil, nil, nil, fmt.Errorf("%w: %d bytes past the page codeword table", ErrImageCorrupt, len(body)-pos-8*numPages)
	}
	pageSize := len(img) / numPages
	// The verification scan is pure (no state but the image bytes), so it
	// is chunked across the process-wide default pool; each chunk reports
	// its lowest corrupt page so the error is deterministic.
	badChunks := region.RunChunked(region.DefaultPool(), numPages, pageGrain(pageSize), func(lo, hi int) int {
		for id := lo; id < hi; id++ {
			stored := region.Codeword(binary.LittleEndian.Uint64(body[pos+8*id:]))
			actual := region.Compute(img[id*pageSize : (id+1)*pageSize])
			if stored != actual {
				return id
			}
		}
		return -1
	})
	for _, id := range badChunks {
		if id >= 0 {
			stored := region.Codeword(binary.LittleEndian.Uint64(body[pos+8*id:]))
			actual := region.Compute(img[id*pageSize : (id+1)*pageSize])
			return 0, nil, nil, nil, fmt.Errorf("%w: image page %d (stored %016x, actual %016x)",
				ErrImageCorrupt, id, uint64(stored), uint64(actual))
		}
	}
	return ckEnd, img, entries, meta, nil
}

func imageName(i int) string {
	if i == 0 {
		return imageAName
	}
	return imageBName
}

func metaName(i int) string {
	if i == 0 {
		return metaAName
	}
	return metaBName
}
