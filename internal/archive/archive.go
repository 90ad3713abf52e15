// Package archive provides full-image archives and media recovery. The
// paper assumes archives exist alongside the ping-pong checkpoint pair
// (§4.3 notes that the post-corruption-recovery checkpoint "invalidates
// all archives" unless the log is amended); this package supplies them:
// an archive is a certified-consistent copy of the database image plus
// the log position it is consistent with, taken with the same barrier and
// audit discipline as a checkpoint. Recovering from an archive replays
// the retained log forward from the archive's position — media recovery
// when both checkpoint images are lost, and the substrate that would let
// the prior-state model reach back past the current checkpoint.
//
// Archives interact with log compaction: replaying from an archive needs
// every record since the archive's position, so databases that intend to
// archive should either archive at checkpoint frequency or disable
// compaction (core.Config.DisableLogCompaction). Recover reports a clear
// error when the needed prefix has been compacted away.
package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/recovery"
	"repro/internal/wal"
)

const magic = "DALIARC1"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Info describes an archive file.
type Info struct {
	// CKEnd is the log position the image is update-consistent with.
	CKEnd wal.LSN
	// ImageSize is the database image size in bytes.
	ImageSize int
	// AuditSN is the Audit_SN at archive time.
	AuditSN wal.LSN
}

// Write takes a consistent, audited archive of db into path. Like a
// checkpoint, it quiesces updates, flushes the log, snapshots the image
// and metadata, and certifies with a full audit; unlike a checkpoint it
// writes a single self-contained file and does not touch the ping-pong
// anchor. Returns the archive's Info.
func Write(db *core.DB, path string) (Info, error) {
	var (
		image []byte
		meta  []byte
		ckEnd wal.LSN
	)
	err := db.ExclusiveBarrier(func() error {
		if err := db.Internals().Log.Flush(); err != nil {
			return err
		}
		// Flushed under the barrier, the stable end is a consistent cut,
		// exactly like a checkpoint's CK_end.
		ckEnd = db.Internals().Log.StableEnd()
		if n := db.Internals().ATT.Len(); n != 0 {
			return fmt.Errorf("archive: %d transactions active; archives require quiescence", n)
		}
		image = append([]byte(nil), db.Internals().Arena.Bytes()...)
		meta = db.EncodeMetaForCheckpoint()
		return nil
	})
	if err != nil {
		return Info{}, err
	}
	// Certify: the archive is valid only if the database audits clean.
	if err := db.Audit(); err != nil {
		return Info{}, fmt.Errorf("archive: certification audit failed: %w", err)
	}
	info := Info{CKEnd: ckEnd, ImageSize: len(image), AuditSN: db.LastCleanAuditLSN()}

	var b []byte
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(info.CKEnd))
	b = binary.LittleEndian.AppendUint64(b, uint64(info.AuditSN))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(meta)))
	b = append(b, meta...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(image)))
	b = append(b, image...)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))

	// Install durably through the database's filesystem: fsynced temp file,
	// atomic rename, directory fsync. An archive that vanishes in a crash
	// because its directory entry was never forced is worse than no archive
	// — the operator believes a restore point exists.
	fsys := db.FS()
	if fsys == nil {
		fsys = iofault.OS
	}
	tmp := path + ".tmp"
	if err := iofault.WriteFileSync(fsys, tmp, b); err != nil {
		return Info{}, fmt.Errorf("archive: write: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return Info{}, fmt.Errorf("archive: install: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return Info{}, fmt.Errorf("archive: sync dir: %w", err)
	}
	return info, nil
}

// Read loads an archive file through fsys, so media recovery under an
// injected filesystem observes the same faults the writer would.
func Read(fsys iofault.FS, path string) (Info, []byte, []byte, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return Info{}, nil, nil, fmt.Errorf("archive: read: %w", err)
	}
	if len(b) < len(magic)+8*3+4 || string(b[:len(magic)]) != magic {
		return Info{}, nil, nil, fmt.Errorf("archive: bad archive file")
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return Info{}, nil, nil, fmt.Errorf("archive: checksum mismatch")
	}
	pos := len(magic)
	ckEnd := wal.LSN(binary.LittleEndian.Uint64(body[pos:]))
	pos += 8
	auditSN := wal.LSN(binary.LittleEndian.Uint64(body[pos:]))
	pos += 8
	metaLen := int(binary.LittleEndian.Uint64(body[pos:]))
	pos += 8
	if pos+metaLen > len(body) {
		return Info{}, nil, nil, fmt.Errorf("archive: truncated meta")
	}
	meta := append([]byte(nil), body[pos:pos+metaLen]...)
	pos += metaLen
	imgLen := int(binary.LittleEndian.Uint64(body[pos:]))
	pos += 8
	if pos+imgLen > len(body) {
		return Info{}, nil, nil, fmt.Errorf("archive: truncated image")
	}
	if pos+imgLen != len(body) {
		return Info{}, nil, nil, fmt.Errorf("archive: %d bytes past the image", len(body)-pos-imgLen)
	}
	image := append([]byte(nil), body[pos:pos+imgLen]...)
	return Info{CKEnd: ckEnd, ImageSize: imgLen, AuditSN: auditSN}, image, meta, nil
}

// Recover performs media recovery: the archive image is loaded and the
// database's retained log is replayed forward from the archive's
// position, exactly like restart recovery from a checkpoint — including
// rollback of transactions incomplete at the end of the log. The
// database's checkpoint anchor and images are ignored (presumed lost or
// distrusted); recovery finishes with a fresh certified checkpoint.
func Recover(cfg core.Config, archivePath string) (*core.DB, *recovery.Report, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, nil, err
	}
	info, image, meta, err := Read(cfg.FS, archivePath)
	if err != nil {
		return nil, nil, err
	}
	base, err := wal.LogBaseFS(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	if base > info.CKEnd {
		return nil, nil, fmt.Errorf(
			"archive: log compacted to %d, archive needs replay from %d; retain the log (DisableLogCompaction) on archived databases",
			base, info.CKEnd)
	}
	return recovery.OpenFromImage(cfg, recovery.ImageState{
		Image:   image,
		Meta:    meta,
		CKEnd:   info.CKEnd,
		AuditSN: info.AuditSN,
	}, recovery.Options{})
}

// String formats archive info for tooling.
func (i Info) String() string {
	return fmt.Sprintf("archive{ck_end=%d, image=%d bytes, audit_sn=%d}", i.CKEnd, i.ImageSize, i.AuditSN)
}
