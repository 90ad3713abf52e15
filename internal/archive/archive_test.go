package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/iofault"
	"repro/internal/protect"
)

func setupDB(t *testing.T, compaction bool) (*core.DB, core.Config, *heap.Table) {
	t.Helper()
	cfg := core.Config{
		Dir:                  t.TempDir(),
		ArenaSize:            1 << 18,
		Protect:              protect.Config{Kind: protect.KindDataCW, RegionSize: 64},
		DisableLogCompaction: !compaction,
	}
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat, _ := heap.Open(db)
	tb, err := cat.CreateTable("t", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := db.Begin()
	for i := 0; i < 8; i++ {
		if _, err := tb.Insert(txn, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return db, cfg, tb
}

func update(t *testing.T, db *core.DB, tb *heap.Table, slot uint32, data []byte) {
	t.Helper()
	txn, _ := db.Begin()
	if err := tb.Update(txn, heap.RID{Table: tb.ID, Slot: slot}, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestArchiveWriteReadRoundTrip(t *testing.T) {
	db, _, _ := setupDB(t, false)
	defer db.Close()
	path := filepath.Join(t.TempDir(), "db.arc")
	info, err := Write(db, path)
	if err != nil {
		t.Fatal(err)
	}
	if info.ImageSize != db.Internals().Arena.Size() {
		t.Fatalf("image size = %d", info.ImageSize)
	}
	got, image, meta, err := Read(iofault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CKEnd != info.CKEnd || got.ImageSize != info.ImageSize || got.AuditSN != info.AuditSN ||
		len(got.CKEnds) != len(info.CKEnds) {
		t.Fatalf("info roundtrip: %+v != %+v", got, info)
	}
	if !bytes.Equal(image, db.Internals().Arena.Bytes()) {
		t.Fatal("image mismatch")
	}
	if len(meta) == 0 {
		t.Fatal("meta missing")
	}
	if info.String() == "" {
		t.Fatal("empty info string")
	}
}

func TestArchiveRejectsActiveTxns(t *testing.T) {
	db, _, _ := setupDB(t, false)
	defer db.Close()
	txn, _ := db.Begin()
	if _, err := Write(db, filepath.Join(t.TempDir(), "a.arc")); err == nil {
		t.Fatal("archive with active transaction accepted")
	}
	txn.Commit()
}

func TestArchiveReadRejectsCorruption(t *testing.T) {
	db, _, _ := setupDB(t, false)
	defer db.Close()
	path := filepath.Join(t.TempDir(), "db.arc")
	if _, err := Write(db, path); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0xFF
	os.WriteFile(path, b, 0o644)
	if _, _, _, err := Read(iofault.OS, path); err == nil {
		t.Fatal("corrupt archive accepted")
	}
	if _, _, _, err := Read(iofault.OS, filepath.Join(t.TempDir(), "missing.arc")); err == nil {
		t.Fatal("missing archive accepted")
	}
}

func TestMediaRecoveryFromArchive(t *testing.T) {
	db, cfg, tb := setupDB(t, false)
	path := filepath.Join(t.TempDir(), "db.arc")
	if _, err := Write(db, path); err != nil {
		t.Fatal(err)
	}

	// Post-archive committed history that replay must reapply.
	update(t, db, tb, 2, []byte("after-archive"))
	// An uncommitted transaction at "media failure" time.
	loser, _ := db.Begin()
	if err := tb.Update(loser, heap.RID{Table: tb.ID, Slot: 3}, 0, []byte("DOOMED")); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	// Media failure: both checkpoint images and the anchor are destroyed.
	for _, f := range []string{ckpt.AnchorFileName, "ckpt_A.img", "ckpt_B.img", "ckpt_A.meta", "ckpt_B.meta"} {
		os.Remove(filepath.Join(cfg.Dir, f))
	}

	db2, rep, err := Recover(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.RedoApplied == 0 {
		t.Fatal("no redo applied from the retained log")
	}
	cat, _ := heap.Open(db2)
	tb2, _ := cat.Table("t")
	txn, _ := db2.Begin()
	defer txn.Commit()
	got, err := tb2.Read(txn, heap.RID{Table: tb2.ID, Slot: 2})
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:13]) != "after-archive" {
		t.Fatalf("post-archive history lost: %q", got[:13])
	}
	if got, _ := tb2.Read(txn, heap.RID{Table: tb2.ID, Slot: 3}); string(got[:6]) == "DOOMED" {
		t.Fatal("uncommitted work survived media recovery")
	}
	if got, _ := tb2.Read(txn, heap.RID{Table: tb2.ID, Slot: 1}); got[0] != 2 {
		t.Fatalf("archived record damaged: %v", got[:2])
	}
	if err := db2.Audit(); err != nil {
		t.Fatalf("audit after media recovery: %v", err)
	}
}

func TestMediaRecoveryRefusesCompactedLog(t *testing.T) {
	// With compaction on, a later checkpoint discards the log prefix the
	// archive needs; Recover must refuse rather than silently lose data.
	db, cfg, tb := setupDB(t, true)
	path := filepath.Join(t.TempDir(), "db.arc")
	if _, err := Write(db, path); err != nil {
		t.Fatal(err)
	}
	update(t, db, tb, 2, []byte("x"))
	if err := db.Checkpoint(); err != nil { // compacts past the archive point
		t.Fatal(err)
	}
	db.Close()
	if _, _, err := Recover(cfg, path); err == nil {
		t.Fatal("recovery from compacted-away history accepted")
	}
}
