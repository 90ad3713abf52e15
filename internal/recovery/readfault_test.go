package recovery

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/protect"
)

// These tests pin the satellite fix that routed recovery's reads (anchor,
// checkpoint image/meta, stable log) through core.Config.FS: a FaultFS
// armed with read faults must be observed by recovery. Against the
// pre-fix code — raw os.ReadFile in ckpt.Load and wal.Scan — both
// subtests pass recovery a faulted filesystem it never consults, recovery
// succeeds cleanly, and the tests fail.

// TestRecoveryObservesFailedRead arms a hard failure of the very first
// read (the checkpoint anchor) and requires recovery to surface it.
func TestRecoveryObservesFailedRead(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	db, tb := setupTable(t, cfg, 4)
	updateRec(t, db, tb, 0, bytes.Repeat([]byte{0xAA}, 64))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	ffs := iofault.NewFaultFS(cfg.Dir)
	ffs.FailNthRead(1)
	fcfg := cfg
	fcfg.FS = ffs
	if db, _, err := Open(fcfg, Options{}); !errors.Is(err, iofault.ErrInjected) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("recovery did not observe the injected read failure: err=%v", err)
	}
	if ffs.Reads() == 0 {
		t.Fatal("recovery performed no reads through the injected FS")
	}
}

// TestRecoveryObservesCorruptImageRead corrupts the anchored checkpoint
// image on the read path (lying storage: the bytes on disk are fine, the
// read returns them flipped). The per-page image codewords must catch it
// and recovery must fall back to the older ping-pong image.
func TestRecoveryObservesCorruptImageRead(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	cfg.DisableLogCompaction = true // the fallback image needs the older log prefix
	db, tb := setupTable(t, cfg, 4)
	// A second checkpoint fills the other ping-pong image, so the anchor's
	// predecessor is a certified fallback.
	updateRec(t, db, tb, 0, bytes.Repeat([]byte{0xBB}, 64))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := ckpt.Load(iofault.OS, cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}

	ffs := iofault.NewFaultFS(cfg.Dir)
	ffs.CorruptReadAt(ckpt.ImageFileName(loaded.Anchor.Current), 17)
	fcfg := cfg
	fcfg.FS = ffs
	db2, rep, err := Open(fcfg, Options{})
	if err != nil {
		t.Fatalf("recovery could not fall back from the corrupt image read: %v", err)
	}
	defer db2.Close()
	if !rep.UsedFallbackImage {
		t.Fatal("recovery trusted a corrupt image read: UsedFallbackImage=false (reads not routed through cfg.FS?)")
	}
	audit(t, db2)
}

// audit runs a full scheme audit and fails the test on any corruption.
func audit(t *testing.T, db *core.DB) {
	t.Helper()
	if bad := db.Scheme().Audit(); len(bad) != 0 {
		t.Fatalf("post-recovery audit found corruption: %v", bad)
	}
}
