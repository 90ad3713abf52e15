package recovery

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/protect"
	"repro/internal/wal"
)

// crashedMultiStream builds a four-stream database whose post-checkpoint
// log holds interleaved transactions repeatedly overwriting the same
// slots, then crashes it. Because consecutive transactions land on
// different streams, replaying their physical redos in anything but GSN
// order would leave a stale value — the returned want image is only
// reachable through a correct merge.
func crashedMultiStream(t *testing.T, rounds int) (core.Config, [][]byte) {
	t.Helper()
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	cfg.LogStreams = 4
	const slots = 8
	db, tb := setupTable(t, cfg, slots)
	if got := db.Internals().Log.NumStreams(); got != 4 {
		t.Fatalf("log opened with %d streams, want 4", got)
	}
	want := make([][]byte, slots)
	for r := 0; r < rounds; r++ {
		for s := uint32(0); s < slots; s++ {
			val := bytes.Repeat([]byte{byte(r + 2), byte(s + 1)}, 32)
			updateRec(t, db, tb, s, val)
			want[s] = val
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	return cfg, want
}

// TestMultiStreamRecoveryMergesByGSN recovers a crashed four-stream
// database and checks the final state reflects the last committed write
// to every slot — the cross-stream ordering contract.
func TestMultiStreamRecoveryMergesByGSN(t *testing.T) {
	cfg, want := crashedMultiStream(t, 5)
	db, tb, rep := reopen(t, cfg, Options{})
	defer db.Close()
	if rep.LogStreams != 4 {
		t.Fatalf("report streams = %d, want 4", rep.LogStreams)
	}
	if rep.RedoApplied == 0 {
		t.Fatal("no redo applied; workload not post-checkpoint?")
	}
	for s := range want {
		if got := readRec(t, db, tb, uint32(s)); !bytes.Equal(got, want[s]) {
			t.Fatalf("slot %d recovered %x, want %x", s, got[:4], want[s][:4])
		}
	}
	if err := db.Audit(); err != nil {
		t.Fatalf("post-recovery audit: %v", err)
	}
}

// TestUpgradeSingleToMultiStreamRecovery crashes a single-stream
// database, recovers it with LogStreams=4 (the open widens the set, old
// records replay as the unstamped prefix), commits more work, crashes
// again, and recovers the mixed-format log.
func TestUpgradeSingleToMultiStreamRecovery(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	db, tb := setupTable(t, cfg, 4)
	v1 := bytes.Repeat([]byte{0xA1}, 64)
	updateRec(t, db, tb, 0, v1)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	ucfg := cfg
	ucfg.LogStreams = 4
	db2, tb2, rep := reopen(t, ucfg, Options{})
	if rep.LogStreams != 4 {
		t.Fatalf("upgraded recovery streams = %d, want 4", rep.LogStreams)
	}
	if got := readRec(t, db2, tb2, 0); !bytes.Equal(got, v1) {
		t.Fatalf("pre-upgrade commit lost: %x", got[:4])
	}
	v2 := bytes.Repeat([]byte{0xB2}, 64)
	updateRec(t, db2, tb2, 0, v2)
	v3 := bytes.Repeat([]byte{0xC3}, 64)
	updateRec(t, db2, tb2, 1, v3)
	if err := db2.Crash(); err != nil {
		t.Fatal(err)
	}

	db3, tb3, rep3 := reopen(t, ucfg, Options{})
	defer db3.Close()
	if rep3.LogStreams != 4 {
		t.Fatalf("second recovery streams = %d, want 4", rep3.LogStreams)
	}
	if got := readRec(t, db3, tb3, 0); !bytes.Equal(got, v2) {
		t.Fatalf("post-upgrade commit lost on slot 0: %x", got[:4])
	}
	if got := readRec(t, db3, tb3, 1); !bytes.Equal(got, v3) {
		t.Fatalf("post-upgrade commit lost on slot 1: %x", got[:4])
	}
	if err := db3.Audit(); err != nil {
		t.Fatalf("post-upgrade audit: %v", err)
	}
	// The historical stream-0 file is still where it always was.
	if _, err := os.Stat(filepath.Join(cfg.Dir, wal.LogFileName)); err != nil {
		t.Fatal(err)
	}
}
