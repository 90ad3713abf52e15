package recovery

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/protect"
	"repro/internal/wal"
)

// TestMultiStreamRecoveryMergesByGSN recovers a crashed database whose
// post-checkpoint log holds consecutive transactions repeatedly
// overwriting the same slots. Replaying their physical redos in anything
// but log order would leave a stale value, so the final state — the last
// committed write to every slot — is only reachable through an ordered
// replay.
func TestMultiStreamRecoveryMergesByGSN(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	const slots = 8
	db, tb := setupTable(t, cfg, slots)
	want := make([][]byte, slots)
	for r := 0; r < 5; r++ {
		for s := uint32(0); s < slots; s++ {
			val := bytes.Repeat([]byte{byte(r + 2), byte(s + 1)}, 32)
			updateRec(t, db, tb, s, val)
			want[s] = val
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db, tb, rep := reopen(t, cfg, Options{})
	defer db.Close()
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

// dirFiles maps every file in dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		m[e.Name()] = b
	}
	return m
}

// TestUpgradeSingleToMultiStreamRecovery: restart recovery refuses a
// directory holding system-1.log — the second stream of a multi-stream log
// — naming the file and leaving every file as it was, whether the
// directory is a crashed database or holds nothing else.
func TestUpgradeSingleToMultiStreamRecovery(t *testing.T) {
	cfg := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	db, tb := setupTable(t, cfg, 4)
	updateRec(t, db, tb, 0, bytes.Repeat([]byte{0xA1}, 64))
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	bare := testConfig(t, protect.Config{Kind: protect.KindDataCW, RegionSize: 64})
	stream := (&wal.Record{Kind: wal.KindTxnBegin, Txn: 9}).Encode([]byte("DALILOG2\x00\x00\x00\x00\x00\x00\x00\x00"))
	for _, c := range []struct {
		name string
		dir  string
	}{{"crashed database", cfg.Dir}, {"bare directory", bare.Dir}} {
		if err := os.WriteFile(filepath.Join(c.dir, "system-1.log"), stream, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirFiles(t, c.dir)
		ccfg := cfg
		ccfg.Dir = c.dir
		if _, _, err := Open(ccfg, Options{}); err == nil || !strings.Contains(err.Error(), "system-1.log") {
			t.Fatalf("%s: Open = %v, want a refusal naming system-1.log", c.name, err)
		}
		if after := dirFiles(t, c.dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: a refused recovery changed the directory", c.name)
		}
	}
}
