package wal

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/mem"
)

// goldenFrames pins the exact on-disk frame of one record of every Kind
// (plus the optional fields: codeword, compensation flag, corrupt-range
// list). The hex was produced by the allocating encoder
// that preceded encode-in-place, so any byte the in-place encoder moves
// fails here before it can reach a log file.
var goldenFrames = []struct {
	name string
	rec  Record
	hex  string
}{
	{"phys-redo", Record{Kind: KindPhysRedo, Txn: 7, Addr: 1234, Data: []byte("abcdefgh")},
		"0e000000d9dba9940107d20908616263646566676800"},
	{"phys-redo+cw", Record{Kind: KindPhysRedo, Txn: 300, Addr: 1 << 20, Data: []byte{9}, HasCW: true, CW: 0xdeadbeefcafef00d},
		"11000000cdb6ac2f01ac028080400109010df0fecaefbeadde"},
	{"op-begin", Record{Kind: KindOpBegin, Txn: 4, Level: 1, Key: 0x1_0000_0002},
		"08000000e26f1a780204018280808010"},
	{"op-commit", Record{Kind: KindOpCommit, Txn: 4, Level: 1, Key: 0x1_0000_0002,
		Undo: LogicalUndo{Op: 3, Key: 0x1_0000_0002, Args: []byte{8, 1, 2, 3, 4, 5, 6, 7, 8}}},
		"1900000095a62fef03040182808080100003828080801009080102030405060708"},
	{"op-commit+compensation", Record{Kind: KindOpCommit, Txn: 4, Level: 2, Key: 1, Compensation: true},
		"08000000e59554cc0304020101000000"},
	{"txn-begin", Record{Kind: KindTxnBegin, Txn: 11}, "0200000035bd6226040b"},
	{"txn-commit", Record{Kind: KindTxnCommit, Txn: 11}, "020000004225c035050b"},
	{"txn-abort", Record{Kind: KindTxnAbort, Txn: 12}, "0200000030e9edd5060c"},
	{"read", Record{Kind: KindRead, Txn: 3, Addr: 100, Len: 64}, "050000009be8cec80703644000"},
	{"read+cw", Record{Kind: KindRead, Txn: 3, Addr: 100, Len: 64, HasCW: true, CW: 42},
		"0d000000394315f707036440012a00000000000000"},
	{"audit-begin", Record{Kind: KindAuditBegin, AuditSN: 17}, "03000000d3d900ba080011"},
	{"audit-end", Record{Kind: KindAuditEnd, AuditSN: 18,
		CorruptAddrs: []mem.Addr{64, 512}, CorruptLens: []uint32{64, 64}},
		"0a000000930df2bb09001200024040800440"},
	{"audit-end+clean", Record{Kind: KindAuditEnd, AuditSN: 17, AuditClean: true},
		"050000008b65457e0900110100"},
	{"txn-prepare", Record{Kind: KindTxnPrepare, Txn: 13, GID: 0x0001_0000_0000_000d},
		"09000000c89a28a30a0d8d808080808040"},
	{"txn-decision", Record{Kind: KindTxnDecision, GID: 0x0001_0000_0000_000d, Decision: true},
		"0a0000008a1b35b00b008d80808080804001"},
}

func TestGoldenFrames(t *testing.T) {
	seen := map[Kind]bool{}
	// Encoding into a non-empty buffer must leave the prefix alone and
	// produce the same frame: the header back-fill indexes from the frame's
	// own start, not from zero.
	prefix := []byte{0xAA, 0xBB, 0xCC}
	for _, g := range goldenFrames {
		seen[g.rec.Kind] = true
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", g.name, err)
		}
		if got := g.rec.Encode(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: frame moved\n got %x\nwant %x", g.name, got, want)
		}
		got := g.rec.Encode(append([]byte(nil), prefix...))
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: frame differs when appended after a prefix: %x", g.name, got)
		}
		if n := g.rec.EncodedSize(); n != len(want) {
			t.Errorf("%s: EncodedSize %d, frame is %d bytes", g.name, n, len(want))
		}
	}
	for k := KindPhysRedo; k <= KindTxnDecision; k++ {
		if !seen[k] {
			t.Errorf("no golden frame for kind %v", k)
		}
	}
}
