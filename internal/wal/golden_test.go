package wal

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// tpcbUpdate is the frame one TPC-B balance update appends at operation
// commit: op-begin, the 8-byte after-image, and the op-commit whose
// logical undo restores the old balance (offset 8, then the old bytes).
func tpcbUpdate(txn TxnID) []*Record {
	key := ObjectKey(1<<32 | 12345)
	return []*Record{
		{Kind: KindOpBegin, Txn: txn, Level: 1, Key: key},
		{Kind: KindPhysRedo, Txn: txn, Addr: 1234568, Data: []byte{0x10, 0x27, 0, 0, 0, 0, 0, 0}},
		{Kind: KindOpCommit, Txn: txn, Level: 1, Key: key,
			Undo: LogicalUndo{Op: 3, Key: key, Args: []byte{8, 0xe8, 0x03, 0, 0, 0, 0, 0, 0}}},
	}
}

// goldenFrames pins the exact on-disk frame of one record of every Kind
// (plus the optional fields: codeword, compensation flag, corrupt-range
// list), and of two Appends of several records: a TPC-B balance update,
// whose op-commit takes its level, key and undo key from the frame, and
// records of two transactions and none, so the transaction id comes and
// goes. Any byte the encoder moves fails here before it can reach a log
// file.
var goldenFrames = []struct {
	name string
	recs []*Record
	hex  string
}{
	{"phys-redo", []*Record{{Kind: KindPhysRedo, Txn: 7, Addr: 1234, Data: []byte("abcdefgh")}},
		"0d000000b6fce4481107d209086162636465666768"},
	{"phys-redo+cw", []*Record{{Kind: KindPhysRedo, Txn: 300, Addr: 1 << 20, Data: []byte{9}, HasCW: true, CW: 0xdeadbeefcafef00d}},
		"10000000d89da6f231ac0280804001090df0fecaefbeadde"},
	{"op-begin", []*Record{{Kind: KindOpBegin, Txn: 4, Level: 1, Key: 0x1_0000_0002}},
		"0800000056666cfc1204018280808010"},
	{"op-commit", []*Record{{Kind: KindOpCommit, Txn: 4, Level: 1, Key: 0x1_0000_0002,
		Undo: LogicalUndo{Op: 3, Key: 0x1_0000_0002, Args: []byte{8, 1, 2, 3, 4, 5, 6, 7, 8}}}},
		"1300000062763b8c93040182808080100309080102030405060708"},
	{"op-commit+compensation", []*Record{{Kind: KindOpCommit, Txn: 4, Level: 2, Key: 1, Compensation: true}},
		"07000000b924a9bd33040201000000"},
	{"txn-begin", []*Record{{Kind: KindTxnBegin, Txn: 11}}, "02000000b44ca719140b"},
	{"txn-commit", []*Record{{Kind: KindTxnCommit, Txn: 11}}, "02000000c3d4050a150b"},
	{"txn-abort", []*Record{{Kind: KindTxnAbort, Txn: 12}}, "02000000b11828ea160c"},
	{"read", []*Record{{Kind: KindRead, Txn: 3, Addr: 100, Len: 64}}, "0400000025db40dd17036440"},
	{"read+cw", []*Record{{Kind: KindRead, Txn: 3, Addr: 100, Len: 64, HasCW: true, CW: 42}},
		"0c00000016275526370364402a00000000000000"},
	{"audit-begin", []*Record{{Kind: KindAuditBegin, AuditSN: 17}}, "0200000006f0408e0811"},
	{"audit-end", []*Record{{Kind: KindAuditEnd, AuditSN: 18,
		CorruptAddrs: []mem.Addr{64, 512}, CorruptLens: []uint32{64, 64}}},
		"08000000e8f6df080912024040800440"},
	{"audit-end+clean", []*Record{{Kind: KindAuditEnd, AuditSN: 17, AuditClean: true}},
		"03000000239d5730291100"},
	{"txn-prepare", []*Record{{Kind: KindTxnPrepare, Txn: 13, GID: 0x0001_0000_0000_000d}},
		"09000000170923d61a0d8d808080808040"},
	{"txn-decision", []*Record{{Kind: KindTxnDecision, GID: 0x0001_0000_0000_000d, Decision: true}},
		"08000000ad75627f2b8d808080808040"},
	{"tpcb-balance-update", tpcbUpdate(42),
		"21000000e525223a122a01b9e08080100188ad4b081027000000000000c3030908e803000000000000"},
	{"mixed-transactions", []*Record{
		{Kind: KindTxnBegin, Txn: 7},
		{Kind: KindRead, Txn: 7, Addr: 100, Len: 64, HasCW: true, CW: 42},
		{Kind: KindTxnCommit, Txn: 9},
		{Kind: KindTxnAbort, Txn: 7},
		{Kind: KindAuditBegin, AuditSN: 5},
	}, "140000008cd8422e14072764402a0000000000000015091607180005"},
}

// normalized is r with empty slices nil, for comparing decoded records.
func normalized(r *Record) Record {
	c := *r
	if len(c.Data) == 0 {
		c.Data = nil
	}
	if len(c.Undo.Args) == 0 {
		c.Undo.Args = nil
	}
	if len(c.CorruptAddrs) == 0 {
		c.CorruptAddrs, c.CorruptLens = nil, nil
	}
	return c
}

func TestGoldenFrames(t *testing.T) {
	seen := map[Kind]bool{}
	// Encoding into a non-empty buffer must leave the prefix alone and
	// produce the same frame: the header back-fill indexes from the frame's
	// own start, not from zero.
	prefix := []byte{0xAA, 0xBB, 0xCC}
	for _, g := range goldenFrames {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", g.name, err)
		}
		if got := encodeFrame(nil, g.recs...); !bytes.Equal(got, want) {
			t.Errorf("%s: frame moved\n got %x\nwant %x", g.name, got, want)
		}
		got := encodeFrame(append([]byte(nil), prefix...), g.recs...)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: frame differs when appended after a prefix: %x", g.name, got)
		}
		if len(g.recs) == 1 {
			r := g.recs[0]
			seen[r.Kind] = true
			if got := r.Encode(nil); !bytes.Equal(got, want) {
				t.Errorf("%s: Encode differs from the frame: %x", g.name, got)
			}
			if n := r.EncodedSize(); n != len(want) {
				t.Errorf("%s: EncodedSize %d, frame is %d bytes", g.name, n, len(want))
			}
		}
		dec, n, err := decodeFrameAll(want)
		if err != nil || n != len(want) || len(dec) != len(g.recs) {
			t.Fatalf("%s: decoded %d records from %d of %d bytes: %v", g.name, len(dec), n, len(want), err)
		}
		for i := range dec {
			if a, b := normalized(dec[i]), normalized(g.recs[i]); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: record %d decodes as\n%+v\nwant\n%+v", g.name, i, a, b)
			}
		}
	}
	for k := KindPhysRedo; k <= KindTxnDecision; k++ {
		if !seen[k] {
			t.Errorf("no golden frame for kind %v", k)
		}
	}
}
