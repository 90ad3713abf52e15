package wal

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// tornTailSeeds builds the torn-write corpus: valid frames truncated at
// every length (a crash mid-write), frames with a flipped byte (a lying
// or bit-rotted write), and a two-frame stream cut inside the second
// frame (the shape recovery actually meets: intact prefix + torn tail).
func tornTailSeeds() [][]byte {
	var seeds [][]byte
	samples := sampleRecords()
	for _, r := range samples {
		frame := r.Encode(nil)
		for _, cut := range []int{1, 4, len(frame) / 2, len(frame) - 1} {
			if cut > 0 && cut < len(frame) {
				seeds = append(seeds, append([]byte(nil), frame[:cut]...))
			}
		}
		for _, flip := range []int{0, 4, len(frame) / 2, len(frame) - 1} {
			mut := append([]byte(nil), frame...)
			mut[flip] ^= 0xFF
			seeds = append(seeds, mut)
		}
	}
	if len(samples) >= 2 {
		a, b := samples[0].Encode(nil), samples[1].Encode(nil)
		stream := append(append([]byte(nil), a...), b...)
		seeds = append(seeds, stream[:len(a)+len(b)/2])
	}
	return seeds
}

// FuzzDecodeFrame throws arbitrary bytes at the log-record decoder: it
// must never panic, and any frame it accepts must re-encode to the same
// bytes it consumed (decode∘encode identity on the accepted prefix).
func FuzzDecodeFrame(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(r.Encode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	for _, s := range tornTailSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := decodeFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := r.Encode(nil)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data[:n], re)
		}
	})
}

// TestDecodeFrameRejectsTornPrefixes pins the property the torn-tail
// recovery discipline rests on: no strict prefix of a valid frame
// decodes (a torn final write can never be mistaken for a record), and
// no single-byte corruption survives the frame CRC.
func TestDecodeFrameRejectsTornPrefixes(t *testing.T) {
	for _, r := range sampleRecords() {
		frame := r.Encode(nil)
		for cut := 0; cut < len(frame); cut++ {
			if _, _, err := decodeFrame(frame[:cut]); err == nil {
				t.Fatalf("torn prefix of %d/%d bytes decoded", cut, len(frame))
			}
		}
		for flip := 0; flip < len(frame); flip++ {
			mut := append([]byte(nil), frame...)
			mut[flip] ^= 0xFF
			if _, _, err := decodeFrame(mut); err == nil {
				t.Fatalf("frame with byte %d flipped decoded", flip)
			}
		}
	}
}

// FuzzDecodeEntries fuzzes the checkpointed-ATT decoder: no panics, and
// accepted entries re-encode to a decodable equivalent.
func FuzzDecodeEntries(f *testing.F) {
	f.Add(EncodeEntries(nil))
	f.Add(EncodeEntries([]*TxnEntry{{ID: 1, State: TxnActive, Undo: []UndoRec{
		{Kind: UndoPhys, Addr: mem.Addr(7), Before: []byte{1, 2}, CodewordPending: true},
		{Kind: UndoOpBegin, Level: 1, Key: 9},
		{Kind: UndoLogical, Level: 1, Key: 9, CommitLSN: 44,
			Logical: LogicalUndo{Op: 3, Key: 9, Args: []byte{5}}},
	}}}))
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeEntries(data)
		if err != nil {
			return
		}
		round, err := DecodeEntries(EncodeEntries(entries))
		if err != nil {
			t.Fatalf("re-encode not decodable: %v", err)
		}
		if len(round) != len(entries) {
			t.Fatalf("entry count changed: %d -> %d", len(entries), len(round))
		}
	})
}
