package region

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// benchSizes are the paper's evaluated region sizes (§6): 64 B, 512 B, 8 KiB.
var benchSizes = []int{64, 512, 8192}

func benchData(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// BenchmarkFold measures the word-at-a-time fold kernel at every phase
// (phase 0 is the aligned case; 1..7 exercise the rotation path).
func BenchmarkFold(b *testing.B) {
	for _, size := range benchSizes {
		data := benchData(size, 1)
		for phase := 0; phase < 8; phase++ {
			b.Run(fmt.Sprintf("size=%d/phase=%d", size, phase), func(b *testing.B) {
				b.SetBytes(int64(size))
				var cw Codeword
				for i := 0; i < b.N; i++ {
					cw = Fold(cw, data, phase)
				}
				sinkCW = cw
			})
		}
	}
}

// BenchmarkFoldGeneric is the retained byte-at-a-time reference, for
// speedup comparison against BenchmarkFold.
func BenchmarkFoldGeneric(b *testing.B) {
	for _, size := range benchSizes {
		data := benchData(size, 1)
		for _, phase := range []int{0, 3} {
			b.Run(fmt.Sprintf("size=%d/phase=%d", size, phase), func(b *testing.B) {
				b.SetBytes(int64(size))
				var cw Codeword
				for i := 0; i < b.N; i++ {
					cw = foldGeneric(cw, data, phase)
				}
				sinkCW = cw
			})
		}
	}
}

// BenchmarkCompute measures whole-region codeword computation — the inner
// loop of RecomputeAll, audits and checkpoint certification.
func BenchmarkCompute(b *testing.B) {
	for _, size := range benchSizes {
		data := benchData(size, 2)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			var cw Codeword
			for i := 0; i < b.N; i++ {
				cw = Compute(data)
			}
			sinkCW = cw
		})
	}
}

// BenchmarkComputeGeneric is the byte-at-a-time baseline for BenchmarkCompute.
func BenchmarkComputeGeneric(b *testing.B) {
	for _, size := range benchSizes {
		data := benchData(size, 2)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			var cw Codeword
			for i := 0; i < b.N; i++ {
				cw = computeGeneric(data)
			}
			sinkCW = cw
		})
	}
}

var sinkCW Codeword

// applyUpdateGeneric replicates the pre-kernel maintenance path: build the
// old^new delta into a scratch buffer, then fold it byte-at-a-time into
// each covered region's codeword. Benchmarked as the baseline for
// BenchmarkApplyUpdate.
func applyUpdateGeneric(t *Table, scratch []byte, addr mem.Addr, oldData, newData []byte) {
	for i := range oldData {
		scratch[i] = oldData[i] ^ newData[i]
	}
	i := 0
	for i < len(scratch) {
		a := addr + mem.Addr(i)
		r := t.RegionOf(a)
		end := int(t.RegionStart(r+1) - addr)
		if end > len(scratch) {
			end = len(scratch)
		}
		t.xorInto(r, foldGeneric(0, scratch[i:end], int(a&7)), 0)
		i = end
	}
}

// BenchmarkApplyUpdate measures incremental codeword maintenance for an
// unaligned update of one region's worth of bytes (the update straddles a
// region boundary, exercising the split + phase-rotation path).
func BenchmarkApplyUpdate(b *testing.B) {
	const arenaSize = 1 << 20
	for _, size := range benchSizes {
		tab, err := NewTable(arenaSize, size)
		if err != nil {
			b.Fatal(err)
		}
		oldData := benchData(size, 3)
		newData := benchData(size, 4)
		addr := mem.Addr(size/2 + 3) // unaligned, straddles a region boundary
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := tab.ApplyUpdate(addr, oldData, newData); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplyUpdateGeneric is the pre-kernel baseline (delta scratch
// buffer + byte-at-a-time fold) for BenchmarkApplyUpdate.
func BenchmarkApplyUpdateGeneric(b *testing.B) {
	const arenaSize = 1 << 20
	for _, size := range benchSizes {
		tab, err := NewTable(arenaSize, size)
		if err != nil {
			b.Fatal(err)
		}
		oldData := benchData(size, 3)
		newData := benchData(size, 4)
		scratch := make([]byte, size)
		addr := mem.Addr(size/2 + 3)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				applyUpdateGeneric(tab, scratch, addr, oldData, newData)
			}
		})
	}
}

// BenchmarkRecomputeAll measures the full-arena recompute scan at varying
// pool widths (workers=1 is the serial path).
func BenchmarkRecomputeAll(b *testing.B) {
	const arenaSize = 1 << 24 // 16 MiB image
	a, err := mem.NewArena(arenaSize, 4096, mem.WithHeapBacking())
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	rand.New(rand.NewSource(5)).Read(a.Bytes())
	for _, size := range []int{512, 8192} {
		for _, workers := range []int{1, 2, 4} {
			tab, err := NewTable(arenaSize, size)
			if err != nil {
				b.Fatal(err)
			}
			tab.SetPool(NewPool(workers))
			b.Run(fmt.Sprintf("size=%d/workers=%d", size, workers), func(b *testing.B) {
				b.SetBytes(arenaSize)
				for i := 0; i < b.N; i++ {
					tab.RecomputeAll(a)
				}
			})
		}
	}
}

// BenchmarkAuditAll measures the full-arena audit scan at varying pool
// widths (workers=1 is the serial path).
func BenchmarkAuditAll(b *testing.B) {
	const arenaSize = 1 << 24
	a, err := mem.NewArena(arenaSize, 4096, mem.WithHeapBacking())
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	rand.New(rand.NewSource(6)).Read(a.Bytes())
	for _, size := range []int{512, 8192} {
		for _, workers := range []int{1, 2, 4} {
			tab, err := NewTable(arenaSize, size)
			if err != nil {
				b.Fatal(err)
			}
			tab.SetPool(NewPool(workers))
			tab.RecomputeAll(a)
			b.Run(fmt.Sprintf("size=%d/workers=%d", size, workers), func(b *testing.B) {
				b.SetBytes(arenaSize)
				for i := 0; i < b.N; i++ {
					if bad := tab.AuditAll(a); len(bad) != 0 {
						b.Fatalf("clean image audited dirty: %v", bad[0])
					}
				}
			})
		}
	}
}
