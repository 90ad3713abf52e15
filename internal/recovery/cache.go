package recovery

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/wal"
)

// CacheRecover implements the cache-recovery model of §4.2: direct
// physical corruption is removed from the in-memory image in place, under
// the assumption that no transaction has read the corrupt data (which the
// Read Prechecking scheme guarantees, and which an audit that fires
// before any read implies for the Data Codeword schemes). Each corrupt
// range is restored from the certified checkpoint image — which is free
// of corruption by construction — and the physical redo records since
// CK_end are replayed over it, clipped to the range.
//
// The database must be quiescent: no active transactions (an in-flight
// transaction could hold unlogged updates inside the range). On success
// the scheme's codewords are recomputed and the repaired ranges re-audited.
func CacheRecover(db *core.DB, ranges []Range) error {
	if len(ranges) == 0 {
		return nil
	}
	if n := db.Internals().ATT.Len(); n != 0 {
		return fmt.Errorf("recovery: cache recovery requires quiescence; %d transactions active", n)
	}
	loaded, err := ckpt.Load(db.FS(), db.Config().Dir)
	if err != nil {
		return fmt.Errorf("recovery: cache recovery needs a certified checkpoint: %w", err)
	}
	var set RangeSet
	for _, r := range ranges {
		set.Add(r)
	}
	return db.ExclusiveBarrier(func() error {
		if err := db.Internals().Log.Flush(); err != nil {
			return err
		}
		arena := db.Internals().Arena
		// Restore the ranges from the checkpoint image.
		for _, r := range set.Ranges() {
			if int(r.Start)+r.Len > len(loaded.Image) {
				return fmt.Errorf("recovery: corrupt range %v beyond checkpoint image", r)
			}
			copy(arena.Slice(r.Start, r.Len), loaded.Image[r.Start:int(r.Start)+r.Len])
		}
		// Replay committed physical history over the ranges.
		cur, err := wal.OpenCursor(db.FS(), db.Config().Dir, &loaded.Anchor.CKEnd)
		if err != nil {
			return err
		}
		for cur.Next() {
			rec := cur.Record()
			if rec.Kind != wal.KindPhysRedo || !set.Overlaps(rec.Addr, len(rec.Data)) {
				continue
			}
			// Clip the record to each repaired range.
			recEnd := rec.Addr + mem.Addr(len(rec.Data))
			for _, r := range set.Ranges() {
				start := max(rec.Addr, r.Start)
				end := min(recEnd, r.end())
				if start >= end {
					continue
				}
				copy(arena.Slice(start, int(end-start)), rec.Data[start-rec.Addr:end-rec.Addr])
			}
		}
		if err := cur.Err(); err != nil {
			return err
		}
		// Re-derive protection state and verify the repair.
		if err := db.Scheme().Recompute(); err != nil {
			return err
		}
		for _, r := range set.Ranges() {
			if bad := db.Scheme().AuditRange(r.Start, r.Len); len(bad) != 0 {
				return fmt.Errorf("recovery: range %v still corrupt after cache recovery: %v", r, bad)
			}
		}
		return nil
	})
}
