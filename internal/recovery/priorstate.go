package recovery

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/wal"
)

// PriorState implements the paper's prior-state model of corruption
// recovery (§4.1): the database is returned to a transaction-consistent
// state strictly before the given log position — typically the moment
// corruption is first suspected — by replaying only the log prefix. All
// later transactions are discarded, whether or not they were affected;
// compensating for them is entirely the user's burden, which is the
// paper's argument for preferring the delete-transaction model.
//
// The implementation truncates the stable log at the last record boundary
// at or before `before` and runs ordinary restart recovery on the prefix:
// transactions whose commit records fall past the cut become incomplete
// and are rolled back, yielding exactly the transaction-consistent prior
// state. The current certified checkpoint must predate the cut (the
// ping-pong pair keeps no deep archive; with CK_end past the cut the
// caller needs an archive image this reproduction does not retain, and an
// error is returned).
func PriorState(cfg core.Config, before wal.LSN, opts Options) (*core.DB, *Report, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, nil, err
	}
	if loaded, err := ckpt.Load(cfg.FS, cfg.Dir); err == nil {
		if loaded.Anchor.CKEnd > before {
			return nil, nil, fmt.Errorf(
				"recovery: prior-state target %d predates the checkpoint (CK_end %d); an archive image would be required",
				before, loaded.Anchor.CKEnd)
		}
	}
	cut, err := boundaryAtOrBefore(cfg.FS, cfg.Dir, before)
	if err != nil {
		return nil, nil, err
	}
	if err := wal.TruncateAtFS(cfg.FS, cfg.Dir, cut); err != nil {
		return nil, nil, fmt.Errorf("recovery: truncate log for prior state: %w", err)
	}
	// Corruption-mode machinery is pointless on the prefix: everything at
	// or after the suspect point is gone.
	opts.DisableCorruptionMode = true
	return Open(cfg, opts)
}

// boundaryAtOrBefore finds the largest record boundary <= target, at or
// above the log's base (records below the base were compacted away).
func boundaryAtOrBefore(fsys iofault.FS, dir string, target wal.LSN) (wal.LSN, error) {
	base, err := wal.LogBaseFS(fsys, dir)
	if err != nil {
		return 0, err
	}
	if target < base {
		return 0, fmt.Errorf("recovery: prior-state target %d precedes the retained log (base %d)", target, base)
	}
	cur, err := wal.OpenCursor(fsys, dir, nil)
	if err != nil {
		return 0, err
	}
	cut := base
	for cur.Next() {
		r := cur.Record()
		end := r.LSN + wal.LSN(r.EncodedSize())
		if end > target {
			break
		}
		cut = end
	}
	return cut, cur.Err()
}
