package shard

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Global transaction IDs pack the coordinator shard and the coordinator's
// engine transaction ID: gid = (shard+1)<<48 | txnID. The +1 keeps every
// gid nonzero; 48 bits of transaction ID outlast any plausible run (IDs
// are recovered monotonic, so gids stay unique across restarts).
const gidShardShift = 48

func makeGID(coordShard int, txnID uint64) uint64 {
	return uint64(coordShard+1)<<gidShardShift | (txnID & (1<<gidShardShift - 1))
}

// gidShard extracts the coordinator shard, or -1 for a malformed gid.
func gidShard(gid uint64) int {
	s := int(gid>>gidShardShift) - 1
	if s < 0 {
		return -1
	}
	return s
}

// decisionsMetaKey is the engine-metadata key under which a coordinator
// shard checkpoints its unacknowledged decision table. The system log
// below the certified CK_end is compacted away, so any decision that must
// outlive a checkpoint (a participant has not yet durably committed)
// survives through this table instead.
const decisionsMetaKey = "shard.2pc.decisions"

func encodeDecisions(m map[uint64]bool) []byte {
	// Encode in sorted gid order: the blob is checkpointed engine
	// metadata, and replaying the same decision table must produce the
	// same bytes (map iteration order would leak into durable state).
	gids := make([]uint64, 0, len(m))
	for gid := range m {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	b := binary.AppendUvarint(nil, uint64(len(m)))
	for _, gid := range gids {
		b = binary.AppendUvarint(b, gid)
		if m[gid] {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func decodeDecisions(b []byte) (map[uint64]bool, error) {
	m := make(map[uint64]bool)
	if len(b) == 0 {
		return m, nil
	}
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, fmt.Errorf("shard: corrupt decision table header")
	}
	b = b[w:]
	for i := uint64(0); i < n; i++ {
		gid, w := binary.Uvarint(b)
		if w <= 0 || len(b) < w+1 {
			return nil, fmt.Errorf("shard: corrupt decision table entry %d", i)
		}
		m[gid] = b[w] == 1
		b = b[w+1:]
	}
	return m, nil
}

// recordDecision durably logs the coordinator's verdict in shard coord
// and mirrors it into the shard's checkpointed metadata until acked.
func (r *Router) recordDecision(coord int, gid uint64, commit bool) error {
	if err := r.units[coord].db.AppendDecision(gid, commit); err != nil {
		return err
	}
	r.decMu.Lock()
	defer r.decMu.Unlock()
	r.decisions[coord][gid] = commit
	r.units[coord].db.SetMeta(decisionsMetaKey, encodeDecisions(r.decisions[coord]))
	return nil
}

// forgetDecision drops an acknowledged decision (every participant has
// durably applied it) from the coordinator's table.
func (r *Router) forgetDecision(coord int, gid uint64) {
	r.decMu.Lock()
	defer r.decMu.Unlock()
	delete(r.decisions[coord], gid)
	r.units[coord].db.SetMeta(decisionsMetaKey, encodeDecisions(r.decisions[coord]))
}

// resolveInDoubt finishes every 2PC-prepared transaction recovery left
// attached: commit if the coordinator's decision says so, presumed abort
// otherwise. Runs per shard in parallel after all shards opened. Because
// all participants of every global transaction live in this router, once
// resolution completes no decision can still be needed, and every
// coordinator's table is cleared.
func (r *Router) resolveInDoubt(report *OpenReport) error {
	// Assemble each coordinator's known decisions: the log scan plus the
	// checkpointed table (the log may have been compacted since the
	// decision was written). The tables are decMu-guarded like every
	// other access — resolution runs while client traffic is still
	// fenced, but the guard is what the invariant (and the latchorder
	// field check) holds us to.
	r.decMu.Lock()
	for i, u := range r.units {
		rep := report.PerShard[i]
		if rep != nil {
			for gid, commit := range rep.Decisions {
				r.decisions[i][gid] = commit
			}
		}
		if blob, ok := u.db.Meta(decisionsMetaKey); ok {
			m, err := decodeDecisions(blob)
			if err != nil {
				r.decMu.Unlock()
				return fmt.Errorf("shard %d: %w", i, err)
			}
			for gid, commit := range m {
				r.decisions[i][gid] = commit
			}
		}
	}
	r.decMu.Unlock()

	for i, u := range r.units {
		rep := report.PerShard[i]
		if rep == nil || len(rep.InDoubt) == 0 {
			continue
		}
		for _, d := range rep.InDoubt {
			commit := false
			if cs := gidShard(d.GID); cs >= 0 && cs < len(r.units) {
				r.decMu.Lock()
				commit = r.decisions[cs][d.GID]
				r.decMu.Unlock()
			}
			entry := u.db.Internals().ATT.Lookup(d.ID)
			if entry == nil {
				return fmt.Errorf("shard %d: in-doubt txn %d missing from ATT", i, d.ID)
			}
			txn, err := u.db.AdoptPrepared(entry)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if commit {
				if err := txn.CommitPrepared(); err != nil {
					return fmt.Errorf("shard %d: resolve gid %#x commit: %w", i, d.GID, err)
				}
				r.mInDoubtC.Inc()
				report.InDoubtCommitted++
			} else {
				if err := txn.AbortPrepared(); err != nil {
					return fmt.Errorf("shard %d: resolve gid %#x abort: %w", i, d.GID, err)
				}
				r.mInDoubtA.Inc()
				report.InDoubtAborted++
			}
		}
	}

	// Everything in doubt anywhere has been resolved; no decision is
	// needed again. Clear every table so it cannot grow without bound.
	r.decMu.Lock()
	for i, u := range r.units {
		if len(r.decisions[i]) != 0 {
			r.decisions[i] = make(map[uint64]bool)
			u.db.SetMeta(decisionsMetaKey, nil)
		}
	}
	r.decMu.Unlock()
	return nil
}
