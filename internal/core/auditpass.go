package core

import (
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/region"
	"repro/internal/wal"
)

// AuditPass is one full audit of the database, performed either at once
// (DB.Audit) or incrementally in slices (the background auditor's
// production mode, which bounds the latency impact of each sweep tick).
//
// Audit_SN semantics are preserved for incremental passes: the begin
// record is logged when the pass starts, and the pass is clean only if
// every region checked clean at the moment its slice ran. A region that
// was corrupt at pass begin stays corrupt until checked — prescribed
// updates fold old⊕new and therefore never repair a stale codeword — so
// a clean pass certifies cleanliness from its begin record onward, which
// is exactly what recovery assumes of Audit_SN (the same reasoning that
// lets the paper treat a non-instantaneous full audit as a point event).
type AuditPass struct {
	db         *DB
	sn         uint64
	beginLSN   wal.LSN
	next       mem.Addr
	mismatches []region.Mismatch
	healed     int // mismatches repaired in place by the ECC tier
	finished   bool
	started    time.Time
}

// BeginAuditPass starts an audit pass, logging its begin record. Passes
// may run concurrently (the checkpointer's certification audit can
// overlap a background incremental pass); each is independently correct,
// and Audit_SN only ever advances.
func (db *DB) BeginAuditPass() (*AuditPass, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.auditMu.Lock()
	defer db.auditMu.Unlock()
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.auditSN++
	db.mAudits.Inc()
	begin := &wal.Record{Kind: wal.KindAuditBegin, AuditSN: db.auditSN}
	if err := db.log.Append(begin); err != nil {
		return nil, fmt.Errorf("core: begin audit pass: %w", err)
	}
	return &AuditPass{db: db, sn: db.auditSN, beginLSN: begin.LSN, started: time.Now()}, nil
}

// Step audits the next maxBytes of the image (rounded to whole protection
// regions by the scheme) and reports whether the pass has covered the
// whole database. Mismatches accumulate until Finish. The slice itself is
// chunked across the database's scan worker pool by the scheme's
// AuditRange (each worker still takes the per-region protection latch the
// scheme prescribes), so a full-database Step — the checkpointer's
// certification audit — scales with Config.Workers while an incremental
// background pass keeps its small, bounded-latency slices.
func (p *AuditPass) Step(maxBytes int) (done bool, err error) {
	if p.finished {
		return true, fmt.Errorf("core: audit pass already finished")
	}
	db := p.db
	if db.closed.Load() {
		return false, ErrClosed
	}
	db.auditMu.Lock()
	defer db.auditMu.Unlock()
	if db.closed.Load() {
		return false, ErrClosed
	}
	if maxBytes <= 0 {
		maxBytes = db.arena.Size()
	}
	n := maxBytes
	if int(p.next)+n > db.arena.Size() {
		n = db.arena.Size() - int(p.next)
	}
	if n > 0 {
		for _, m := range db.scheme.AuditRange(p.next, n) {
			if p.tryHeal(m) {
				p.healed++
				continue
			}
			p.mismatches = append(p.mismatches, m)
		}
		p.next += mem.Addr(n)
	}
	return int(p.next) >= db.arena.Size(), nil
}

// tryHeal offers a mismatch to the scheme's ECC tier, under Read
// Prechecking only (db.healAudits): there no read has seen the damaged
// bytes, so repairing them loses no trace of indirect corruption. A
// repaired word (or a region a concurrent pass already fixed) drops out of
// the pass's mismatches: the damage never reaches CorruptionError,
// delete-transaction recovery, or the audit-end record's corrupt set.
// Damage past the correction radius stays a mismatch and is counted as an
// escalation.
func (p *AuditPass) tryHeal(m region.Mismatch) bool {
	db := p.db
	if !db.healAudits {
		return false
	}
	res := db.scheme.Heal(m.Region)
	switch res.Verdict {
	case region.VerdictRepaired, region.VerdictClean:
		return true
	case region.VerdictUnrepairable:
		db.mHealEscalate.Inc()
	}
	return false
}

// Finish logs the audit-end record and, if the pass was clean, advances
// Audit_SN to the pass's begin record. A dirty pass returns
// *CorruptionError with the accumulated mismatches (which are also in the
// end record for recovery to find). A pass that healed anything was not
// clean from its begin record onward — the invariant Audit_SN certifies —
// so it logs AuditClean false (with no corrupt ranges) and advances
// neither the in-memory Audit_SN nor, at the next restart, recovery's;
// the next fully clean pass will.
func (p *AuditPass) Finish() error {
	if p.finished {
		return fmt.Errorf("core: audit pass already finished")
	}
	p.finished = true
	db := p.db
	if db.closed.Load() {
		return ErrClosed
	}
	db.auditMu.Lock()
	defer db.auditMu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	end := &wal.Record{Kind: wal.KindAuditEnd, AuditSN: p.sn, AuditClean: len(p.mismatches) == 0 && p.healed == 0}
	for _, m := range p.mismatches {
		end.CorruptAddrs = append(end.CorruptAddrs, m.Start)
		end.CorruptLens = append(end.CorruptLens, uint32(m.Len))
	}
	if err := db.log.AppendAndFlush(end); err != nil {
		return err
	}
	db.hAuditNS.Since(p.started)
	if len(p.mismatches) > 0 {
		db.mAuditMismatch.Add(uint64(len(p.mismatches)))
		db.mCorruptions.Inc()
		return &CorruptionError{Mismatches: p.mismatches}
	}
	// Monotonic: a slow pass finishing after a later-begun clean pass
	// must not regress Audit_SN.
	if end.AuditClean && p.beginLSN > db.lastCleanAudit {
		db.lastCleanAudit = p.beginLSN
	}
	return nil
}

// Abort abandons the pass without logging an end record (used when the
// database is closing mid-pass).
func (p *AuditPass) Abort() {
	p.finished = true
}
