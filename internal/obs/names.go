package obs

// Canonical metric names used by the storage manager. Subsystems create
// these through Registry get-or-create calls; tools (cmd/dbstat, the
// benchmark harnesses) read them from snapshots by the same names.
//
// Naming: "<subsystem>.<metric>"; histograms of durations end in "_ns"
// and hold nanoseconds.
const (
	// internal/core — transaction and operation rates.
	NameTxnsBegun     = "core.txns_begun"
	NameTxnsCommitted = "core.txns_committed"
	NameTxnsAborted   = "core.txns_aborted"
	NameOps           = "core.ops"
	NameUpdates       = "core.updates"
	NameReads         = "core.reads"
	NameReadRecords   = "core.read_records"

	// internal/core — audit passes over the codeword table.
	NameAuditPasses     = "core.audit_passes"
	NameAuditPassNS     = "core.audit_pass_ns" // histogram
	NameAuditMismatches = "core.audit_mismatches"
	NameCorruptions     = "core.corruptions_detected"

	// internal/core — ECC heal ladder (PR 10): in-place repairs by the
	// error-correction tier and escalations past its correction radius.
	NameHeals           = "core.heals"            // regions repaired in place (word reconstructed)
	NameHealEscalations = "core.heal_escalations" // unrepairable damage escalated to recovery
	NameHealNS          = "core.heal_ns"          // histogram: per-region repair latency

	// internal/core — ping-pong checkpoint phases.
	NameCheckpoints   = "core.checkpoints"
	NameCkptFlushNS   = "core.ckpt_flush_ns"    // histogram: log flush under barrier
	NameCkptSnapNS    = "core.ckpt_snapshot_ns" // histogram: ATT/meta/dirty-page capture
	NameCkptWriteNS   = "core.ckpt_write_ns"    // histogram: image write
	NameCkptAuditNS   = "core.ckpt_audit_ns"    // histogram: certification audit
	NameCkptCertifyNS = "core.ckpt_certify_ns"  // histogram: anchor certify
	NameCkptCompactNS = "core.ckpt_compact_ns"  // histogram: log compaction
	NameCkptTotalNS   = "core.ckpt_total_ns"    // histogram: end-to-end

	// internal/wal — system log.
	NameWALAppends       = "wal.appends"
	NameWALAppendBytes   = "wal.append_bytes"
	NameWALFlushes       = "wal.flushes"
	NameWALFlushErrors   = "wal.flush_errors"
	NameWALPoisoned      = "wal.poisoned"             // log fail-stopped after a write/fsync failure
	NameWALFsyncNS       = "wal.fsync_ns"             // histogram: write+sync duration
	NameWALFlushBytes    = "wal.flush_bytes"          // histogram: bytes per flush
	NameWALGroupCommit   = "wal.group_commit_records" // histogram: records per flush
	NameWALCompactions   = "wal.compactions"
	NameWALLatchWaitNS   = "wal.latch_wait_ns" // histogram: contended log-latch waits
	NameWALLatchContends = "wal.latch_contended"

	// internal/recovery — redo.
	// NameRecoveryParallelNS is observed by nothing and reads 0: the
	// partitioned parallel apply it timed was deleted for want of a measured
	// win (DESIGN.md, "Parallel mechanisms"). The name stays declared because
	// cmd/bench, which only a benchmark PR may edit, reads it for its
	// recovery.parallel_ms row.
	NameRecoveryParallelNS = "recovery.parallel_ns"

	// internal/recovery — the phases of one restart, contiguous: load, scan,
	// redo, build, undo and checkpoint sum to the wall time
	// of recovery.Open. log_open and recompute are the parts of build that
	// core reports (recovery.Report.Phases carries the same durations).
	NameRecoveryLoadNS       = "recovery.load_ns"       // histogram: checkpoint anchor, image and ATT read
	NameRecoveryScanNS       = "recovery.scan_ns"       // histogram: log read plus the pre-scan pass
	NameRecoveryRedoNS       = "recovery.redo_ns"       // histogram: the redo pass
	NameRecoveryBuildNS      = "recovery.build_ns"      // histogram: core.NewRecovered
	NameRecoveryLogOpenNS    = "recovery.log_open_ns"   // histogram: of build, the log open
	NameRecoveryRecomputeNS  = "recovery.recompute_ns"  // histogram: of build, protection state derived from the image
	NameRecoveryUndoNS       = "recovery.undo_ns"       // histogram: the undo phase
	NameRecoveryCheckpointNS = "recovery.checkpoint_ns" // histogram: the completion checkpoint

	// internal/region — codeword table maintenance.
	NameRegionFolds         = "region.folds"
	NameRegionFoldBytes     = "region.fold_bytes"
	NameRegionAudited       = "region.regions_audited"
	NameRegionCWWaitNS      = "region.cwlatch_wait_ns" // histogram
	NameRegionCWContends    = "region.cwlatch_contended"
	NameRegionDeferredQueue = "region.deferred_pending" // gauge: queued deltas (DeferredCW)

	// internal/region — the shared scan worker pool and the throughput of
	// its parallel recompute/audit scans.
	NameRegionPoolWorkers  = "region.pool_workers"            // gauge: configured pool size
	NameRegionPoolQueue    = "region.pool_queue_depth"        // gauge: chunks queued, not yet claimed
	NameRegionPoolChunks   = "region.pool_chunks"             // chunks executed by pool workers
	NameRegionPoolScans    = "region.pool_scans"              // parallel scans dispatched
	NameRegionRecomputeBPS = "region.recompute_bytes_per_sec" // histogram: per-worker-chunk throughput
	NameRegionAuditBPS     = "region.audit_bytes_per_sec"     // histogram: per-worker-chunk throughput

	// internal/protect — scheme-specific costs.
	NamePrecheckRegions    = "protect.precheck_regions" // regions verified before reads
	NamePrecheckFailures   = "protect.precheck_failures"
	NamePrecheckHeals      = "protect.precheck_heals" // precheck failures repaired in place by ECC
	NameCWCaptures         = "protect.cw_captures"    // codewords captured into read log records
	NameDeferredDrains     = "protect.deferred_drains"
	NameHWExposes          = "protect.hw_exposes"    // mprotect: pages made writable
	NameHWReprotects       = "protect.hw_reprotects" // mprotect: pages re-protected
	NameProtLatchWaitNS    = "protect.latch_wait_ns" // histogram: contended protection-latch waits
	NameProtLatchContends  = "protect.latch_contended"
	NameProtectCalls       = "protect.protect_calls" // snapshot of Protector.Calls()
	NameProtectRegionBytes = "protect.region_bytes"  // gauge: configured region size

	// internal/lockmgr — transaction locks.
	NameLockAcquires = "lockmgr.acquires"
	NameLockWaits    = "lockmgr.waits"
	NameLockTimeouts = "lockmgr.timeouts"
	NameLockCancels  = "lockmgr.cancels" // waits abandoned by context cancellation/deadline
	NameLockWaitNS   = "lockmgr.wait_ns" // histogram: time spent waiting (incl. timeouts)

	// internal/ckpt — checkpoint image writer.
	NameCkptPagesWritten = "ckpt.pages_written"
	NameCkptBytesWritten = "ckpt.bytes_written"
	NameCkptDirtyClean   = "ckpt.dirty_skipped"  // pages skipped as clean by the dirty-page map
	NameCkptDirSyncs     = "ckpt.dir_syncs"      // directory fsyncs after anchor installs
	NameCkptFallbacks    = "ckpt.fallback_loads" // recoveries that fell back to the other ping-pong image

	// internal/shard — router-level transaction routing and 2PC. These
	// live in the router's own registry; per-shard engine metrics stay in
	// each shard's core.DB registry.
	NameShardTxns            = "shard.txns"             // router transactions begun
	NameShardFastpathCommits = "shard.fastpath_commits" // single-shard commits (no 2PC)
	NameShardCrossCommits    = "shard.cross_commits"    // cross-shard 2PC commits
	NameShardCrossAborts     = "shard.cross_aborts"     // cross-shard transactions aborted (incl. failed prepares)
	NameShardInDoubtCommits  = "shard.indoubt_commits"  // in-doubt txns resolved commit at open
	NameShardInDoubtAborts   = "shard.indoubt_aborts"   // in-doubt txns resolved abort at open (presumed abort)
	NameShard2PCCommitNS     = "shard.twopc_commit_ns"  // histogram: prepare→decision→commit latency
	NameShardCrossTouched    = "shard.cross_shards"     // histogram: participants per cross-shard commit

	// internal/wire — the TCP front end.
	NameServerConns         = "server.conns"          // gauge: connections currently admitted
	NameServerConnsTotal    = "server.conns_total"    // connections accepted over the server's life
	NameServerConnsRejected = "server.conns_rejected" // connections refused by admission control
	NameServerRequests      = "server.requests"       // frames served
	NameServerErrors        = "server.errors"         // requests answered with an error frame
	NameServerRequestNS     = "server.request_ns"     // histogram: per-request service time

	// internal/iofault — injectable storage-fault layer.
	NameIOFaultOps      = "iofault.ops"      // I/O points consumed (mutating FS operations)
	NameIOFaultInjected = "iofault.injected" // non-crash faults injected (failed fsync, short write, ENOSPC, torn write)
	NameIOFaultCrashes  = "iofault.crashes"  // simulated crash failpoints fired

	// internal/fault — memory fault injector (wild writes).
	NameFaultWildWrites = "fault.wild_writes"
	NameFaultParityHits = "fault.parity_hits" // S1 (ECC metadata) corruptions injected

	// internal/benchtab — Table 1/2 measurement sweeps.
	NameBenchPairNS = "bench.pair_ns" // histogram: one protect/unprotect pair, nanoseconds
)
