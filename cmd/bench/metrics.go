package main

// units names every metric the harness emits and its unit. BENCHMARK.json
// lists the same names with their direction and regression bound; the
// smoke test holds the two in step.
var units = map[string]string{
	// End to end.
	"ops_per_s":          "1/s",
	"txn_p50_ms":         "ms",
	"txn_p99_ms":         "ms",
	"log_bytes_per_op":   "B",
	"ckpt_s":             "s",
	"recovery_s":         "s",
	"space_overhead_pct": "%",
	"rss_mb":             "MB",
	"setup_s":            "s",
	"failed_share":       "share",

	"region.apply_ns":           "ns",
	"region.apply_ecc_off_ns":   "ns",
	"region.verify_ns":          "ns",
	"region.audit_mb_per_s":     "MB/s",
	"region.recompute_mb_per_s": "MB/s",
	"region.folds_per_op":       "count",
	"region.fold_bytes_per_op":  "B",
	"region.share":              "share",

	"protect.update_ns":               "ns",
	"protect.read_ns":                 "ns",
	"protect.precheck_regions_per_op": "count",
	"protect.cw_captures_per_op":      "count",
	"protect.latch_wait_ns_per_op":    "ns",
	"protect.share":                   "share",

	"heap.read_ns":   "ns",
	"heap.update_ns": "ns",
	"heap.insert_ns": "ns",
	"heap.delete_ns": "ns",
	"heap.share":     "share",

	"hashidx.lookup_ns": "ns",
	"hashidx.insert_ns": "ns",

	"lockmgr.lock_ns":         "ns",
	"lockmgr.acquires_per_op": "count",
	"lockmgr.wait_ns_per_op":  "ns",
	"lockmgr.timeouts":        "count",
	"lockmgr.share":           "share",

	"core.begin_ns":     "ns",
	"core.commit_ns":    "ns",
	"core.commit_share": "share",

	"wal.append_ns":            "ns",
	"wal.fsync_ms_p50":         "ms",
	"wal.fsync_ms_p99":         "ms",
	"wal.flushes_per_txn":      "count",
	"wal.group_commit_records": "count",
	"wal.bytes_per_op":         "B",
	"wal.latch_wait_ns_per_op": "ns",
	"wal.share":                "share",

	"ckpt.flush_ms":      "ms",
	"ckpt.snapshot_ms":   "ms",
	"ckpt.write_ms":      "ms",
	"ckpt.audit_ms":      "ms",
	"ckpt.certify_ms":    "ms",
	"ckpt.compact_ms":    "ms",
	"ckpt.bytes_written": "B",
	"ckpt.pages_written": "count",
	"ckpt.dirty_skipped": "count",

	"recovery.records_scanned": "count",
	"recovery.redo_applied":    "count",
	"recovery.records_per_s":   "1/s",
	"recovery.parallel_ms":     "ms",

	"shard.fastpath_commit_ns": "ns",
	"shard.cross_commit_ns":    "ns",
	"shard.cross_share":        "share",
	"shard.cross_aborts":       "count",

	"wire.rtt_us":            "us",
	"wire.requests_per_txn":  "count",
	"wire.server_ns_per_req": "ns",
	"wire.share":             "share",

	"trace.overhead_pct":       "%",
	"model.unattributed_share": "share",
}

// ungated are end-to-end metrics that carry no regression bound, so
// BENCHMARK.json lists them with the per-layer metrics: the document
// still reports them as end-to-end rows of the untraced pass, while the
// command prints them with --trace 1. failed_share is 0 on a healthy tree
// and a metric with a relative bound may never be 0 (the result line's
// failed/attempted counts carry it); txn_p99_ms follows the sandbox
// disk's fsync tail, whose run-to-run spread exceeds any bound the
// benchmark is allowed to set.
var ungated = map[string]bool{"failed_share": true, "txn_p99_ms": true}
