package main

import (
	"strings"

	"repro/internal/obs"
	"repro/internal/protect"
)

// Per-layer metrics of one workload, from three sources that are all
// outside the engine: the traced pass's driver spans, the layers pass's
// isolated call costs, and Metrics() count deltas taken at window edges.
//
// The share model is deliberately simple. A layer's share of a client's
// time per unit of work is calls_per_unit x ns_per_call / wall_ns_per_unit:
//
//	region   folds x apply + (prechecked + captured regions) x verify
//	protect  updates x bracket_self + reads x read_self   (self = over Baseline, region work removed)
//	lockmgr  acquires x (Lock + ReleaseAll) + the window's lock waits
//	wal      records x append + the window's fsync time
//	core     Txn.Commit span, minus the fsync and the append it contains
//	heap     heap call spans, minus the region, protect, lockmgr and wal work inside them
//	wire     client round trips minus the server's own service time
//
// wall_ns_per_unit is that of the traced windows, where the spans were
// taken, so the shares are those of a traced client (trace.overhead_pct
// says how far that is from an untraced one). Whatever is left — the
// driver and its tracer, Begin, on kv_wire everything behind the server
// that the counters do not see — is model.unattributed_share. heap.share
// still holds the core operation bracket (BeginOp, the update bracket,
// CommitOp) the heap calls run under; telling those apart needs spans
// inside the engine, which is a later change.

// layerOf maps a metric name to its layer column.
func layerOf(metric string) string {
	prefix, _, ok := strings.Cut(metric, ".")
	if !ok || prefix == "trace" || prefix == "model" {
		return "harness"
	}
	return prefix
}

// kvOnly reports whether a per-layer metric exists only on kv_wire.
func kvOnly(metric string) bool {
	l := layerOf(metric)
	return l == "wire" || l == "shard" || l == "hashidx"
}

func histMeanMS(s obs.Snapshot, name string) float64 { return s.Histograms[name].Mean() / 1e6 }

func perLayer(r *passResult, lc *layerCosts) map[string]float64 {
	sp := r.sp
	m := map[string]float64{}
	for name := range units {
		if kvOnly(name) {
			m[name] = 0 // overwritten below on kv_wire
		}
	}

	// Work done: every window counts for the count deltas; span time and
	// wall time per unit come from the traced windows.
	var units, txns, attempted, failed, cross int64
	var wallT, unitsT float64
	var opsU, opsT, p99U []float64
	for i, w := range r.windows {
		units += int64(w.committedOps)
		attempted += int64(w.attemptedTxns)
		failed += int64(w.failedTxns)
		cross += int64(w.crossTxns)
		rate := float64(w.committedOps) / w.wall.Seconds()
		if r.tracedWin[i] {
			unitsT += float64(w.committedOps)
			wallT += float64(w.wall) * float64(r.clients)
			opsT = append(opsT, rate)
		} else {
			opsU = append(opsU, rate)
			p99U = append(p99U, float64(percentile(w.lat, 0.99))/1e6)
		}
	}
	txns = attempted - failed
	d := r.winDelta
	per := func(name string) float64 { return perUnit(d.Counters[name], units) }
	histSumPer := func(name string) float64 { return perUnit(d.Histograms[name].Sum, units) }
	wallPerUnit := wallT / unitsT
	txnsPerUnit := float64(txns) / float64(units)

	rs := protect.Config{Kind: sp.kind}.Defaulted().RegionSize
	if sp.kind == protect.KindBaseline {
		rs = regionSizes[0]
	}

	// region
	folds := per(obs.NameRegionFolds)
	verified := per(obs.NamePrecheckRegions) + per(obs.NameCWCaptures)*readRegions(sp.kind, rs)
	regionNS := folds*lc.applyNS[rs] + verified*lc.verifyNS[rs]
	m["region.apply_ns"] = lc.applyNS[rs]
	m["region.apply_ecc_off_ns"] = lc.applyECCOffNS[rs]
	m["region.verify_ns"] = lc.verifyNS[rs]
	m["region.audit_mb_per_s"] = lc.auditMBps[rs]
	m["region.recompute_mb_per_s"] = lc.recomputeMBps[rs]
	m["region.folds_per_op"] = folds
	m["region.fold_bytes_per_op"] = per(obs.NameRegionFoldBytes)

	// protect
	protectNS := per(obs.NameUpdates)*lc.updateSelfNS[sp.kind] + per(obs.NameReads)*lc.readSelfNS[sp.kind]
	m["protect.update_ns"] = lc.updateNS[sp.kind]
	m["protect.read_ns"] = lc.readNS[sp.kind]
	m["protect.precheck_regions_per_op"] = per(obs.NamePrecheckRegions)
	m["protect.cw_captures_per_op"] = per(obs.NameCWCaptures)
	m["protect.latch_wait_ns_per_op"] = histSumPer(obs.NameProtLatchWaitNS)

	// wal
	records := per(obs.NameWALAppends)
	fsyncNS := histSumPer(obs.NameWALFsyncNS)
	walNS := records*lc.appendNS + fsyncNS
	fsync := d.Histograms[obs.NameWALFsyncNS]
	m["wal.append_ns"] = lc.appendNS
	m["wal.fsync_ms_p50"] = float64(fsync.Quantile(0.50)) / 1e6
	m["wal.fsync_ms_p99"] = float64(fsync.Quantile(0.99)) / 1e6
	m["wal.flushes_per_txn"] = perUnit(d.Counters[obs.NameWALFlushes], txns)
	m["wal.group_commit_records"] = d.Histograms[obs.NameWALGroupCommit].Mean()
	m["wal.bytes_per_op"] = per(obs.NameWALAppendBytes)
	m["wal.latch_wait_ns_per_op"] = histSumPer(obs.NameWALLatchWaitNS)

	// core and heap, from the driver spans of the traced windows.
	spanPer := func(kinds ...spanKind) float64 {
		var total int64
		for _, k := range kinds {
			total += r.spans.total[k]
		}
		if unitsT == 0 {
			return 0
		}
		return float64(total) / unitsT
	}
	// lockmgr
	lockNS := per(obs.NameLockAcquires)*lc.lockNS + histSumPer(obs.NameLockWaitNS)
	m["lockmgr.lock_ns"] = lc.lockNS
	m["lockmgr.acquires_per_op"] = per(obs.NameLockAcquires)
	m["lockmgr.wait_ns_per_op"] = histSumPer(obs.NameLockWaitNS)
	m["lockmgr.timeouts"] = float64(d.Counters[obs.NameLockTimeouts])

	commitNS := max(0, spanPer(spCoreCommit)-fsyncNS-txnsPerUnit*lc.appendNS)
	heapNS := 0.0
	if !sp.kv {
		// Begin and Commit each append one record outside any heap call.
		heapNS = max(0, spanPer(spHeapRead, spHeapUpdate, spHeapInsert, spHeapDelete)-
			regionNS-protectNS-lockNS-max(0, records-2*txnsPerUnit)*lc.appendNS)
	}
	m["heap.read_ns"] = r.spans.meanSelf(spHeapRead)
	m["heap.update_ns"] = r.spans.meanSelf(spHeapUpdate)
	m["heap.insert_ns"] = r.spans.meanSelf(spHeapInsert)
	m["heap.delete_ns"] = r.spans.meanSelf(spHeapDelete)
	m["core.begin_ns"] = r.spans.meanSelf(spCoreBegin)
	m["core.commit_ns"] = r.spans.meanSelf(spCoreCommit)

	// hashidx, shard, wire: kv_wire only.
	wireNS := 0.0
	if sp.kv {
		rttNS := r.pingRTTus * 1e3
		server := d.Histograms[obs.NameServerRequestNS]
		wireNS = max(0, spanPer(spWireBegin, spWireGet, spWirePut, spWireCommit, spWireCommitCross, spWireAbort)-
			perUnit(server.Sum, units))
		m["hashidx.lookup_ns"] = lc.lookupNS
		m["hashidx.insert_ns"] = lc.insertNS
		m["shard.fastpath_commit_ns"] = max(0, r.spans.meanSelf(spWireCommit)-rttNS)
		m["shard.cross_commit_ns"] = max(0, r.spans.meanSelf(spWireCommitCross)-rttNS)
		m["shard.cross_share"] = perUnit(uint64(cross), attempted)
		m["shard.cross_aborts"] = float64(d.Counters[obs.NameShardCrossAborts])
		m["wire.rtt_us"] = r.pingRTTus
		m["wire.requests_per_txn"] = perUnit(d.Counters[obs.NameServerRequests], txns)
		m["wire.server_ns_per_req"] = server.Mean()
	}

	// Shares of a client's time per unit; the remainder is unattributed.
	shares := map[string]float64{
		"region.share":      regionNS,
		"protect.share":     protectNS,
		"heap.share":        heapNS,
		"lockmgr.share":     lockNS,
		"core.commit_share": commitNS,
		"wal.share":         walNS,
		"wire.share":        wireNS,
	}
	rest := 1.0
	for name, ns := range shares {
		m[name] = ns / wallPerUnit
		rest -= m[name]
	}
	m["model.unattributed_share"] = rest
	m["trace.overhead_pct"] = 100 * (median(opsU)/median(opsT) - 1)
	m["failed_share"] = perUnit(uint64(failed), attempted)
	m["txn_p99_ms"] = median(p99U)

	// ckpt: the between-window checkpoints' phase histograms and counters.
	c := r.ckptDelta
	n := int64(len(r.ckptS)) // counters are per checkpoint round (all shards together)
	m["ckpt.flush_ms"] = histMeanMS(c, obs.NameCkptFlushNS)
	m["ckpt.snapshot_ms"] = histMeanMS(c, obs.NameCkptSnapNS)
	m["ckpt.write_ms"] = histMeanMS(c, obs.NameCkptWriteNS)
	m["ckpt.audit_ms"] = histMeanMS(c, obs.NameCkptAuditNS)
	m["ckpt.certify_ms"] = histMeanMS(c, obs.NameCkptCertifyNS)
	m["ckpt.compact_ms"] = histMeanMS(c, obs.NameCkptCompactNS)
	m["ckpt.bytes_written"] = perUnit(c.Counters[obs.NameCkptBytesWritten], n)
	m["ckpt.pages_written"] = perUnit(c.Counters[obs.NameCkptPagesWritten], n)
	m["ckpt.dirty_skipped"] = perUnit(c.Counters[obs.NameCkptDirtyClean], n)

	// recovery: means over the reopen rounds.
	var scanned, applied, parallel, secs float64
	for i, ri := range r.recov {
		scanned += float64(ri.recordsScanned)
		applied += float64(ri.redoApplied)
		parallel += ri.parallelNS
		secs += r.recoveryS[i]
	}
	rounds := float64(max(1, len(r.recov)))
	m["recovery.records_scanned"] = scanned / rounds
	m["recovery.redo_applied"] = applied / rounds
	m["recovery.records_per_s"] = scanned / max(secs, 1e-9)
	m["recovery.parallel_ms"] = parallel / rounds / 1e6
	return m
}

// readRegions is the number of regions whose codeword a scheme computes
// when a 100-byte record is read: none unless it prechecks or captures,
// else the (99 + rs) / rs regions a record covers on average.
func readRegions(kind protect.Kind, rs int) float64 {
	if kind != protect.KindPrecheck && kind != protect.KindCWReadLog {
		return 0
	}
	return float64(recSize-1+rs) / float64(rs)
}
