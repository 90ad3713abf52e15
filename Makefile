# Codeword-protection reproduction — common targets.

GO ?= go

.PHONY: all build vet test race cover bench bench-compare bench-smoke bench-shard server-smoke torture torture-smoke heal heal-smoke table1 table2 faultstudy faultstudy-disk examples clean

all: build vet test

build:
	$(GO) build ./...

# Static checks plus a race-detector pass over the subsystems with the
# most cross-goroutine state (metrics registry, WAL group commit and its
# recycled tail buffers, the transaction slabs a checkpoint snapshots, the
# lock manager's pooled states, the latches and their striped range
# guards, the concurrent TPC-B driver, the log
# buffers restart recovery aliases between its passes, the schemes' shared
# audit loop), and a one-iteration smoke of the codeword
# kernel benchmarks. dbvet is the repo's own nine-pass suite (latch
# order with latch-cycle detection and field-level locksets, guarded
# writes, codeword pairing, metric names, I/O path, error flow, 2PC
# protocol, context propagation, replay determinism); the passes share
# one load and run in parallel, so the nine-pass suite costs roughly the
# same wall time as the original four. The -stats invocation reuses that
# load to gate suppression debt: the count of //dbvet:allow sites per
# pass must not grow past the checked-in dbvet.debt.json baseline.
# See DESIGN.md "Machine-checked invariants".
vet: bench-smoke torture-smoke server-smoke heal-smoke
	$(GO) vet ./...
	$(GO) run ./cmd/dbvet ./...
	$(GO) run ./cmd/dbvet -stats -debt-baseline dbvet.debt.json ./...
	$(GO) test -race ./internal/core ./internal/wal ./internal/lockmgr ./internal/latch ./internal/heap ./internal/obs ./internal/tpcb ./internal/recovery ./internal/protect

# End-to-end smoke of the TCP front end: a K=4 sharded server takes a
# concurrent mixed load over the wire protocol, drains gracefully, and
# every shard must pass a full audit — plus the codec fuzz corpus and
# the client/server suite, all under the race detector.
server-smoke:
	$(GO) test -race -short ./internal/wire ./internal/shard

# Bounded crash-point recovery torture: the smoke workload is crashed at
# every I/O point, recovery is verified from each frozen durable state,
# and the fail-stop log-poisoning tests run under the race detector.
# Includes the same sweep under codeword read logging
# (TestCrashPointExhaustiveMultiStream), where every recovery runs the
# delete-transaction pass.
torture-smoke:
	$(GO) test -race -short ./internal/iofault/...

# Error-correction smoke: a small targeted-damage campaign (every
# ECC-bearing scheme x damage shape) whose gates require no wrong heal,
# no undetected damage, every escalation to recover clean, Read
# Prechecking to heal single-word damage in place, and the other schemes
# to escalate. The JSON outcome table is the artifact CI uploads.
heal-smoke:
	$(GO) run ./cmd/faultstudy -heal -campaigns 8 -txns 3 -json heal.smoke.json

# The full healing campaign (>= 99% of single-word wild writes repaired
# in place under Read Prechecking, nothing healed wrong).
heal:
	$(GO) run ./cmd/faultstudy -heal -campaigns 100

# The full exhaustive sweep (DefaultConfig workload, hundreds of crash
# points) plus the disk fault-study campaign.
torture:
	$(GO) test -race ./internal/iofault/...
	$(GO) run ./cmd/faultstudy -disk

# Compile-and-run smoke of the kernel/scan microbenchmarks (one iteration
# each) plus vet and a race pass over the region package, whose pool and
# latch paths are the most concurrency-sensitive code in the tree.
bench-smoke:
	$(GO) vet ./internal/region
	$(GO) test -race ./internal/region
	$(GO) test -run=xxx -bench=. -benchtime=1x ./internal/region

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test ./internal/... -coverpkg=./internal/... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem ./...

# The one benchmark harness (cmd/bench, BENCHMARK.json): run all five
# workloads into .bench_build/result.json, then diff against the
# checked-in baseline with BENCHMARK.json's bounds. Exits nonzero on a
# regression; a metric whose run-to-run spread exceeds its bound is
# reported unresolved, not passed. About 3 minutes. The baseline was
# measured on the box that checked it in — on other hardware, compare two
# local runs instead (see cmd/bench/README.md).
bench-compare:
	bash cmd/bench/run.sh run -out .bench_build/result.json
	bash cmd/bench/run.sh compare cmd/bench/baseline.json .bench_build/result.json

# The paper's experiments.
table1:
	$(GO) run ./cmd/protbench

table2:
	$(GO) run ./cmd/tpcbbench -ops 100000 -runs 9

faultstudy:
	$(GO) run ./cmd/faultstudy -campaigns 25

faultstudy-disk:
	$(GO) run ./cmd/faultstudy -disk

# Multi-shard scaling sweep (K=1/2/4/8, partitioned TPC-B-style load);
# regenerates BENCH_pr6.json.
bench-shard:
	$(GO) run ./cmd/shardbench -txns 16000 -shards 1,2,4,8 -cross 0,0.15 -o BENCH_pr6.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/corruption_audit
	$(GO) run ./examples/delete_recovery
	$(GO) run ./examples/tpcb -ops 2000
	$(GO) run ./examples/extensible_index

clean:
	rm -f cover.out test_output.txt bench_output.txt heal.smoke.json
