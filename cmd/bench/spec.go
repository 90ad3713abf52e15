package main

import (
	"fmt"

	"repro/internal/protect"
)

// refSeconds is the measuring time the frozen window counts were sized
// for (BENCHMARK.json's run_seconds): measuredWindows windows of about
// refSeconds/measuredWindows seconds each at the commit that added the
// benchmark, on its 2-core box. --seconds scales the counts linearly, so
// a run is a fixed amount of work for a given flag value, not a deadline.
const (
	refSeconds      = 15
	measuredWindows = 5
	recoveryRounds  = 5
	setupRounds     = 3
)

// spec is one workload. Names are fixed: later issues cite them.
type spec struct {
	name string
	why  string
	kind protect.Kind
	// clients is the number of closed-loop clients (capped at nproc).
	clients int
	// opsPerTxn operations are committed together. A "unit" — what
	// ops_per_s counts — is an operation on the 500-op workloads and a
	// transaction where opsPerTxn is 1 and on kv_wire.
	opsPerTxn int
	// inquiryPct percent of the operations are balance inquiries (three
	// reads, no update); the rest are full TPC-B operations.
	inquiryPct int
	// kv selects the wire/shard/hashidx stack instead of embedded heap calls.
	kv bool
	// windowUnits is the frozen number of units per measured window at
	// refSeconds; tailUnits the fixed log tail written before each crash.
	windowUnits int
	tailUnits   int
}

var workloads = []spec{
	{
		name: "tpcb_base", kind: protect.KindBaseline, clients: 1, opsPerTxn: 500,
		why:         "the paper's TPC-B under no protection: the control, carried by heap/core/lockmgr/wal append",
		windowUnits: 250_000, tailUnits: 30_000,
	},
	{
		name: "tpcb_precheck", kind: protect.KindPrecheck, clients: 1, opsPerTxn: 500,
		why:         "same traffic under read prechecking with ECC: the most region/protect work per op (Table 2's cost row)",
		windowUnits: 200_000, tailUnits: 30_000,
	},
	{
		name: "inquiry_readlog", kind: protect.KindCWReadLog, clients: 1, opsPerTxn: 500, inquiryPct: 90,
		why:         "90% balance inquiries under codeword read logging: codeword capture and read-log volume, not the update bracket",
		windowUnits: 560_000, tailUnits: 60_000,
	},
	{
		name: "tpcb_commit", kind: protect.KindDataCW, clients: 2, opsPerTxn: 1,
		why:         "2 clients, 1 op per transaction: one log force per op, so group commit, fsync, commit and lock hand-off dominate",
		windowUnits: 27_000, tailUnits: 6_000,
	},
	{
		name: "kv_wire", kind: protect.KindPrecheck, clients: 2, opsPerTxn: 1, kv: true,
		why:         "wire server over 2 shards, 15% cross-shard 2PC: the only path through wire, shard router, hashidx and 2PC",
		windowUnits: 10_000, tailUnits: 2_000,
	},
}

func findWorkload(name string) (*spec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizing is everything that differs between a real run and the smoke
// test's tiny one. It is not a tuning surface: the command line only ever
// selects paperSizing.
type sizing struct {
	accounts, tellers, branches, history int
	// kvKeys is the number of preloaded keys per shard, by class.
	kvAccounts, kvTellers, kvBranches, kvHistory int
	// unitDiv divides every frozen unit count.
	unitDiv int
	// layerIters is the number of isolated calls per timing batch.
	layerIters int
	pings      int
}

// paperSizing is the paper's §5.2 database (100,000 accounts, 10,000
// tellers, 1,000 branches, 100-byte records, history recycled at 50,000)
// and 2 x 10,000 keys on kv_wire.
var paperSizing = sizing{
	accounts: 100_000, tellers: 10_000, branches: 1_000, history: 50_000,
	kvAccounts: 8_000, kvTellers: 1_000, kvBranches: 100, kvHistory: 900,
	unitDiv: 1, layerIters: 200_000, pings: 2_000,
}

// tinySizing keeps the smoke test to a few seconds.
var tinySizing = sizing{
	accounts: 1_000, tellers: 100, branches: 10, history: 500,
	kvAccounts: 160, kvTellers: 20, kvBranches: 4, kvHistory: 16,
	unitDiv: 100, layerIters: 2_000, pings: 50,
}

// units scales a frozen count by --seconds and the sizing, rounded down
// to whole transactions per client (never below one each).
func (sz sizing) units(sp *spec, frozen int, seconds int) int {
	clients := sp.effectiveClients()
	quantum := sp.opsPerTxn * clients
	n := frozen * seconds / refSeconds / sz.unitDiv
	n -= n % quantum
	if n < quantum {
		n = quantum
	}
	return n
}
