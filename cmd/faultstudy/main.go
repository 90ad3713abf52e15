// Command faultstudy runs randomized fault-injection campaigns against
// every protection scheme and tabulates the outcomes: trapped by hardware,
// prevented by read prechecking, detected by audit (or at restart from
// read-log codewords), recovered to a clean image, or silently surviving.
// It is this repository's analogue of the Ng & Chen fault-injection study
// the paper cites to argue that detection and recovery are necessary even
// where prevention exists.
//
// With -disk it instead runs the storage-fault campaign: the deterministic
// torture workload is crashed at every I/O point (fsyncs, page writes,
// renames, directory syncs) and recovery from each frozen durable state is
// verified, followed by fsync-failure drills that must fail-stop.
//
// With -heal it runs the error-correction campaign instead: targeted
// damage shapes (single-bit, single-word, double-word, equal-delta-pair,
// memset-run, record-overrun, parity-column) against each ECC-bearing
// scheme. It exits nonzero unless no cell healed anything wrong, no 64 B
// or 512 B cell let damage go undetected, every escalation to crash +
// delete-transaction recovery came back byte-exact, Read Prechecking
// healed at least 99% of single-word damage in place, and Data CW and
// Deferred CW escalated everything.
//
// Usage:
//
//	faultstudy [-campaigns N] [-txns N] [-seed N]
//	faultstudy -disk [-disk-txns N] [-disk-ckpt-every N]
//	faultstudy -heal [-campaigns N] [-txns N] [-seed N] [-json FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/faultstudy"
	"repro/internal/iofault/torture"
)

func main() {
	campaigns := flag.Int("campaigns", 20, "campaigns per scheme")
	txns := flag.Int("txns", 8, "carrier transactions per campaign")
	seed := flag.Int64("seed", 1, "random seed")
	disk := flag.Bool("disk", false, "run the storage-fault campaign (exhaustive crash points) instead")
	heal := flag.Bool("heal", false, "run the error-correction campaign (targeted damage shapes, heal/escalate) instead")
	jsonOut := flag.String("json", "", "also write campaign results as JSON to this file (with -heal)")
	diskTxns := flag.Int("disk-txns", 0, "disk campaign: update transactions (0 = workload default)")
	diskCkptEvery := flag.Int("disk-ckpt-every", -1, "disk campaign: checkpoint every N txns (-1 = workload default)")
	flag.Parse()

	if *disk {
		wl := torture.DefaultConfig()
		if *diskTxns > 0 {
			wl.Txns = *diskTxns
		}
		if *diskCkptEvery >= 0 {
			wl.CheckpointEvery = *diskCkptEvery
		}
		fmt.Printf("Storage-fault study: %d update txns, checkpoint every %d, crash at every I/O point\n\n",
			wl.Txns, wl.CheckpointEvery)
		out, err := faultstudy.DiskCampaign(faultstudy.DiskConfig{Workload: wl})
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultstudy:", err)
			os.Exit(1)
		}
		fmt.Print(faultstudy.FormatDiskOutcome(out))
		if len(out.Failures) > 0 {
			fmt.Println("\nVIOLATIONS > 0 means a crash point exists from which recovery breaks")
			fmt.Println("the acknowledged-commit contract — a durability bug.")
			os.Exit(1)
		}
		fmt.Println("\nEvery crash point recovered: committed work present, uncommitted work absent,")
		fmt.Println("codeword audit clean — the multi-level recovery contract holds on disk too.")
		return
	}

	if *heal {
		fmt.Printf("Error-correction study: %d injections per scheme x shape, %d carrier txns each\n\n",
			*campaigns, *txns)
		outcomes, err := faultstudy.RunHeal(faultstudy.HealConfig{
			Injections: *campaigns,
			Carriers:   *txns,
			Seed:       *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultstudy:", err)
			os.Exit(1)
		}
		fmt.Print(faultstudy.FormatHealOutcomes(outcomes))
		if *jsonOut != "" {
			b, err := json.MarshalIndent(outcomes, "", "  ")
			if err == nil {
				err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "faultstudy: write json:", err)
				os.Exit(1)
			}
			fmt.Printf("\nwrote %s\n", *jsonOut)
		}
		for _, o := range outcomes {
			if !o.Pass {
				fmt.Println("\nFAIL: a cell healed wrong, missed damage, escalated without a clean")
				fmt.Println("recovery, or missed its heal/escalate bar (Bar column).")
				os.Exit(1)
			}
		}
		fmt.Println("\nNothing healed wrong or went undetected. Precheck healed single-word damage")
		fmt.Println("in place; everything else escalated to delete-transaction recovery, clean.")
		return
	}

	fmt.Printf("Fault-injection study: %d campaigns/scheme, %d carrier txns each, one wild write per campaign\n\n",
		*campaigns, *txns)
	outcomes, err := faultstudy.Run(faultstudy.Config{
		Campaigns:       *campaigns,
		TxnsPerCampaign: *txns,
		Seed:            *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultstudy:", err)
		os.Exit(1)
	}
	fmt.Print(faultstudy.FormatOutcomes(outcomes))
	fmt.Println("\nUNDETECTED > 0 means corruption silently survived in the database image —")
	fmt.Println("the paper's argument for always enabling at least Data Codeword detection.")
}
