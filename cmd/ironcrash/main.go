// Command ironcrash explores crash states under write-cache reordering
// (the §6.2 failure model) and prints a crash-vulnerability matrix per
// file system × workload: how many crash states were explored, how many
// recovered to an inconsistent image, and how many of those the file
// system never noticed (silent corruption).
//
// The headline row pair: "ext3-nobarrier" (stock ext3 journaling on a
// cache that ignores ordering, so a commit block can land before the
// journal data it covers) replays garbage silently, while "ixt3" (Tc
// transactional checksums) detects the mismatch and refuses the replay.
//
// Usage:
//
//	ironcrash [-fs ext3|ext3-nobarrier|ixt3|reiserfs|jfs|ntfs|all]
//	          [-workload mkfiles|churn|renameover|linkchurn|appendsync|all]
//	          [-points N] [-window N]
//	          [-samples N] [-seed N] [-depth N] [-short] [-v] [-trace FILE]
//	          [-hunt-seed N] [-ops N]
//
// -hunt-seed swaps the named workloads for a deterministic sample of the
// ironhunt generator's bounded syscall sequences (-ops caps the length),
// so the structural matrix and the oracle hunt can be pointed at the same
// corpus.
//
// -depth inserts the queued I/O scheduler between the file system and the
// recording crash device. At the default depth 1 the scheduler is a strict
// passthrough and the matrix is byte-identical to the pre-scheduler stack;
// deeper queues add the scheduler's own buffering to the crash surface.
//
// The "barriers" column is the number of ordering points the workload
// actually issued, counted from observed cache-layer barrier events — the
// evidence behind every "this variant cannot express ordering" claim
// (ext3-nobarrier shows 0 between journal payload and commit; stock ext3
// does not). With -trace, the workload trace and every crash state's
// recovery trace are dumped as one NDJSON stream to FILE (- for stdout);
// inspect with cmd/irontrace.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ironfs/internal/cli"
	"ironfs/internal/faultinject"
	"ironfs/internal/fingerprint"
	"ironfs/internal/fstest"
	"ironfs/internal/hunt"
	"ironfs/internal/trace"
)

func main() {
	fsName := flag.String("fs", "all", "crash target (ext3, ext3-nobarrier, ixt3, reiserfs, jfs, ntfs, all)")
	var wlNames []string
	for _, w := range fstest.Workloads() {
		wlNames = append(wlNames, w.Name)
	}
	wlName := flag.String("workload", "all", "workload ("+strings.Join(wlNames, ", ")+", all)")
	points := flag.Int("points", 0, "max crash points per cell (0 = every write)")
	window := flag.Int("window", 0, "write-cache reordering window in blocks (default 16)")
	samples := flag.Int("samples", 0, "sampled subsets per large window (default 8)")
	seed := cli.SeedFlag("enumeration seed (exploration is deterministic per seed)")
	depth := flag.Int("depth", 1, "scheduler queue depth between FS and crash device (1 = passthrough)")
	short := flag.Bool("short", false, "smoke mode: at most 12 crash points per cell, 4 sampled subsets per window")
	verbose := flag.Bool("v", false, "print the first silently corrupt state per cell")
	traceFile := cli.TraceFlag("dump workload and per-state evidence traces as NDJSON to FILE (- for stdout)")
	huntSeed := flag.Int64("hunt-seed", 0, "replace named workloads with sequences from the ironhunt generator at this seed")
	huntOps := flag.Int("ops", 0, "-hunt-seed: max ops per generated sequence (default 3)")
	flag.Parse()

	var targets []fstest.ExploreTarget
	for _, name := range resolveCrashFS(*fsName) {
		t, err := fingerprint.CrashTargetByName(name)
		if err != nil {
			cli.Usagef("ironcrash", "%v", err)
		}
		targets = append(targets, t)
	}

	huntMode := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "hunt-seed" || f.Name == "ops" {
			huntMode = true
		}
	})

	var workloads []fstest.ExploreWorkload
	if huntMode {
		// Delegate workload construction to the shared hunt generator:
		// a deterministic sample of its bounded syscall sequences, each
		// explored as a regular structural workload.
		n := 8
		if *short {
			n = 3
		}
		workloads = hunt.ExploreWorkloads(hunt.Bounds{MaxOps: *huntOps, Seed: *huntSeed}, n)
	} else if *wlName == "all" {
		workloads = fstest.Workloads()
	} else {
		for _, w := range fstest.Workloads() {
			if w.Name == *wlName {
				workloads = append(workloads, w)
			}
		}
		if len(workloads) == 0 {
			fmt.Fprintf(os.Stderr, "ironcrash: unknown workload %q\n", *wlName)
			os.Exit(2)
		}
	}

	cfg := fstest.ExploreConfig{
		MaxPoints:  *points,
		QueueDepth: *depth,
		Policy: faultinject.EnumPolicy{
			Window:  *window,
			Samples: *samples,
			Seed:    *seed,
			Torn:    true,
		},
	}
	if *short {
		if cfg.MaxPoints == 0 || cfg.MaxPoints > 12 {
			cfg.MaxPoints = 12
		}
		cfg.Policy.Samples = 4
	}

	traceOut, traceClose, err := cli.TraceWriter(*traceFile)
	if err != nil {
		cli.Fatalf("ironcrash", "%v", err)
	}
	cfg.Trace = traceOut != nil

	fmt.Printf("ironcrash: enumeration seed %#x (window=%d)\n\n", *seed, cfg.Policy.Window)
	fmt.Printf("%-14s %-8s %7s %8s %7s %7s %7s %9s %8s %13s %7s\n",
		"fs", "workload", "writes", "barriers", "points", "states", "ok", "detected", "refused", "inconsistent", "SILENT")

	exit := 0
	for _, t := range targets {
		for _, w := range workloads {
			res, err := fstest.Explore(t, w, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ironcrash: %s/%s: %v\n", t.Name, w.Name, err)
				exit = 1
				continue
			}
			fmt.Printf("%-14s %-8s %7d %8d %7d %7d %7d %9d %8d %13d %7d\n",
				res.Target, res.Workload, res.Writes, res.Barriers, res.Points, res.States,
				res.Consistent, res.Detected, res.Refused, res.Inconsistent, res.Silent)
			if *verbose && res.FirstSilent != "" {
				fmt.Printf("    first silent: %s\n", res.FirstSilent)
			}
			if *verbose && cfg.Trace {
				for _, sr := range res.StateResults {
					if sr.Outcome == "silent" {
						fmt.Printf("    state %-16s epoch=%d outcome=%s\n", sr.State, sr.Epoch, sr.Outcome)
					}
				}
			}
			if traceOut != nil {
				if err := trace.WriteNDJSON(traceOut, res.WorkloadTrace); err != nil {
					fmt.Fprintf(os.Stderr, "ironcrash: writing trace: %v\n", err)
					os.Exit(1)
				}
				for _, sr := range res.StateResults {
					if err := trace.WriteNDJSON(traceOut, sr.Trace); err != nil {
						fmt.Fprintf(os.Stderr, "ironcrash: writing trace: %v\n", err)
						os.Exit(1)
					}
				}
			}
		}
	}
	if err := traceClose(); err != nil {
		fmt.Fprintf(os.Stderr, "ironcrash: flushing trace: %v\n", err)
		exit = 1
	}
	fmt.Println()
	fmt.Println("ok = consistent, nothing flagged | detected = damage flagged and contained")
	fmt.Println("refused = recovery rejected the image | SILENT = inconsistent and never flagged")
	os.Exit(exit)
}

// resolveCrashFS expands "" / "all" into every crash target name; any
// other value is passed through for CrashTargetByName to vet.
func resolveCrashFS(v string) []string {
	if v == "" || v == "all" {
		var names []string
		for _, t := range fingerprint.CrashTargets() {
			names = append(names, t.Name)
		}
		return names
	}
	return []string{v}
}
