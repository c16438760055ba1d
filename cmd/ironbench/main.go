// Command ironbench reproduces the paper's performance and space
// evaluation (§6.2): Table 6 — the 32 combinations of ixt3's redundancy
// mechanisms under SSH-Build, Web, PostMark and TPC-B, normalized to stock
// ext3 — and the space-overhead study.
//
// Usage:
//
//	ironbench [-table6] [-space] [-single] [-bench SSH|Web|Post|TPCB] [-json]
//	ironbench -sweep [-sweepclients 4,64,128,256] [-depth D] [-quick] [-fs name] [-json]
//	ironbench -fsck [-fsck-workers N] [-fs name] [-json]
//
// With -json the selected studies are emitted as one machine-readable JSON
// document on stdout (per-variant simulated times and normalized ratios,
// plus per-profile space overheads) instead of the rendered tables. The
// simulator is deterministic, so committed snapshots (BENCH_N.json) pin
// the performance profile across PRs.
//
// -sweep runs the multi-client study: every registered file system, on a
// sequential read workload and a create-heavy churn workload, at each rung
// of a client ladder (4/64/128/256 modeled clients by default) over the
// adaptive queued scheduler with read-ahead on, each compared against the
// serial baseline (one client, queue depth 1). A single-threaded
// virtual-time dispatcher drives the clients, so the results — exact
// p50/p99/p999 latencies included — are bit-deterministic and pinned by
// BENCH_5.json.
//
// -fsck times a full consistency check of a bitmap-damaged image of every
// registered file system, serially and with the pFSCK-style parallel
// pipeline, under the virtual-time model (simulated disk plus per-phase
// CPU critical path). The parallel problem list is verified identical to
// the serial one before any time is reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ironfs/internal/cli"
	"ironfs/internal/disk"
	"ironfs/internal/fs"
	"ironfs/internal/workload"
)

func main() {
	table6 := flag.Bool("table6", true, "run the full Table 6 sweep (all 32 variants)")
	single := flag.Bool("single", false, "run only the single-mechanism rows plus the full combination")
	space := flag.Bool("space", false, "run the space-overhead study")
	benchName := flag.String("bench", "", "restrict to one workload (SSH, Web, Post, TPCB)")
	asJSON := cli.JSONFlag("emit results as a JSON document instead of rendered tables")
	depth := flag.Int("depth", 32, "sweep: scheduler queue depth")
	sweep := flag.Bool("sweep", false, "run the deterministic multi-client sweep instead of Table 6")
	sweepClients := flag.String("sweepclients", "", "sweep: comma-separated client counts (default 4,64,128,256)")
	quick := flag.Bool("quick", false, "sweep: shrink per-client work for smoke runs")
	fsName := cli.FSFlag("", fs.Names())
	fsckBench := flag.Bool("fsck", false, "run the fsck serial-vs-parallel study instead of Table 6")
	fsckWorkers := flag.Int("fsck-workers", 4, "fsck: parallel worker count")
	flag.Parse()
	if *fsckBench || *sweep {
		table6Set := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "table6" {
				table6Set = true
			}
		})
		if !table6Set {
			*table6 = false
		}
	}

	var benches []workload.Benchmark
	if *benchName != "" {
		b, ok := workload.BenchmarkByName(*benchName)
		if !ok {
			fmt.Fprintf(os.Stderr, "ironbench: unknown benchmark %q\n", *benchName)
			os.Exit(2)
		}
		benches = []workload.Benchmark{b}
	}

	var doc workload.BenchJSON

	if *table6 {
		variants := workload.Variants()
		if *single {
			variants = append(variants[:6:6], variants[len(variants)-1])
		}
		t, err := workload.RunTable6(variants, benches)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ironbench: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			doc.Table6 = t.JSON()
		} else {
			fmt.Println("Table 6: relative run time of ixt3 variants (1.00 = stock ext3;")
			fmt.Println("speedups in [brackets], as in the paper)")
			fmt.Println(t.Render())
		}
	}

	if *space {
		var reports []workload.SpaceReport
		for _, p := range workload.Profiles() {
			r, err := workload.RunSpaceStudy(p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ironbench: space %s: %v\n", p.Name, err)
				os.Exit(1)
			}
			reports = append(reports, r)
		}
		if *asJSON {
			for _, r := range reports {
				doc.Space = append(doc.Space, r.JSON())
			}
		} else {
			fmt.Println("Space overheads (§6.2): per-mechanism cost as % of used volume")
			fmt.Println(workload.RenderSpace(reports))
		}
	}

	names, err := cli.ResolveFS(*fsName, fs.Names())
	if err != nil {
		cli.Usagef("ironbench", "%v", err)
	}

	if *sweep {
		counts := workload.SweepClients()
		if *sweepClients != "" {
			counts = counts[:0]
			for _, s := range strings.Split(*sweepClients, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n < 1 {
					cli.Usagef("ironbench", "bad -sweepclients entry %q", s)
				}
				counts = append(counts, n)
			}
		}
		rows, err := workload.RunSweep(names, counts, *depth, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ironbench: sweep: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			for _, row := range rows {
				doc.Sweep = append(doc.Sweep, row.JSON())
			}
		} else {
			fmt.Printf("Multi-client sweep: deterministic virtual-time clients over the\n")
			fmt.Printf("adaptive scheduler (depth %d) vs the serial baseline; exact latencies\n\n", *depth)
			fmt.Printf("%-9s %-12s %8s %10s %8s %12s %12s %12s\n",
				"fs", "workload", "clients", "ops/s", "speedup", "p50", "p99", "p999")
			for _, row := range rows {
				j := row.JSON()
				fmt.Printf("%-9s %-12s %8d %10.0f %7.2fx %12v %12v %12v\n",
					j.FS, j.Workload, j.Clients, j.Concurrent.OpsPerSec, j.Speedup,
					disk.Duration(j.Concurrent.P50Ns), disk.Duration(j.Concurrent.P99Ns),
					disk.Duration(j.Concurrent.P999Ns))
			}
		}
	}

	if *fsckBench {
		var rows []workload.FsckRow
		for _, name := range names {
			row, err := workload.RunFsckBench(name, *fsckWorkers)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ironbench: fsck: %v\n", err)
				os.Exit(1)
			}
			rows = append(rows, row)
		}
		if *asJSON {
			for _, row := range rows {
				doc.Fsck = append(doc.Fsck, row.JSON())
			}
		} else {
			fmt.Printf("Fsck: full consistency check of damaged images, serial vs %d workers\n", *fsckWorkers)
			fmt.Printf("(virtual time = simulated disk + per-phase CPU critical path)\n\n")
			fmt.Printf("%-9s %8s %12s %12s %8s\n", "fs", "problems", "serial", "parallel", "speedup")
			for _, row := range rows {
				fmt.Printf("%-9s %8d %12v %12v %7.2fx\n",
					row.FS, row.Serial.Problems, row.Serial.Elapsed, row.Par.Elapsed, row.Speedup())
			}
		}
	}

	if *asJSON {
		if err := cli.WriteJSON(os.Stdout, doc); err != nil {
			cli.Fatalf("ironbench", "%v", err)
		}
	}
}
