// Command ironstat drives a deterministic workload and snapshots the
// live-metrics registry: every counter, gauge, and exact-quantile latency
// histogram the stack recorded while the run executed. Virtual time makes
// the numbers reproducible — two identical invocations emit byte-identical
// snapshots, which CI enforces with a double-run cmp.
//
// Usage:
//
//	ironstat [-mode fp|bench|multi] [-fs NAME] [-fault read|write|corrupt|all]
//	         [-seed N] [-bench SSH|Web|Post|TPCB] [-clients N] [-depth D]
//	         [-json] [-out FILE]
//	ironstat -diff A.json B.json
//
// Modes:
//
//	fp     run a fault-injection fingerprint campaign (default). The
//	       snapshot's iron_detect_total/iron_recover_total counters
//	       reconcile exactly with the campaign's per-scenario taxonomy
//	       counts, and the reconciliation is checked before exit.
//	bench  run one Table 6 benchmark on the baseline variant.
//	multi  run the deterministic multi-client sweep at -clients modeled
//	       clients (queue depth -depth) against its serial baseline.
//
// -diff loads two JSON snapshots and prints every metric on which they
// disagree, exiting 1 on any divergence (the CI gate for drift).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ironfs/internal/cli"
	"ironfs/internal/fingerprint"
	"ironfs/internal/fs"
	"ironfs/internal/iron"
	"ironfs/internal/stat"
	"ironfs/internal/workload"
)

// Doc is the JSON document ironstat emits: the workload identity that
// produced the numbers, then the registry snapshot itself.
type Doc struct {
	Mode  string         `json:"mode"`
	FS    string         `json:"fs"`
	Seed  int64          `json:"seed,omitempty"`
	Stats *stat.Snapshot `json:"stats"`
}

func main() {
	mode := flag.String("mode", "fp", "workload to drive: fp (fingerprint campaign), bench (Table 6 benchmark), multi (multi-client sweep)")
	fsName := cli.FSFlag("all", fs.Names())
	faultName := flag.String("fault", "all", "fp: fault class (read, write, corrupt, all)")
	seed := cli.SeedFlag("fp: corruption-noise RNG seed")
	benchName := flag.String("bench", "SSH", "bench: workload (SSH, Web, Post, TPCB)")
	clients := flag.Int("clients", 4, "multi: modeled clients")
	depth := flag.Int("depth", 32, "multi: scheduler queue depth")
	asJSON := cli.JSONFlag("emit the snapshot as JSON instead of a table")
	outFile := cli.OutFlag("write output to FILE instead of stdout")
	diffMode := flag.Bool("diff", false, "compare two JSON snapshots: ironstat -diff A.json B.json")
	flag.Parse()

	if *diffMode {
		os.Exit(runDiff(flag.Args()))
	}

	var err error
	switch *mode {
	case "fp":
		err = runFingerprint(*fsName, *faultName, *seed)
	case "bench":
		err = runBench(*benchName)
	case "multi":
		err = runMulti(*fsName, *clients, *depth)
	default:
		fmt.Fprintf(os.Stderr, "ironstat: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ironstat: %v\n", err)
		os.Exit(1)
	}

	doc := Doc{Mode: *mode, FS: *fsName, Stats: stat.Default().Snapshot()}
	if *mode == "fp" {
		doc.Seed = *seed
	}

	w, closeOut, err := cli.OutputWriter(*outFile)
	if err != nil {
		cli.Fatalf("ironstat", "%v", err)
	}
	if *asJSON {
		if err := cli.WriteJSON(w, doc); err != nil {
			cli.Fatalf("ironstat", "%v", err)
		}
		if err := closeOut(); err != nil {
			cli.Fatalf("ironstat", "%v", err)
		}
		return
	}
	fmt.Fprintf(w, "ironstat: mode=%s fs=%s\n", doc.Mode, doc.FS)
	io.WriteString(w, doc.Stats.Render())
	if err := closeOut(); err != nil {
		cli.Fatalf("ironstat", "%v", err)
	}
}

// runFingerprint drives a fault-injection campaign and then proves the
// registry's taxonomy counters against the campaign's own per-scenario
// accounting: iron_detect_total{level=L} must equal the sum of scenario
// DetectCounts[L] over every target, and likewise for recovery. A
// mismatch means a detection or recovery path fired outside a scenario
// (or was double-counted), and is fatal.
func runFingerprint(fsName, faultName string, seed int64) error {
	var targets []fingerprint.Target
	if fsName == "all" {
		targets = fingerprint.Targets()
	} else {
		t, ok := fingerprint.ByName(fsName)
		if !ok {
			return fmt.Errorf("unknown file system %q", fsName)
		}
		targets = []fingerprint.Target{t}
	}
	var faults []iron.FaultClass
	switch faultName {
	case "read":
		faults = []iron.FaultClass{iron.ReadFailure}
	case "write":
		faults = []iron.FaultClass{iron.WriteFailure}
	case "corrupt":
		faults = []iron.FaultClass{iron.Corruption}
	case "all":
		faults = nil // fingerprint.Config default: all three
	default:
		return fmt.Errorf("unknown fault class %q", faultName)
	}

	wantDet := map[iron.DetectionLevel]int{}
	wantRec := map[iron.RecoveryLevel]int{}
	for _, t := range targets {
		res, err := fingerprint.Run(t, fingerprint.Config{Faults: faults, Seed: seed})
		if err != nil {
			return err
		}
		det, rec := res.TaxonomyCounts()
		for lvl, n := range det {
			wantDet[lvl] += n
		}
		for lvl, n := range rec {
			wantRec[lvl] += n
		}
	}
	return reconcile(stat.Default(), wantDet, wantRec)
}

// reconcile checks registry taxonomy counters against campaign totals.
func reconcile(r *stat.Registry, wantDet map[iron.DetectionLevel]int, wantRec map[iron.RecoveryLevel]int) error {
	for _, lvl := range []iron.DetectionLevel{iron.DErrorCode, iron.DSanity, iron.DRedundancy} {
		got := r.Counter("iron_detect_total", "level", lvl.String()).Value()
		if got != int64(wantDet[lvl]) {
			return fmt.Errorf("taxonomy drift: iron_detect_total{level=%s} = %d, campaign counted %d",
				lvl, got, wantDet[lvl])
		}
	}
	for _, lvl := range []iron.RecoveryLevel{iron.RPropagate, iron.RStop, iron.RGuess, iron.RRetry, iron.RRepair, iron.RRemap, iron.RRedundancy} {
		got := r.Counter("iron_recover_total", "level", lvl.String()).Value()
		if got != int64(wantRec[lvl]) {
			return fmt.Errorf("taxonomy drift: iron_recover_total{level=%s} = %d, campaign counted %d",
				lvl, got, wantRec[lvl])
		}
	}
	return nil
}

// runBench drives one Table 6 benchmark on the baseline variant, so the
// snapshot shows what a plain workload does to each layer.
func runBench(name string) error {
	b, ok := workload.BenchmarkByName(name)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", name)
	}
	variants := workload.Variants()
	_, err := workload.RunTable6(variants[:1], []workload.Benchmark{b})
	return err
}

// runMulti drives the multi-client sweep for the selected file systems at
// one client count, serial baselines included.
func runMulti(fsName string, clients, depth int) error {
	names, err := cli.ResolveFS(fsName, fs.Names())
	if err != nil {
		return err
	}
	_, err = workload.RunSweep(names, []int{clients}, depth, false)
	return err
}

// runDiff compares two JSON snapshot documents; any divergence is listed
// and exits nonzero.
func runDiff(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "ironstat: -diff needs exactly two JSON files")
		return 2
	}
	docs := make([]*Doc, 2)
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ironstat: %v\n", err)
			return 2
		}
		var d Doc
		if err := json.Unmarshal(data, &d); err != nil {
			fmt.Fprintf(os.Stderr, "ironstat: %s: %v\n", p, err)
			return 2
		}
		if d.Stats == nil {
			fmt.Fprintf(os.Stderr, "ironstat: %s: no stats section\n", p)
			return 2
		}
		docs[i] = &d
	}
	lines := stat.Diff(docs[0].Stats, docs[1].Stats)
	if len(lines) == 0 {
		fmt.Printf("ironstat: snapshots identical (%s vs %s)\n", paths[0], paths[1])
		return 0
	}
	fmt.Printf("ironstat: %d metrics differ (%s vs %s):\n", len(lines), paths[0], paths[1])
	for _, l := range lines {
		fmt.Println(l)
	}
	return 1
}
