// Command ironload drives simulated tenant populations through the
// ironserve volume server and reports per-tenant exact latency
// percentiles. Four scenarios pin the serving tier's contracts:
//
//	fairness  a 10:1-weighted light tenant keeps its p99 beside a
//	          closed-loop flood (weighted fair queueing)
//	readonly  a ReadOnly volume serves reads while writes fail with
//	          ErrVolumeReadOnly (health-aware routing)
//	repair    background scrub/fsck under live traffic honors its
//	          I/O-share cap (online repair)
//	scale     hundreds-to-thousands of mixed open/closed-loop tenants
//	          across volumes of every file system
//
// Runs are deterministic: the same flags produce byte-identical -json
// output, which CI enforces by diffing two runs. Each scenario
// self-asserts its property; violations appear in the report and turn
// the exit status nonzero. The committed pin is BENCH_4.json.
//
// Exit status: 0 all bounds held, 1 violation or error, 2 usage.
package main

import (
	"flag"
	"fmt"
	"os"

	"ironfs/internal/cli"
	"ironfs/internal/disk"
	"ironfs/internal/serve"
)

func main() {
	scenario := flag.String("scenario", "all", "scenario to run (fairness, readonly, repair, scale, all)")
	fsName := flag.String("fs", "ext3", "file system for single-FS scenarios (scale always uses all)")
	seed := cli.SeedFlag("arrival-process and op-mix seed (runs are deterministic per seed)")
	quick := flag.Bool("quick", false, "CI-smoke sizes: fewer tenants, shorter horizons")
	jsonOut := cli.JSONFlag("emit reports as JSON (byte-identical across runs)")
	outFile := cli.OutFlag("write output to FILE instead of stdout")
	flag.Parse()

	var names []string
	if *scenario == "all" || *scenario == "" {
		names = serve.Scenarios()
	} else {
		names = []string{*scenario}
	}

	var reports []*serve.LoadReport
	violations := 0
	for _, name := range names {
		rep, err := serve.RunLoad(serve.LoadConfig{
			Scenario: name, FS: *fsName, Seed: *seed, Quick: *quick,
		})
		if err != nil {
			cli.Fatalf("ironload", "%v", err)
		}
		violations += len(rep.Violations)
		reports = append(reports, rep)
	}

	w, closeOut, err := cli.OutputWriter(*outFile)
	if err != nil {
		cli.Fatalf("ironload", "%v", err)
	}
	if *jsonOut {
		if err := cli.WriteJSON(w, map[string]any{"ironload": reports}); err != nil {
			cli.Fatalf("ironload", "%v", err)
		}
	} else {
		for _, rep := range reports {
			printReport(w, rep)
		}
	}
	if err := closeOut(); err != nil {
		cli.Fatalf("ironload", "%v", err)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "ironload: %d property violation(s)\n", violations)
		os.Exit(1)
	}
}

func printReport(w interface{ Write([]byte) (int, error) }, rep *serve.LoadReport) {
	fmt.Fprintf(w, "=== %s (fs=%s seed=%#x quick=%v, %s virtual)\n",
		rep.Scenario, rep.FS, rep.Seed, rep.Quick, disk.Duration(rep.SimTimeNs))
	if len(rep.Tenants) > 0 {
		fmt.Fprintf(w, "%-16s %-8s %-6s %7s %7s %7s %12s %12s %12s\n",
			"tenant", "volume", "mode", "ops", "errs", "rej", "p50", "p99", "p999")
		for _, t := range rep.Tenants {
			fmt.Fprintf(w, "%-16s %-8s %-6s %7d %7d %7d %12s %12s %12s\n",
				t.Tenant, t.Volume, t.Mode, t.Ops, t.Errors, t.Rejected,
				disk.Duration(t.P50Ns), disk.Duration(t.P99Ns), disk.Duration(t.P999Ns))
		}
	}
	switch {
	case rep.Fairness != nil:
		f := rep.Fairness
		fmt.Fprintf(w, "light p99: solo %s, beside %dx-ops flood %s (ratio %.2f)\n",
			disk.Duration(f.LightSoloP99Ns), f.HeavyOps/max64(f.LightOps, 1),
			disk.Duration(f.LightNoisyP99Ns), f.DegradeRatio)
	case rep.ReadOnly != nil:
		r := rep.ReadOnly
		fmt.Fprintf(w, "health=%s  reads-ok=%d  writes-typed=%d  writes-other=%d\n",
			r.Health, r.ReadsOK, r.WritesTyped, r.WritesOther)
		if r.Trip != "" {
			fmt.Fprintf(w, "tripped by %s\n", r.Trip)
		}
	case rep.Repair != nil:
		r := rep.Repair
		fmt.Fprintf(w, "scrub phase=%s problems=%d repaired=%d used=%.3f (cap %.2f)\n",
			r.Phase, r.Problems, r.Repaired, r.UsedFrac, r.Share)
		fmt.Fprintf(w, "bystander ops: %d baseline, %d under repair (ratio %.3f)\n",
			r.BaselineOps, r.UnderRepairOps, r.ThroughputRatio)
	case rep.Scale != nil:
		s := rep.Scale
		fmt.Fprintf(w, "%d tenants / %d volumes: %d ops, %d rejected, agg p50 %s p99 %s p999 %s\n",
			s.Tenants, s.Volumes, s.TotalOps, s.TotalRejct,
			disk.Duration(s.AggP50Ns), disk.Duration(s.AggP99Ns), disk.Duration(s.AggP999Ns))
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
	fmt.Fprintln(w)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
