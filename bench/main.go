// Command bench is the repository's benchmark: six named workloads driven
// through the stack's public functions from a single goroutine, reported on
// two clocks that are never mixed — sim (what the modelled disk and CPU
// would take; repeats exactly) and host (what the simulator costs to run;
// noisy, estimated over repetitions) — with per-layer attribution measured
// from outside the stack. README.md describes the workloads, the metrics
// and how to read them.
//
//	go run -C bench .                          every workload, full report
//	go run -C bench . -workload meta_churn     one workload
//	go run -C bench . -out run.json            also write the report as JSON
//	go run -C bench . -spans spans.ndjson      also write the traced spans
//	go run -C bench . -compare A.json B.json   compare two reports
//
// BENCHMARK.json's command (bash bench/run.sh) builds this program inside
// the checkout and passes its arguments through.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// defaultSeed is the repository's faultinject.DefaultSeed. README.md names a
// second, held-out seed (0x5eed) for confirming a claim on inputs that were
// not used while a change was written.
const defaultSeed = 0x1207

// workloads lists the six workloads in report order.
var workloads = []workloadDef{
	{"cached_read", "set fits the cache: bcache hit path and the FS read/lock path do all the work; journal, sched and disk do none", setupCachedRead},
	{"cold_scan", "set is 4x the cache: bcache miss/evict, read-ahead, sched read-flush and disk service dominate", setupColdScan},
	{"meta_churn", "create/write/fsync/unlink: journal commit and sched coalescing do the work; carries write amplification and the Table 6 cell", setupMetaChurn},
	{"serve_tenants", "1024 tenants on 16 volumes behind one server: admission and fair dispatch dominate host time here only; carries the served-under-SLO rate", setupServeTenants},
	{"fault_degraded", "ixt3 under a rolling schedule of transient read errors and corruption: detection and recovery do the work", setupFaultDegraded},
	{"crash_recover", "journal replay after mid-churn crashes and fsck of bitmap-damaged images: run by no other workload; checks acknowledged-write durability", setupCrashRecover},
}

// report is what -out writes and -compare reads.
type report struct {
	Seed      int64     `json:"seed"`
	Quick     bool      `json:"quick"`
	Traced    bool      `json:"traced"`
	Workloads []*result `json:"workloads"`
}

func main() {
	wl := flag.String("workload", "", "comma-separated workloads to run (default: all six)")
	seed := flag.Int64("seed", defaultSeed, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 8, "measuring budget per workload for the untraced repetitions")
	trace := flag.Int("trace", 1, "1 also runs the traced repetitions, which give the per-layer host times")
	quick := flag.Bool("quick", false, "smoke-test sizes; these numbers are never results")
	out := flag.String("out", "", "write the report to this file as JSON")
	spans := flag.String("spans", "", "write the last traced repetition's spans to this file as NDJSON")
	compare := flag.Bool("compare", false, "compare two reports: bench -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two report files")
		}
		regressed, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	selected, err := selectWorkloads(*wl)
	if err != nil {
		fatalf("%v", err)
	}
	if *spans != "" {
		if err := os.WriteFile(*spans, nil, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	rep := report{Seed: *seed, Quick: *quick, Traced: *trace == 1}
	ok := true
	for _, def := range selected {
		t0 := time.Now()
		r, err := runWorkload(def, runConfig{seed: *seed, seconds: *seconds,
			trace: *trace == 1, quick: *quick, spans: *spans})
		if err != nil {
			fatalf("%v", err)
		}
		printResult(os.Stdout, r, time.Since(t0))
		rep.Workloads = append(rep.Workloads, r)
		ok = ok && r.Correct
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatalf("%v", err)
		}
	}
	if len(rep.Workloads) == 1 {
		// The driver's contract: one workload per invocation, and the last
		// line of standard output is its result as one JSON object.
		fmt.Println(driverLine(rep.Workloads[0], rep.Traced))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func selectWorkloads(list string) ([]workloadDef, error) {
	if list == "" {
		return workloads, nil
	}
	var out []workloadDef
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, def := range workloads {
			if def.name == name {
				out, found = append(out, def), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// driverLine renders one workload's result in the shape BENCHMARK.json's
// consumer reads: the end-to-end metrics of an untraced run, or the
// per-layer metrics of a traced one. A per-layer metric that does not apply
// to the workload reads 0 there.
func driverLine(r *result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, r.EndToEnd
	if traced {
		defs, values = perLayer, r.PerLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{values[d.name], d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	return string(b)
}
