// Command ironhunt hunts crash-consistency bugs black-box: a seeded
// generator enumerates every syscall sequence up to a small length bound
// over a tiny name/data domain, records each once on a crash device,
// crashes at every persistence point its write-cache model admits — epoch
// seals with torn/reordered subsets, persistence-op returns, and the
// full-image tail — remounts, and grades the recovered tree against an
// expected-state oracle that knows exactly what a correct file system
// still owes after the crash. Violations are deduplicated by
// (workload-shape, crash-point-class, symptom) fingerprint and minimized
// to the shortest reproducing sequence; -out writes each one as a
// self-contained artifact that -repro replays deterministically.
//
// The headline verdict is loss-silent: a durably promised file that came
// back wrong or missing with nothing flagged. The structural checks
// ironcrash runs can prove an image consistent; only an expected-state
// oracle can prove it honest.
//
// A second mode (-fsck) crashes inside ironfsck repair transactions
// after every write-count prefix and requires repair to be
// crash-idempotent: check+repair after the crash must converge to a
// clean volume with every pre-damage file intact.
//
// Usage:
//
//	ironhunt [-fs ext3|ext3-nobarrier|ixt3|reiserfs|jfs|ntfs|all]
//	         [-len N] [-seqs N] [-seed N] [-quick] [-json] [-out DIR]
//	ironhunt -repro FILE
//	ironhunt -fsck [-fs ...] [-flips N] [-json]
//
// Exit status: 0 when nothing was found, 1 when any violation (or a
// -repro verdict mismatch) surfaced, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ironfs/internal/cli"
	"ironfs/internal/faultinject"
	"ironfs/internal/fingerprint"
	"ironfs/internal/hunt"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ironhunt: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	fsName := flag.String("fs", "all", "hunt target (ext3, ext3-nobarrier, ixt3, reiserfs, jfs, ntfs, all)")
	maxOps := flag.Int("len", 0, "max ops per sequence (default 3)")
	maxSeqs := flag.Int("seqs", 0, "sequences sampled from the enumeration (default 400, <0 = all)")
	seed := cli.SeedFlag("generator/enumeration seed (hunts are deterministic per seed)")
	quick := flag.Bool("quick", false, "smoke bounds: length <= 2, full enumeration (CI gate)")
	jsonOut := cli.JSONFlag("emit results as JSON (byte-identical across runs)")
	outDir := flag.String("out", "", "write each bug's repro artifact into DIR")
	reproFile := flag.String("repro", "", "replay one repro artifact and verify its verdict")
	fsckMode := flag.Bool("fsck", false, "hunt mid-repair crashes in ironfsck instead of workload crashes")
	flips := flag.Int("flips", 0, "-fsck: bitmap damage bits to inject (default 12)")
	flag.Parse()

	if *reproFile != "" {
		os.Exit(replay(*reproFile, *jsonOut))
	}

	var targets []fingerprint.HuntTarget
	if *fsName == "all" || *fsName == "" {
		targets = fingerprint.HuntTargets()
	} else {
		ht, err := fingerprint.HuntTargetByName(*fsName)
		if err != nil {
			fail("%v", err)
		}
		targets = []fingerprint.HuntTarget{ht}
	}

	if *fsckMode {
		os.Exit(runFsck(targets, *flips, *jsonOut))
	}

	cfg := hunt.Config{
		Bounds: hunt.Bounds{MaxOps: *maxOps, MaxSeqs: *maxSeqs, Seed: *seed},
		Policy: faultinject.EnumPolicy{Seed: *seed},
	}
	if *quick {
		cfg.Bounds.MaxOps = 2
		cfg.Bounds.MaxSeqs = -1
	}

	exit := 0
	var results []*hunt.TargetResult
	for _, ht := range targets {
		res, err := hunt.Run(ht.Target, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ironhunt: %s: %v\n", ht.Target.Name, err)
			os.Exit(1)
		}
		results = append(results, res)
		if len(res.Bugs) > 0 {
			exit = 1
		}
		if *outDir != "" {
			if err := writeArtifacts(*outDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "ironhunt: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *jsonOut {
		emitJSON(results)
		os.Exit(exit)
	}
	fmt.Printf("ironhunt: seed %#x, bounds len<=%d seqs<=%d\n\n", *seed, cfg.Bounds.MaxOps, cfg.Bounds.MaxSeqs)
	for _, res := range results {
		fmt.Println(res)
		for _, b := range res.Bugs {
			fmt.Printf("    bug %s (%d states)\n        min repro: %s\n        %s\n",
				b.Fingerprint, b.States, b.Repro.Seq, b.Detail)
		}
	}
	fmt.Println()
	fmt.Println("loss = oracle violation (detected/silent) | struct = inconsistent image | bugs = deduplicated, minimized")
	os.Exit(exit)
}

// emitJSON renders any result slice as stable, indented JSON.
func emitJSON(v any) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fail("encoding json: %v", err)
	}
	os.Stdout.Write(append(out, '\n'))
}

// artifactName turns a bug fingerprint into a stable file name.
func artifactName(b hunt.Bug) string {
	s := b.Target + "--" + b.Fingerprint
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
	return s + ".json"
}

func writeArtifacts(dir string, res *hunt.TargetResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, b := range res.Bugs {
		data, err := hunt.EncodeRepro(b.Repro)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, artifactName(b)), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func replay(path string, jsonOut bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	r, err := hunt.DecodeRepro(data)
	if err != nil {
		fail("%v", err)
	}
	ht, err := fingerprint.HuntTargetByName(r.Target)
	if err != nil {
		fail("%v", err)
	}
	res, err := hunt.ReplayRepro(ht.Target, r, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ironhunt: replay: %v\n", err)
		return 1
	}
	if jsonOut {
		emitJSON(res)
	} else {
		fmt.Printf("ironhunt: %s: seq [%s] point %d mask %s -> %s", r.Target, r.Seq, r.Point, r.Mask, res.Verdict)
		if res.Symptom != "" {
			fmt.Printf(" (%s)", res.Symptom)
		}
		if res.Match {
			fmt.Println(" — matches artifact")
		} else {
			fmt.Printf(" — MISMATCH, artifact says %s\n", r.Verdict)
		}
	}
	if !res.Match {
		return 1
	}
	return 0
}

func runFsck(targets []fingerprint.HuntTarget, flips int, jsonOut bool) int {
	exit := 0
	var results []*hunt.FsckTargetResult
	seen := map[string]bool{}
	for _, ht := range targets {
		// ext3 and ext3-nobarrier repair the same format; hunt each FS
		// once under its canonical options.
		if seen[ht.FS] && ht.Target.Name != ht.FS {
			continue
		}
		seen[ht.FS] = true
		res, err := hunt.RunFsck(ht.FS, ht.Opts, hunt.FsckBounds{Flips: flips})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ironhunt: -fsck %s: %v\n", ht.FS, err)
			return 1
		}
		results = append(results, res)
		if len(res.Violations) > 0 {
			exit = 1
		}
	}
	if jsonOut {
		emitJSON(results)
		return exit
	}
	fmt.Println("ironhunt -fsck: mid-repair crash idempotence")
	fmt.Println()
	for _, res := range results {
		fmt.Println(res)
		for _, v := range res.Violations {
			fmt.Printf("    %s (crash budget %d): %s\n", v.Kind, v.Crash, v.Detail)
		}
	}
	return exit
}
