// Command ironfsck exercises the unified check-and-repair surface (the
// paper's §3.3 RRepair) against every registered file system: it builds a
// populated volume, injects deterministic allocation-bitmap damage — the
// classic fsck workload: corruption the mount accepts silently — and then
// checks, repairs, or scrubs it.
//
// Usage:
//
//	ironfsck [-fs name] [-parallel N] [-damage N] [-json] [-trace FILE] check
//	ironfsck [-fs name] [-parallel N] [-damage N] [-json] [-trace FILE] repair
//	ironfsck [-fs name] [-damage N] [-json] [-trace FILE] scrub
//
// check runs the consistency scan with -parallel workers. When -parallel
// is above one the serial scan runs too (from the identical image) and the
// two problem lists are compared element-wise: the pFSCK-style pipeline's
// contract is that parallelism reorders disk accesses, never the verdict,
// and a divergence is a hard error.
//
// repair runs check-repair-recheck through the registry's Fsck driver and
// reports whether the volume converged to clean.
//
// scrub runs the eager §3.2 disk scrubber (ext3 family only; default fs
// set is ext3 and ixt3). On ixt3 the volume is built with metadata
// checksums and replicas, so the scrub detects the silent bitmap damage
// and heals it in place; on stock ext3 the same sweep finds nothing — the
// paper's point about checksum-less detection — and the residual problem
// count says so.
//
// -trace writes the run's semantic block-level trace as NDJSON ("-" for
// stdout); fsck phase boundaries appear as phase events. -json emits a
// machine-readable report. Exit status: 0 when the verb left nothing
// outstanding, 1 when problems remain (check on a damaged image, a repair
// that could not converge, a scrub with unrecovered blocks), 2 on usage
// errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ironfs/internal/cli"
	"ironfs/internal/fs"
	"ironfs/internal/fs/ext3"
	"ironfs/internal/fsck"
	"ironfs/internal/trace"
)

// Volume shape: enough files over a few directories that the census walks
// a real tree, matching the fsck benchmark's workload.
const (
	volBlocks     = 16384
	volFiles      = 24
	volFileBlocks = 3
)

// scrubber is the eager-scrubbing surface; only the ext3 family has one.
type scrubber interface {
	Scrub() (ext3.ScrubReport, error)
}

// problemJSON is one rendered problem.
type problemJSON struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// checkJSON reports the check verb.
type checkJSON struct {
	Workers  int           `json:"workers"`
	Problems []problemJSON `json:"problems"`
	// SerialIdentical is set when workers > 1: whether the parallel
	// problem list matched the serial scan's exactly.
	SerialIdentical *bool `json:"serial_identical,omitempty"`
}

// repairJSON reports the repair verb.
type repairJSON struct {
	Found       int  `json:"found"`
	Fixed       int  `json:"fixed"`
	Unrecovered int  `json:"unrecovered"`
	CleanAfter  bool `json:"clean_after"`
}

// scrubJSON reports the scrub verb.
type scrubJSON struct {
	Scanned       int64 `json:"scanned"`
	LatentErrors  int64 `json:"latent_errors"`
	Corrupt       int64 `json:"corrupt"`
	Repaired      int64 `json:"repaired"`
	Unrecovered   int64 `json:"unrecovered"`
	Batches       int64 `json:"batches"`
	ProblemsAfter int   `json:"problems_after"`
}

// fsReport is one file system's outcome.
type fsReport struct {
	FS      string      `json:"fs"`
	Flipped int         `json:"flipped"`
	Check   *checkJSON  `json:"check,omitempty"`
	Repair  *repairJSON `json:"repair,omitempty"`
	Scrub   *scrubJSON  `json:"scrub,omitempty"`

	ok bool // verb left nothing outstanding
}

// report is the -json document.
type report struct {
	Verb    string     `json:"verb"`
	Results []fsReport `json:"results"`
}

func usage() {
	fmt.Fprintf(os.Stderr,
		"usage: ironfsck [-fs name] [-parallel N] [-damage N] [-json] [-trace FILE] check|repair|scrub\n")
	flag.PrintDefaults()
}

func main() {
	fsName := cli.FSFlag("", fs.Names())
	parallel := flag.Int("parallel", 4, "check/repair: worker count for the check's verify stages")
	damage := flag.Int("damage", 24, "allocation-bitmap bits to flip before running the verb")
	asJSON := cli.JSONFlag("emit a JSON report instead of text")
	traceFile := cli.TraceFlag("write the semantic block trace as NDJSON to FILE (\"-\" = stdout)")
	flag.Usage = usage
	flag.Parse()

	verb := flag.Arg(0)
	if verb == "" {
		verb = "check"
	}
	switch verb {
	case "check", "repair", "scrub":
	default:
		fmt.Fprintf(os.Stderr, "ironfsck: unknown verb %q\n", verb)
		usage()
		os.Exit(2)
	}
	if flag.NArg() > 1 {
		usage()
		os.Exit(2)
	}

	domain := fs.Names()
	if verb == "scrub" {
		domain = []string{"ext3", "ixt3"}
	}
	names, err := cli.ResolveFS(*fsName, domain)
	if err != nil {
		cli.Usagef("ironfsck", "%v", err)
	}

	traceOut, traceClose, err := cli.TraceWriter(*traceFile)
	if err != nil {
		cli.Fatalf("ironfsck", "%v", err)
	}

	doc := report{Verb: verb}
	exit := 0
	for _, name := range names {
		r, err := runOne(verb, name, *parallel, *damage, traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ironfsck: %s: %v\n", name, err)
			os.Exit(1)
		}
		doc.Results = append(doc.Results, r)
		if !r.ok {
			exit = 1
		}
		if !*asJSON {
			printText(r)
		}
	}
	if *asJSON {
		if err := cli.WriteJSON(os.Stdout, doc); err != nil {
			cli.Fatalf("ironfsck", "%v", err)
		}
	}
	if err := traceClose(); err != nil {
		cli.Fatalf("ironfsck", "trace: %v", err)
	}
	os.Exit(exit)
}

// printText renders one file system's outcome as human-readable lines.
func printText(r fsReport) {
	switch {
	case r.Check != nil:
		line := fmt.Sprintf("%s: %d bits flipped, check found %d problem(s) (workers=%d)",
			r.FS, r.Flipped, len(r.Check.Problems), r.Check.Workers)
		if r.Check.SerialIdentical != nil {
			if *r.Check.SerialIdentical {
				line += ", identical to serial"
			} else {
				line += ", DIVERGED from serial"
			}
		}
		fmt.Println(line)
		for _, p := range r.Check.Problems {
			fmt.Printf("  [%s] %s\n", p.Kind, p.Detail)
		}
	case r.Repair != nil:
		state := "clean"
		if !r.Repair.CleanAfter {
			state = "NOT clean"
		}
		fmt.Printf("%s: %d bits flipped, repair fixed %d/%d problem(s), %d unrecovered, volume %s\n",
			r.FS, r.Flipped, r.Repair.Fixed, r.Repair.Found, r.Repair.Unrecovered, state)
	case r.Scrub != nil:
		s := r.Scrub
		fmt.Printf("%s: %d bits flipped, scrub scanned %d blocks in %d batches: "+
			"%d latent, %d corrupt, %d repaired, %d unrecovered; %d problem(s) remain\n",
			r.FS, r.Flipped, s.Scanned, s.Batches,
			s.LatentErrors, s.Corrupt, s.Repaired, s.Unrecovered, s.ProblemsAfter)
	}
}

// buildVolume populates vol's freshly formatted file system, cleanly
// unmounts it, then injects the bitmap damage. Returns the bits flipped.
func buildVolume(vol *fs.Volume, damage int) (int, error) {
	fsys := vol.FS
	payload := make([]byte, volFileBlocks*4096)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	for i := 0; i < volFiles; i++ {
		if i%8 == 0 {
			if err := fsys.Mkdir(fmt.Sprintf("/d%d", i/8), 0o755); err != nil {
				return 0, err
			}
		}
		p := fmt.Sprintf("/d%d/f%d", i/8, i)
		if err := fsys.Create(p, 0o644); err != nil {
			return 0, err
		}
		if _, err := fsys.Write(p, 0, payload); err != nil {
			return 0, err
		}
	}
	if err := fsys.Unmount(); err != nil {
		return 0, err
	}
	if damage <= 0 {
		return 0, nil
	}
	n, err := fs.DamageBitmaps(vol.Name, vol.Disk, damage)
	if err != nil {
		return n, fmt.Errorf("damage: %w", err)
	}
	return n, nil
}

// runOne builds a damaged volume for one file system and runs the verb.
func runOne(verb, name string, parallel, damage int, traceOut io.Writer) (fsReport, error) {
	r := fsReport{FS: name}
	opts := fs.Options{}
	if verb == "scrub" && name == "ixt3" {
		// Checksums to detect the silent damage, replicas to heal it.
		opts = fs.Options{Mc: true, Mr: true}
	}

	vol, err := fs.MountVolume(fs.MountOpts{
		FS: name, Opts: opts, Blocks: volBlocks, Trace: traceOut != nil,
	})
	if err != nil {
		return r, err
	}
	d, tr := vol.Disk, vol.Tracer
	tr.Mark(fmt.Sprintf("ironfsck %s %s", verb, name))
	if r.Flipped, err = buildVolume(vol, damage); err != nil {
		return r, err
	}

	switch verb {
	case "check":
		img := d.Image()
		res, err := fs.Fsck(name, d, opts, fs.FsckConfig{Parallel: parallel})
		if err != nil {
			return r, err
		}
		c := &checkJSON{Workers: parallel, Problems: problemsJSON(res.Problems)}
		if parallel > 1 {
			if err := d.RestoreImage(img); err != nil {
				return r, err
			}
			serial, err := fs.Fsck(name, d, opts, fs.FsckConfig{Parallel: 1})
			if err != nil {
				return r, err
			}
			same := sameProblems(res.Problems, serial.Problems)
			c.SerialIdentical = &same
			if !same {
				r.Check = c
				return r, fmt.Errorf("parallel check (workers=%d) diverged from serial: %d vs %d problems",
					parallel, len(res.Problems), len(serial.Problems))
			}
		}
		r.Check = c
		r.ok = len(res.Problems) == 0
	case "repair":
		res, err := fs.Fsck(name, d, opts, fs.FsckConfig{Parallel: parallel, Repair: true})
		if err != nil {
			return r, err
		}
		rj := &repairJSON{Found: len(res.Problems), CleanAfter: res.CleanAfter}
		if res.Repair != nil {
			rj.Fixed = len(res.Repair.Fixed)
			rj.Unrecovered = len(res.Repair.Unrecovered)
		}
		r.Repair = rj
		r.ok = res.CleanAfter
	case "scrub":
		fsys, err := fs.Mount(name, d, opts)
		if err != nil {
			return r, fmt.Errorf("mount: %w", err)
		}
		defer func() {
			//iron:policy harness §3.2 the scrub verdict is already reported; unmounting the throwaway volume is best-effort
			_ = fsys.Unmount()
		}()
		sc, ok := fsys.(scrubber)
		if !ok {
			return r, fmt.Errorf("%s does not support scrubbing", name)
		}
		rep, err := sc.Scrub()
		if err != nil {
			return r, fmt.Errorf("scrub: %w", err)
		}
		sj := &scrubJSON{
			Scanned: rep.Scanned, LatentErrors: rep.LatentErrors,
			Corrupt: rep.Corrupt, Repaired: rep.Repaired,
			Unrecovered: rep.Unrecovered, Batches: rep.Batches,
		}
		if chk, ok := fs.AsRepairer(fsys); ok {
			probs, err := chk.CheckConsistency()
			if err != nil {
				return r, err
			}
			sj.ProblemsAfter = len(probs)
		}
		r.Scrub = sj
		r.ok = rep.Unrecovered == 0
	}

	if tr != nil {
		if err := trace.WriteNDJSON(traceOut, tr.Events()); err != nil {
			return r, fmt.Errorf("trace: %w", err)
		}
	}
	return r, nil
}

// problemsJSON renders a problem list for the JSON report.
func problemsJSON(probs []fsck.Problem) []problemJSON {
	out := make([]problemJSON, len(probs))
	for i, p := range probs {
		out[i] = problemJSON{Kind: p.Kind, Detail: p.Detail}
	}
	return out
}

// sameProblems compares two problem lists element-wise by rendered form.
func sameProblems(a, b []fsck.Problem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}
