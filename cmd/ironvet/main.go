// Command ironvet is the repository's crash-consistency static analyzer
// suite.
//
// Usage:
//
//	go run ./cmd/ironvet ./...               # run every pass, exit 1 on findings
//	go run ./cmd/ironvet -pass txcheck ./... # run a subset of passes
//	go run ./cmd/ironvet -json ./...         # machine-readable findings
//	go run ./cmd/ironvet -passes             # list the passes
//	go run ./cmd/ironvet -policies           # print the //iron:policy table
//
// ironvet walks every non-test package of the module and runs the pass
// suite described in docs/ANALYSIS.md: errprop (discarded device errors),
// lockcheck (mutex held across device I/O), txcheck (raw metadata writes
// outside the journal machinery), degradecheck (success reported before
// commit/repair errors are known), lockorder (lock-acquisition cycles and
// rank inversions), and tracecheck (silent journal/dispatch/repair
// phases). Package patterns are accepted for familiarity but the whole
// module is always analyzed; the analysis is cheap.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ironfs/internal/analysis"
)

func main() {
	policies := flag.Bool("policies", false, "print the //iron:policy documentation table and exit")
	listPasses := flag.Bool("passes", false, "list the available passes and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	passFlag := flag.String("pass", "", "comma-separated pass subset to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ironvet [-json] [-pass p1,p2] [-passes] [-policies] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listPasses {
		for _, p := range analysis.Passes() {
			fmt.Printf("%-12s %s\n", p.Name, p.Doc)
		}
		return
	}

	var passNames []string
	if *passFlag != "" {
		for _, n := range strings.Split(*passFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				passNames = append(passNames, n)
			}
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ironvet:", err)
		os.Exit(2)
	}
	res, err := analysis.RunPasses(root, analysis.DefaultConfig(), passNames)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ironvet:", err)
		os.Exit(2)
	}

	if *policies {
		printPolicies(res, root)
		return
	}

	if *jsonOut {
		printJSON(res, root)
	} else {
		for _, f := range res.Findings {
			rel := f
			if r, err := filepath.Rel(root, f.Pos.Filename); err == nil {
				rel.Pos.Filename = r
			}
			fmt.Println(rel)
		}
	}
	if n := len(res.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "ironvet: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// jsonFinding is the stable machine-readable shape of one finding; CI
// archives this output, so field names are a compatibility surface.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Pass     string `json:"pass"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// printJSON renders the findings as a JSON array (never null: an empty
// run prints []), with module-relative slash-separated paths so output is
// byte-identical across machines.
func printJSON(res *analysis.Result, root string) {
	out := make([]jsonFinding, 0, len(res.Findings))
	for _, f := range res.Findings {
		file := f.Pos.Filename
		if r, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(r)
		}
		out = append(out, jsonFinding{
			File:     file,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Pass:     f.Analyzer,
			Severity: f.Severity,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "ironvet:", err)
		os.Exit(2)
	}
}

// moduleRoot walks upward from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// printPolicies renders the machine-readable annotation table: every
// deliberate error drop, which file system and paper section it
// reproduces, and where it lives — its file and enclosing function, so
// the table moves only when a drop does, not when lines above it do.
func printPolicies(res *analysis.Result, root string) {
	locs := make([]string, len(res.Policies))
	width := len("LOCATION")
	for i, p := range res.Policies {
		loc := p.Pos.Filename
		if r, err := filepath.Rel(root, loc); err == nil {
			loc = r
		}
		if p.Func != "" {
			loc += ":" + p.Func
		}
		locs[i], width = loc, max(width, len(loc))
	}
	fmt.Printf("%-8s %-14s %-*s %s\n", "FS", "PAPER-REF", width, "LOCATION", "NOTE")
	for i, p := range res.Policies {
		fmt.Printf("%-8s %-14s %-*s %s\n", p.FS, p.Ref, width, locs[i], p.Note)
	}
}
