package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// corpusConfig retargets the analyzers at the miniature devkit package in
// testdata/src and scopes each pass to its corpus package.
func corpusConfig() Config {
	return Config{
		DevicePkg:      "devkit",
		DeviceIface:    "Device",
		SeedTypes:      []string{"Disk"},
		ExcludeMethods: []string{"Close"},
		IOMethods:      []string{"ReadBlock", "WriteBlock", "WriteBatch"},
		PolicyFS:       []string{"ext3", "harness"},

		WriteMethods: []string{"WriteBlock", "WriteBatch"},
		TxPkgs:       []string{"txcases"},

		HealthPkg:      "devkit",
		HealthType:     "Health",
		DegradeMethods: []string{"Degrade"},
		SuccessFields:  []string{"Fixed", "Repaired"},

		LockPkgs: []string{"lockordercases"},

		TracePkg: "tracekit",
		EmitCalls: []EmitCall{
			{"tracekit", "Tracer", []string{"Phase", "IO"}},
			{"tracekit", "Recorder", []string{"Detect", "Recover"}},
			{"enginekit", "Engine", []string{"Replayed"}},
		},
		PhaseHints: []string{
			"commit", "checkpoint", "replay", "scrub", "repair",
			"dispatch", "drain", "coalesce",
		},
	}
}

// degradeConfig targets the separate testdata/degradecheck tree that pins
// the pre-fix shapes of the PR4/PR5 bugs.
func degradeConfig() Config {
	cfg := corpusConfig()
	cfg.TxPkgs = nil
	cfg.LockPkgs = nil
	cfg.TracePkg = ""
	return cfg
}

var corpus struct {
	once sync.Once
	res  *Result
	err  error
}

// corpusResult runs the full analysis over testdata/src once per test
// binary.
func corpusResult(t *testing.T) *Result {
	t.Helper()
	corpus.once.Do(func() {
		corpus.res, corpus.err = Run(filepath.Join("testdata", "src"), corpusConfig())
	})
	if corpus.err != nil {
		t.Fatalf("loading corpus: %v", corpus.err)
	}
	return corpus.res
}

// golden compares got against testdata/<name>.golden, rewriting the file
// under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("mismatch with %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// findingsFor renders the corpus findings of one analyzer, one per line,
// with corpus-root-relative paths.
func findingsFor(t *testing.T, analyzer string) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range corpusResult(t).Findings {
		if f.Analyzer != analyzer {
			continue
		}
		rel := f
		if r, err := filepath.Rel(root, f.Pos.Filename); err == nil {
			rel.Pos.Filename = filepath.ToSlash(r)
		}
		fmt.Fprintln(&b, rel)
	}
	return b.String()
}

func TestErrpropGolden(t *testing.T)    { golden(t, "errprop", findingsFor(t, "errprop")) }
func TestPolicyGolden(t *testing.T)     { golden(t, "policy", findingsFor(t, "policy")) }
func TestLockcheckGolden(t *testing.T)  { golden(t, "lockcheck", findingsFor(t, "lockcheck")) }
func TestTxcheckGolden(t *testing.T)    { golden(t, "txcheck", findingsFor(t, "txcheck")) }
func TestLockorderGolden(t *testing.T)  { golden(t, "lockorder", findingsFor(t, "lockorder")) }
func TestTracecheckGolden(t *testing.T) { golden(t, "tracecheck", findingsFor(t, "tracecheck")) }
func TestDirectiveGolden(t *testing.T)  { golden(t, "directive", findingsFor(t, "directive")) }

// TestDegradecheckFixtures runs degradecheck alone over the separate
// testdata/degradecheck tree, whose prefix package pins the pre-fix shape
// of each bug PRs 4-5 fixed by hand — one file per bug. Every bug file
// must produce at least one finding (the analyzer exists so those shapes
// cannot come back), the post-fix shapes in fixed.go must produce none,
// and the exact output is pinned by the golden file.
func TestDegradecheckFixtures(t *testing.T) {
	root := filepath.Join("testdata", "degradecheck")
	res, err := RunPasses(root, degradeConfig(), []string{"degradecheck"})
	if err != nil {
		t.Fatalf("loading degradecheck corpus: %v", err)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	perFile := map[string]int{}
	var b strings.Builder
	for _, f := range res.Findings {
		rel := f
		if r, err := filepath.Rel(abs, f.Pos.Filename); err == nil {
			rel.Pos.Filename = filepath.ToSlash(r)
		}
		perFile[filepath.Base(rel.Pos.Filename)]++
		fmt.Fprintln(&b, rel)
	}
	for _, bug := range []string{
		"checkpoint_live_payload.go",
		"barrier_no_abort.go",
		"commit_under_go.go",
		"scrub_counts_failed_writes.go",
		"cksum_verify_gap.go",
		"repair_fixed_before_commit.go",
		"driver_fixed_before_reconcile.go",
		"namespace_ok_before_commit.go",
	} {
		if perFile[bug] == 0 {
			t.Errorf("pre-fix bug shape in %s produced no degradecheck finding", bug)
		}
	}
	if perFile["fixed.go"] != 0 {
		t.Errorf("post-fix shapes in fixed.go produced %d findings, want 0", perFile["fixed.go"])
	}
	golden(t, "degradecheck", b.String())
}

// TestUnknownDirectiveHardError pins the hard-error contract: a typo'd
// //iron: name is a SevError under the "directive" analyzer, reported even
// when no pass runs, so a bad suppression can never silently do nothing.
func TestUnknownDirectiveHardError(t *testing.T) {
	d := parseDirective("frobnicate no such directive")
	if d.Err == "" {
		t.Fatal("unknown directive parsed without error")
	}
	ds := &directiveSet{byLine: map[string]map[int]*Directive{}}
	ds.add(d)
	findings := ds.validate(map[string]bool{}) // no passes ran
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	if f := findings[0]; f.Analyzer != "directive" || f.Severity != SevError {
		t.Errorf("got analyzer %q severity %q, want directive/error: %s", f.Analyzer, f.Severity, f)
	}
	if !strings.Contains(findings[0].Message, "unknown directive iron:frobnicate") {
		t.Errorf("message does not name the unknown directive: %s", findings[0])
	}
}

// TestPassSelection pins the -pass plumbing: an unknown pass name is an
// error, and a subset run skips staleness validation for directive kinds
// whose owning pass did not run.
func TestPassSelection(t *testing.T) {
	if _, err := selectPasses([]string{"nosuchpass"}); err == nil {
		t.Error("unknown pass name accepted")
	}
	res, err := RunPasses(filepath.Join("testdata", "src"), corpusConfig(), []string{"errprop"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		switch f.Analyzer {
		case "errprop", "policy", "directive":
		default:
			t.Errorf("errprop-only run produced %s finding: %s", f.Analyzer, f)
		}
	}
}

// TestPoliciesTable pins the -policies documentation table for the corpus:
// only well-formed, non-stale directives appear, each named by the
// function it sits in.
func TestPoliciesTable(t *testing.T) {
	var b strings.Builder
	for _, p := range corpusResult(t).Policies {
		fmt.Fprintf(&b, "%s %s %s %s\n", p.FS, p.Ref, p.Func, p.Note)
	}
	golden(t, "policies", b.String())
}

// TestModuleClean is the self-check: ironvet must come up empty on the live
// module, and the policy table must document the reproduced paper bugs.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short mode")
	}
	res, err := Run(filepath.Join("..", ".."), DefaultConfig())
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, f := range res.Findings {
		t.Errorf("unexpected finding: %s", f)
	}
	if len(res.Policies) == 0 {
		t.Error("no //iron:policy directives found; the deliberate-drop whitelist should not be empty")
	}
	// The //iron:txentry roots are every way a device write may bypass the
	// running transaction, so a new one shows up here as a golden diff.
	golden(t, "txentry", txentryRoots(t, filepath.Join("..", "..")))
}

// txentryRoots lists the functions the live module annotates
// //iron:txentry, one "package function" line each, in source order. Test
// files, the testdata corpus and nested modules are skipped, as ironvet
// skips them.
func txentryRoots(t *testing.T, root string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(root, func(path string, d iofs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkg, _ := filepath.Rel(root, filepath.Dir(path))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, "//iron:txentry ") {
					name := fd.Name.Name
					if fd.Recv != nil {
						name = "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + name
					}
					fmt.Fprintf(&b, "%s %s\n", filepath.ToSlash(pkg), name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}
