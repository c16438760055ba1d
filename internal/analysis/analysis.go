// Package analysis implements ironvet, the repository's multi-pass
// crash-consistency static analyzer suite.
//
// The IRON paper's central observation (§5) is that commodity file systems
// silently drop disk error returns. This repository *reproduces* those
// buggy policies on purpose, which means a conventional errcheck-style
// lint cannot distinguish a faithful "ext3 ignores write errors" emulation
// from an accidental bug introduced while growing the code. Worse, three
// consecutive PRs here fixed the same hand-found bug shape — success
// reported before a commit/barrier error was checked — so the invariants
// those fixes established are machine-enforced by a suite of passes
// sharing one loaded-package / call-graph / taint substrate:
//
//   - errprop: flags any discarded error whose callee (transitively)
//     returns an error originating from the block-device layer. Deliberate
//     paper-bug drops carry //iron:policy directives.
//
//   - lockcheck: flags sync.Mutex/RWMutex held across direct device I/O
//     in non-test code. Waivers carry //iron:lockok.
//
//   - txcheck: every raw device write inside the file-system packages must
//     happen inside the journal/transaction machinery, whose entry points
//     are annotated //iron:txentry. A direct write — or a call to a
//     function that performs one — from outside that closure is a
//     violation unless waived with //iron:txok.
//
//   - degradecheck: a function must not record success (Fixed/Repaired
//     counters, a nil error return) while the error of a journal commit,
//     barrier, or repair write is still unchecked, or when the commit only
//     happens later; and a checked commit-failure path must degrade
//     (reach vfs.Health.Degrade) or propagate the error. Commit machinery
//     is annotated //iron:commitpoint; waivers are //iron:degradeok.
//
//   - lockorder: builds the static lock-acquisition graph across the
//     concurrency-bearing packages, reports cycles, and enforces the
//     sanctioned acquisition order documented by //iron:lockorder
//     directives on the lock declarations. Waivers are //iron:lockorderok.
//
//   - tracecheck: a journal/dispatch/repair phase function in a traced
//     subsystem must (transitively, within its package) emit a trace
//     event, keeping the observability layer complete as code grows.
//     Waivers are //iron:traceok.
//
// Everything is built on the standard library only (go/ast, go/parser,
// go/types); there is no x/tools dependency, matching go.mod.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Severity levels for findings.
const (
	SevError = "error"
	SevWarn  = "warn"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the pass that produced the finding ("errprop",
	// "lockcheck", "txcheck", "degradecheck", "lockorder", "tracecheck",
	// "policy" for policy-directive hygiene, "directive" for unknown
	// directives).
	Analyzer string
	// Severity is SevError or SevWarn. Both gate the self-check; the
	// level is advisory structure for -json consumers.
	Severity string
	// Message describes the problem.
	Message string
}

// String formats the finding like a compiler diagnostic.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass is one analyzer in the suite. Passes share the substrate built
// once per Run: loaded packages, directives, device taint, call graph.
type Pass struct {
	// Name selects the pass on the ironvet -pass flag and labels its
	// findings.
	Name string
	// Doc is a one-line description for usage output.
	Doc string
	// run executes the pass.
	run func(*passContext) []Finding
}

// Passes returns the full suite in canonical execution order.
func Passes() []Pass {
	return []Pass{
		{Name: "errprop", Doc: "discarded device-originated errors", run: runErrprop},
		{Name: "lockcheck", Doc: "mutex held across direct device I/O", run: runLockcheck},
		{Name: "txcheck", Doc: "raw metadata writes outside the journal/transaction machinery", run: runTxcheck},
		{Name: "degradecheck", Doc: "success recorded before commit/repair errors are known, missing degrade on commit failure", run: runDegradecheck},
		{Name: "lockorder", Doc: "lock-acquisition cycles and sanctioned-order violations", run: runLockorder},
		{Name: "tracecheck", Doc: "journal/dispatch/repair phases that emit no trace event", run: runTracecheck},
	}
}

// PassNames returns the selectable pass names in canonical order.
func PassNames() []string {
	var names []string
	for _, p := range Passes() {
		names = append(names, p.Name)
	}
	return names
}

// Config parameterizes the suite so that the test corpus can run it
// against miniature stand-in packages instead of the real ones.
type Config struct {
	// DevicePkg is the import path of the block-device package.
	DevicePkg string
	// DeviceIface is the name of the device interface inside DevicePkg;
	// its error-returning methods seed the taint computation and define
	// the I/O calls lockcheck guards.
	DeviceIface string
	// SeedTypes are named types inside DevicePkg whose error-returning
	// methods are also error sources (the concrete disk, including its
	// raw debug port).
	SeedTypes []string
	// ExcludeMethods are method names never treated as error sources
	// (Close: "defer dev.Close()" is conventional and its error carries
	// no I/O payload the paper cares about).
	ExcludeMethods []string
	// IOMethods are the device methods lockcheck refuses to see under a
	// held mutex.
	IOMethods []string
	// PolicyFS lists the legal <fs> names in //iron:policy directives.
	PolicyFS []string

	// WriteMethods are the device methods that mutate the disk; txcheck
	// polices their call sites and degradecheck treats them as repair
	// writes inside success-reporting functions.
	WriteMethods []string
	// TxPkgs are the import-path prefixes whose raw device writes
	// txcheck polices (the file-system packages: everything else — mkfs
	// harnesses, fault layers — writes raw by design).
	TxPkgs []string

	// HealthPkg/HealthType/DegradeMethods identify the degrade sink:
	// a function reaches degrade when it (transitively) calls one of
	// these methods on the health type.
	HealthPkg      string
	HealthType     string
	DegradeMethods []string
	// SuccessFields are struct-field or variable names whose assignment
	// or increment records repair/recovery success (fsck.Report.Fixed,
	// ScrubReport.Repaired).
	SuccessFields []string

	// LockPkgs are the import-path prefixes whose mutexes participate in
	// the lockorder acquisition graph.
	LockPkgs []string

	// TracePkg is the import path of the tracing package; a package that
	// imports it is a traced subsystem.
	TracePkg string
	// TracerType is the tracer's type name inside TracePkg.
	TracerType string
	// TraceEmitMethods are the TracerType methods that record an event.
	TraceEmitMethods []string
	// RecorderPkg/RecorderType/RecorderMethods identify the iron.Recorder
	// detect/recover bridge, whose calls also count as trace emission
	// (the tracer mirrors the recorder via BridgeRecorder).
	RecorderPkg     string
	RecorderType    string
	RecorderMethods []string
	// StatPkg/StatTypes/StatEmitMethods identify the live-metrics layer:
	// recording into a metric handle (counter increment, histogram
	// observation) counts as observable emission for tracecheck, so a
	// phase that shows up in metrics is not flagged as silent.
	StatPkg         string
	StatTypes       []string
	StatEmitMethods []string
	// PhaseHints are lowercase substrings of function names that mark a
	// function as a journal/dispatch/repair phase tracecheck audits.
	PhaseHints []string
}

// DefaultConfig returns the configuration for this module.
func DefaultConfig() Config {
	return Config{
		DevicePkg:      "ironfs/internal/disk",
		DeviceIface:    "Device",
		SeedTypes:      []string{"Disk"},
		ExcludeMethods: []string{"Close"},
		IOMethods:      []string{"ReadBlock", "WriteBlock", "WriteBatch"},
		PolicyFS:       []string{"ext3", "ixt3", "jfs", "reiser", "ntfs", "harness"},

		WriteMethods: []string{"WriteBlock", "WriteBatch"},
		TxPkgs:       []string{"ironfs/internal/fs"},

		HealthPkg:      "ironfs/internal/vfs",
		HealthType:     "Health",
		DegradeMethods: []string{"Degrade"},
		SuccessFields:  []string{"Fixed", "Repaired"},

		LockPkgs: []string{"ironfs/internal/fs", "ironfs/internal/faultinject", "ironfs/internal/journal", "ironfs/internal/sched", "ironfs/internal/bcache", "ironfs/internal/fsck", "ironfs/internal/namei", "ironfs/internal/serve"},

		TracePkg:         "ironfs/internal/trace",
		TracerType:       "Tracer",
		TraceEmitMethods: []string{"IO", "Batch", "Barrier", "FaultFired", "CacheWrite", "Sched", "Buffer", "Phase", "Mark"},
		RecorderPkg:      "ironfs/internal/iron",
		RecorderType:     "Recorder",
		RecorderMethods:  []string{"Detect", "Recover"},
		StatPkg:          "ironfs/internal/stat",
		StatTypes:        []string{"Counter", "Gauge", "Histogram"},
		StatEmitMethods:  []string{"Inc", "Add", "Set", "Observe"},
		PhaseHints: []string{
			"commit", "checkpoint", "replay", "scrub", "repair",
			"dispatch", "drain", "coalesce",
		},
	}
}

// Result is a full ironvet run over one source tree.
type Result struct {
	// Findings are the surviving diagnostics, sorted by position.
	Findings []Finding
	// Policies are the successfully parsed and matched //iron:policy
	// directives, for the -policies documentation table.
	Policies []*Directive
}

// Run loads the source tree rooted at root (a module root containing
// go.mod, or a bare src tree for the test corpus) and applies every pass.
// Load or type errors are returned as err; analyzer diagnostics land in
// Result.Findings.
func Run(root string, cfg Config) (*Result, error) {
	return RunPasses(root, cfg, nil)
}

// RunPasses is Run restricted to the named passes (nil or empty means
// all). Directive-staleness validation only applies to directive kinds
// whose owning pass ran; malformed and unknown directives are always
// reported.
func RunPasses(root string, cfg Config, passNames []string) (*Result, error) {
	mod, err := load(root)
	if err != nil {
		return nil, err
	}
	return runOn(mod, cfg, passNames)
}

func runOn(mod *module, cfg Config, passNames []string) (*Result, error) {
	selected, err := selectPasses(passNames)
	if err != nil {
		return nil, err
	}
	dirs := collectDirectives(mod, cfg)
	taint, err := computeTaint(mod, cfg)
	if err != nil {
		return nil, err
	}
	ctx := newPassContext(mod, cfg, dirs, taint)

	var findings []Finding
	ran := map[string]bool{}
	for _, p := range selected {
		findings = append(findings, p.run(ctx)...)
		ran[p.Name] = true
	}
	findings = append(findings, dirs.validate(ran)...)
	sortFindings(findings)

	var pols []*Directive
	for _, d := range dirs.all {
		// Stale directives are findings, not documentation.
		if d.Kind == dirPolicy && d.Err == "" && d.Used {
			pols = append(pols, d)
		}
	}
	sort.Slice(pols, func(i, j int) bool {
		a, b := pols[i].Pos, pols[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return &Result{Findings: findings, Policies: pols}, nil
}

// selectPasses resolves the requested pass names, defaulting to the whole
// suite.
func selectPasses(names []string) ([]Pass, error) {
	all := Passes()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]Pass{}
	for _, p := range all {
		byName[p.Name] = p
	}
	var out []Pass
	seen := map[string]bool{}
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown pass %q (have %v)", n, PassNames())
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, p)
	}
	return out, nil
}
