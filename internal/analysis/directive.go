package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// Directive kinds.
const (
	dirPolicy      = "policy"
	dirLockOK      = "lockok"
	dirTxEntry     = "txentry"
	dirTxOK        = "txok"
	dirCommitPoint = "commitpoint"
	dirDegradeOK   = "degradeok"
	dirLockOrder   = "lockorder"
	dirLockOrderOK = "lockorderok"
	dirTraceOK     = "traceok"
)

// directiveOwner maps each directive kind to the pass that consumes it
// (for staleness gating when -pass selects a subset) and the analyzer
// label its hygiene findings carry.
var directiveOwner = map[string]struct{ pass, label string }{
	dirPolicy:      {"errprop", "policy"},
	dirLockOK:      {"lockcheck", "lockcheck"},
	dirTxEntry:     {"txcheck", "txcheck"},
	dirTxOK:        {"txcheck", "txcheck"},
	dirCommitPoint: {"degradecheck", "degradecheck"},
	dirDegradeOK:   {"degradecheck", "degradecheck"},
	dirLockOrder:   {"lockorder", "lockorder"},
	dirLockOrderOK: {"lockorder", "lockorder"},
	dirTraceOK:     {"tracecheck", "tracecheck"},
}

// staleMessage explains, per kind, what a stale directive failed to cover.
var staleMessage = map[string]string{
	dirPolicy:      "stale //iron:policy: no discarded device error on this line or the next",
	dirLockOK:      "stale //iron:lockok: no device I/O under a held mutex on this line, the next, or this function",
	dirTxEntry:     "stale //iron:txentry: not attached to a function declaration",
	dirTxOK:        "stale //iron:txok: no raw device write to waive on this line, the next, or this function",
	dirCommitPoint: "stale //iron:commitpoint: not attached to a function declaration",
	dirDegradeOK:   "stale //iron:degradeok: no degradecheck finding to waive on this line, the next, or this function",
	dirLockOrder:   "stale //iron:lockorder: not attached to a mutex that participates in the acquisition graph",
	dirLockOrderOK: "stale //iron:lockorderok: no lock-order finding to waive on this line, the next, or this function",
	dirTraceOK:     "stale //iron:traceok: no untraced phase function to waive here",
}

// Directive is one parsed //iron: comment.
//
// Grammar:
//
//	//iron:policy <fs> <paper-ref> <note...>
//	//iron:lockok <note...>
//	//iron:txentry <note...>
//	//iron:txok <note...>
//	//iron:commitpoint <note...>
//	//iron:degradeok <note...>
//	//iron:lockorder <rank> <note...>
//	//iron:lockorderok <note...>
//	//iron:traceok <note...>
//
// <fs> is one of Config.PolicyFS. <paper-ref> is a section reference like
// §5.3, optionally suffixed with the Figure-2 taxonomy level the drop
// reproduces, e.g. §5.3:RZero. <rank> is a non-negative integer: lower
// ranks must be acquired first. <note> is required free text — every
// suppression and annotation carries its one-line justification.
type Directive struct {
	Kind string
	FS   string // policy only
	Ref  string // policy only: §N[.N...][:Level]
	Rank int    // lockorder only
	Note string
	Pos  token.Position
	// Func names the function the directive sits in ("FS.Truncate" for
	// a method), empty outside any function.
	Func string
	// Used is set when the directive suppressed at least one finding or
	// annotated a live program element.
	Used bool
	// Err is the malformed-ness explanation, empty when well-formed.
	Err string
}

// refRE matches a paper reference with an optional taxonomy level.
var refRE = regexp.MustCompile(`^§[0-9]+(\.[0-9]+)*(:(D|R)[A-Za-z]+)?$`)

// taxonomy is the set of legal Figure-2 levels for the :Level suffix,
// mirroring the iron package's names.
var taxonomy = map[string]bool{
	"DZero": true, "DErrorCode": true, "DSanity": true, "DRedundancy": true,
	"RZero": true, "RPropagate": true, "RStop": true, "RGuess": true,
	"RRetry": true, "RRepair": true, "RRemap": true, "RRedundancy": true,
}

// directiveSet indexes every directive in the tree by file and line.
type directiveSet struct {
	all []*Directive
	// byLine maps filename -> line -> directive on that line.
	byLine map[string]map[int]*Directive
}

// collectDirectives scans all file comments for //iron: directives.
func collectDirectives(mod *module, cfg Config) *directiveSet {
	legalFS := map[string]bool{}
	for _, fs := range cfg.PolicyFS {
		legalFS[fs] = true
	}
	ds := &directiveSet{byLine: map[string]map[int]*Directive{}}
	for _, pi := range mod.pkgs {
		for _, f := range pi.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//iron:")
					if !ok {
						continue
					}
					d := parseDirective(rest)
					if d.Err == "" && d.Kind == dirPolicy && !legalFS[d.FS] {
						d.Err = fmt.Sprintf("unknown file system %q, want one of %s", d.FS, strings.Join(cfg.PolicyFS, ", "))
					}
					d.Pos = mod.fset.Position(c.Pos())
					d.Func = enclosingFunc(f, c.Pos())
					ds.add(d)
				}
			}
		}
	}
	return ds
}

// enclosingFunc names the top-level function of f that spans pos: the
// receiver's type name and the method's, or the function's alone.
func enclosingFunc(f *ast.File, pos token.Pos) string {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos > fd.End() {
			continue
		}
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			return fd.Name.Name
		}
		recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*"), "[")
		return recv + "." + fd.Name.Name
	}
	return ""
}

func (ds *directiveSet) add(d *Directive) {
	ds.all = append(ds.all, d)
	lines := ds.byLine[d.Pos.Filename]
	if lines == nil {
		lines = map[int]*Directive{}
		ds.byLine[d.Pos.Filename] = lines
	}
	lines[d.Pos.Line] = d
}

// noteDirective parses the common `//iron:<kind> <note...>` shape.
func noteDirective(kind string, fields []string) *Directive {
	d := &Directive{Kind: kind}
	if len(fields) < 2 {
		d.Err = fmt.Sprintf("want //iron:%s <note...> (the note is the justification, it is required)", kind)
		return d
	}
	d.Note = strings.Join(fields[1:], " ")
	return d
}

// parseDirective parses the text after "//iron:". Unknown directive names
// are hard errors: a typo in a suppression must fail the build, not
// silently leave the finding unsuppressed elsewhere or, worse, suppress
// nothing while looking intentional.
func parseDirective(rest string) *Directive {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return &Directive{Kind: "?", Err: "missing directive name"}
	}
	switch fields[0] {
	case dirPolicy:
		d := &Directive{Kind: dirPolicy}
		if len(fields) < 4 {
			d.Err = "want //iron:policy <fs> <paper-ref> <note...>"
			return d
		}
		d.FS, d.Ref = fields[1], fields[2]
		d.Note = strings.Join(fields[3:], " ")
		if !refRE.MatchString(d.Ref) {
			d.Err = fmt.Sprintf("bad paper-ref %q, want §N[.N][:Level]", d.Ref)
			return d
		}
		if _, level, ok := strings.Cut(d.Ref, ":"); ok && !taxonomy[level] {
			d.Err = fmt.Sprintf("unknown Figure-2 taxonomy level %q", level)
		}
		return d
	case dirLockOrder:
		d := &Directive{Kind: dirLockOrder}
		if len(fields) < 3 {
			d.Err = "want //iron:lockorder <rank> <note...>"
			return d
		}
		rank, err := strconv.Atoi(fields[1])
		if err != nil || rank < 0 {
			d.Err = fmt.Sprintf("bad rank %q, want a non-negative integer (lower acquires first)", fields[1])
			return d
		}
		d.Rank = rank
		d.Note = strings.Join(fields[2:], " ")
		return d
	case dirLockOK, dirTxEntry, dirTxOK, dirCommitPoint, dirDegradeOK, dirLockOrderOK, dirTraceOK:
		return noteDirective(fields[0], fields)
	default:
		return &Directive{Kind: fields[0], Err: fmt.Sprintf("unknown directive iron:%s (known: %s)", fields[0], knownDirectives())}
	}
}

// knownDirectives renders the legal vocabulary for the unknown-name error.
func knownDirectives() string {
	return strings.Join([]string{
		dirPolicy, dirLockOK, dirTxEntry, dirTxOK, dirCommitPoint,
		dirDegradeOK, dirLockOrder, dirLockOrderOK, dirTraceOK,
	}, ", ")
}

// find locates a well-formed directive of the given kind covering pos: on
// pos's own line, or anywhere in the contiguous run of directive lines
// directly above it. The contiguity rule lets annotations of different
// kinds stack above one declaration (//iron:lockok over //iron:txentry
// over func) without breaking each other's attachment.
func (ds *directiveSet) find(kind string, pos token.Position) *Directive {
	lines := ds.byLine[pos.Filename]
	if lines == nil {
		return nil
	}
	if d, ok := lines[pos.Line]; ok && d.Kind == kind && d.Err == "" {
		return d
	}
	for ln := pos.Line - 1; ; ln-- {
		d, ok := lines[ln]
		if !ok {
			return nil
		}
		if d.Kind == kind && d.Err == "" {
			return d
		}
	}
}

// suppress looks for a well-formed directive of the given kind covering
// the finding's position, marks it used, and reports whether the finding
// is covered.
func (ds *directiveSet) suppress(kind string, pos token.Position) bool {
	if d := ds.find(kind, pos); d != nil {
		d.Used = true
		return true
	}
	return false
}

// suppressFunc is suppress for function-granular directives: the directive
// may sit on, or directly above, the func declaration line.
func (ds *directiveSet) suppressFunc(mod *module, kind string, fd *ast.FuncDecl) bool {
	pos := mod.fset.Position(fd.Pos())
	return ds.suppress(kind, pos)
}

// lookup returns the well-formed directive of the given kind covering
// pos, without marking it used.
func (ds *directiveSet) lookup(kind string, pos token.Position) *Directive {
	return ds.find(kind, pos)
}

// validate reports malformed, unknown, and stale directives. It must run
// after the passes, which mark directives used. Staleness is only judged
// for directive kinds whose owning pass ran; malformed and unknown
// directives are always hard errors.
func (ds *directiveSet) validate(ran map[string]bool) []Finding {
	var out []Finding
	for _, d := range ds.all {
		owner, known := directiveOwner[d.Kind]
		switch {
		case !known:
			out = append(out, Finding{Pos: d.Pos, Analyzer: "directive", Severity: SevError,
				Message: "malformed directive: " + d.Err})
		case d.Err != "":
			out = append(out, Finding{Pos: d.Pos, Analyzer: owner.label, Severity: SevError,
				Message: "malformed directive: " + d.Err})
		case !d.Used && ran[owner.pass]:
			out = append(out, Finding{Pos: d.Pos, Analyzer: owner.label, Severity: SevWarn,
				Message: staleMessage[d.Kind]})
		}
	}
	return out
}
