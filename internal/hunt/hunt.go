package hunt

import (
	"errors"
	"fmt"
	"sort"

	"ironfs/internal/faultinject"
	"ironfs/internal/fstest"
	"ironfs/internal/vfs"
)

// Crash-state verdicts. The two loss verdicts are the hunter's reason to
// exist: the expected-state oracle found a broken durability guarantee.
// loss-silent — the worst class — means the file system never noticed.
const (
	VerdictOK             = "ok"
	VerdictDetected       = "detected"
	VerdictRefused        = "refused"
	VerdictStructDetected = "struct-detected"
	VerdictStructSilent   = "struct-silent"
	VerdictLossDetected   = "loss-detected"
	VerdictLossSilent     = "loss-silent"
)

// Crash-point classes: "seal" crashes at an epoch's final write with the
// open window's subsets enumerated (mid-epoch crashes are its prefix
// masks); "return" crashes just after a persistence op returned, with the
// sealed-epoch count pinned — on a correct FS the pending set is empty,
// anything else is claimed-durable-but-volatile; "tail" is the full image
// after the whole workload.
const (
	ClassSeal   = "seal"
	ClassReturn = "return"
	ClassTail   = "tail"
)

// Config bounds one hunt run.
type Config struct {
	// Bounds bound the generator (zero = defaults: length <= 3, full
	// enumeration).
	Bounds Bounds
	// Policy is the crash-state enumeration policy (zero = hunt
	// defaults, leaner than the explorer's: the state count multiplies
	// across hundreds of sequences).
	Policy faultinject.EnumPolicy
	// Workers partitions sequences over goroutines (default GOMAXPROCS,
	// max 8; see fstest.Spread).
	Workers int
	// DiskBlocks sizes the device (default: target override or 1024).
	DiskBlocks int64
}

func (c Config) withDefaults() Config {
	c.Bounds = c.Bounds.withDefaults()
	if c.Policy.Window == 0 {
		c.Policy.Window = 16
	}
	if c.Policy.MaxExhaustive == 0 {
		c.Policy.MaxExhaustive = 3
	}
	if c.Policy.Samples == 0 {
		c.Policy.Samples = 6
	}
	if c.Policy.Seed == 0 {
		c.Policy.Seed = c.Bounds.Seed
	}
	if !c.Policy.Torn {
		c.Policy.Torn = true
	}
	if c.DiskBlocks == 0 {
		c.DiskBlocks = 1024
	}
	return c
}

// Bug is one deduplicated, minimized finding.
type Bug struct {
	// Fingerprint is "shape|class|symptom|silence" — the dedup key.
	Fingerprint string `json:"fingerprint"`
	Target      string `json:"target"`
	// Shape is the op-kind signature of the *original* sequence that
	// first hit the fingerprint.
	Shape string `json:"shape"`
	// Class is the crash-point class, Symptom the violation kind.
	Class    string `json:"class"`
	Symptom  string `json:"symptom"`
	Detected bool   `json:"detected"`
	// States counts crash states matching this fingerprint in the run.
	States int `json:"states"`
	// Repro replays the minimized shortest reproducing sequence.
	Repro Repro `json:"repro"`
	// Detail is the first matching violation, rendered.
	Detail string `json:"detail"`
}

// TargetResult is one target's hunt outcome.
type TargetResult struct {
	Target         string `json:"target"`
	Seqs           int    `json:"seqs"`
	Points         int    `json:"points"`
	States         int    `json:"states"`
	OK             int    `json:"ok"`
	Detected       int    `json:"detected"`
	Refused        int    `json:"refused"`
	StructDetected int    `json:"struct_detected"`
	StructSilent   int    `json:"struct_silent"`
	LossDetected   int    `json:"loss_detected"`
	LossSilent     int    `json:"loss_silent"`
	Bugs           []Bug  `json:"bugs"`
}

// String renders one matrix row.
func (r *TargetResult) String() string {
	return fmt.Sprintf("%-14s seqs=%-4d points=%-5d states=%-6d ok=%-6d detected=%-5d refused=%-4d struct=%d/%d loss=%d/%d bugs=%d",
		r.Target, r.Seqs, r.Points, r.States, r.OK, r.Detected, r.Refused,
		r.StructDetected, r.StructSilent, r.LossDetected, r.LossSilent, len(r.Bugs))
}

// plannedState is one crash state with its oracle coordinates.
type plannedState struct {
	st     faultinject.CrashState
	class  string
	snap   int // required snapshot index, -1 none
	lastOp int // last op possibly applied
}

// planStates enumerates the crash plan for one replayed sequence: every
// epoch seal, every persistence-op return, and the full-image tail.
func planStates(run *fstest.SeqRun, policy faultinject.EnumPolicy) (states []plannedState, points int) {
	log, o := run.Log, run.Oracle
	for _, pt := range faultinject.EpochSeals(log) {
		snap, lastOp := o.RequiredSnap(pt), o.LastStarted(pt)
		for _, st := range faultinject.EnumerateCrashStates(log, pt, policy) {
			states = append(states, plannedState{st: st, class: ClassSeal, snap: snap, lastOp: lastOp})
		}
		points++
	}
	for si, opIdx := range o.Snapshots() {
		if opIdx < 0 {
			continue // baseline snapshot: no return point of its own
		}
		_, end, sealed := o.Span(opIdx)
		if end == 0 {
			continue // persistence op before any write: nothing to check
		}
		pt := end - 1
		lastOp := o.LastStarted(pt)
		for _, st := range faultinject.EnumerateCrashStatesSealed(log, pt, sealed, policy) {
			states = append(states, plannedState{st: st, class: ClassReturn, snap: si, lastOp: lastOp})
		}
		points++
	}
	// Tail: everything durable (one state), so even a final-op fsync's
	// guarantee is checked against a full image.
	pt := len(log) - 1
	for _, st := range faultinject.EnumerateCrashStatesSealed(log, pt, log[pt].Epoch+1, policy) {
		states = append(states, plannedState{st: st, class: ClassTail, snap: len(o.Snapshots()) - 1, lastOp: len(run.Seq) - 1})
	}
	points++
	return states, points
}

// gradedState is one crash state's verdict.
type gradedState struct {
	ps      plannedState
	verdict string
	viol    *fstest.Violation // first oracle violation, if any
}

// gradeState materializes one crash state, remounts, and grades it with
// the expected-state oracle first and the structural oracle second.
func gradeState(run *fstest.SeqRun, ps plannedState, policy faultinject.EnumPolicy) (gradedState, error) {
	g := gradedState{ps: ps}
	var viols []fstest.Violation
	out, err := run.Grade(ps.st, policy, "", func(fsys vfs.FileSystem) {
		viols = run.Oracle.GradeAt(fsys, ps.snap, ps.lastOp)
	})
	if err != nil {
		return g, err
	}
	// pick names the verdict by whether the file system flagged anything.
	pick := func(detected, silent string) string {
		if out.Detected {
			return detected
		}
		return silent
	}
	switch {
	case out.MountErr != nil:
		g.verdict = VerdictRefused
	case len(viols) > 0:
		g.viol = &viols[0]
		g.verdict = pick(VerdictLossDetected, VerdictLossSilent)
	case out.CheckErr == nil:
		g.verdict = pick(VerdictDetected, VerdictOK)
	case errors.Is(out.CheckErr, vfs.ErrInconsistent):
		g.verdict = pick(VerdictStructDetected, VerdictStructSilent)
	default:
		// The structural oracle's own scan hit a detected failure.
		g.verdict = VerdictRefused
	}
	return g, nil
}

// huntSequence replays one sequence and grades its whole crash plan.
func huntSequence(t fstest.ExploreTarget, blocks int64, seq fstest.Sequence, policy faultinject.EnumPolicy) ([]gradedState, int, error) {
	run, err := fstest.RecordSeq(t, blocks, seq)
	if err != nil || run == nil {
		return nil, 0, err
	}
	states, points := planStates(run, policy)
	out := make([]gradedState, 0, len(states))
	for _, ps := range states {
		g, err := gradeState(run, ps, policy)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, g)
	}
	return out, points, nil
}

// lossVerdict reports whether v is an oracle-violation verdict.
func lossVerdict(v string) bool {
	return v == VerdictLossSilent || v == VerdictLossDetected
}

// Run hunts one target: generate sequences, replay each, grade every
// crash state, deduplicate violations by (shape, class, symptom, silence)
// fingerprint, and minimize each finding to its shortest reproducing
// sequence. Deterministic for a fixed config.
func Run(t fstest.ExploreTarget, cfg Config) (*TargetResult, error) {
	cfg = cfg.withDefaults()
	blocks := cfg.DiskBlocks
	if t.DiskBlocks != 0 {
		blocks = t.DiskBlocks
	}
	seqs := Sequences(cfg.Bounds)

	type seqResult struct {
		graded []gradedState
		points int
	}
	results := make([]seqResult, len(seqs))
	err := fstest.Spread(len(seqs), cfg.Workers, func(i int) error {
		g, pts, err := huntSequence(t, blocks, seqs[i], cfg.Policy)
		results[i] = seqResult{graded: g, points: pts}
		return err
	})
	if err != nil {
		return nil, err
	}

	res := &TargetResult{Target: t.Name, Seqs: len(seqs), Bugs: []Bug{}}
	type protoBug struct {
		bug   Bug
		seq   fstest.Sequence
		state plannedState
	}
	protos := map[string]*protoBug{}
	for i, sr := range results {
		res.Points += sr.points
		res.States += len(sr.graded)
		for _, g := range sr.graded {
			switch g.verdict {
			case VerdictOK:
				res.OK++
			case VerdictDetected:
				res.Detected++
			case VerdictRefused:
				res.Refused++
			case VerdictStructDetected:
				res.StructDetected++
			case VerdictStructSilent:
				res.StructSilent++
			case VerdictLossDetected:
				res.LossDetected++
			case VerdictLossSilent:
				res.LossSilent++
			}
			if !lossVerdict(g.verdict) {
				continue
			}
			silence := "silent"
			if g.verdict == VerdictLossDetected {
				silence = "detected"
			}
			fp := seqs[i].Shape() + "|" + g.ps.class + "|" + g.viol.Kind + "|" + silence
			if p, ok := protos[fp]; ok {
				p.bug.States++
				continue
			}
			protos[fp] = &protoBug{
				bug: Bug{
					Fingerprint: fp,
					Target:      t.Name,
					Shape:       seqs[i].Shape(),
					Class:       g.ps.class,
					Symptom:     g.viol.Kind,
					Detected:    g.verdict == VerdictLossDetected,
					States:      1,
					Detail:      fmt.Sprintf("%s @ %s: %s %s: %s", g.viol.Guar, g.ps.st, g.viol.Kind, g.viol.Path, g.viol.Detail),
				},
				seq:   seqs[i],
				state: g.ps,
			}
		}
	}

	// Minimize each fingerprint's representative to the shortest valid
	// subsequence that still reproduces (same class + symptom + silence).
	fps := make([]string, 0, len(protos))
	for fp := range protos {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		p := protos[fp]
		seq, st, err := minimize(t, blocks, p.seq, p.bug, cfg.Policy)
		if err != nil {
			return nil, err
		}
		p.bug.Repro = makeRepro(t.Name, seq, st, cfg.Policy, verdictOf(p.bug), p.bug.Symptom)
		res.Bugs = append(res.Bugs, p.bug)
	}
	return res, nil
}

func verdictOf(b Bug) string {
	if b.Detected {
		return VerdictLossDetected
	}
	return VerdictLossSilent
}

// subsequences yields the valid, interesting subsequences of seq in
// ascending size then ascending mask order (the full sequence excluded).
func subsequences(seq fstest.Sequence) []fstest.Sequence {
	n := len(seq)
	var out []fstest.Sequence
	for size := 1; size < n; size++ {
		for mask := uint(1); mask < 1<<n; mask++ {
			if popcount(mask) != size {
				continue
			}
			var sub fstest.Sequence
			t := fstest.NewModel()
			ok := true
			for j := 0; j < n; j++ {
				if mask&(1<<j) == 0 {
					continue
				}
				if !valid(t, seq[j]) {
					ok = false
					break
				}
				t.Apply(seq[j], len(sub))
				sub = append(sub, seq[j])
			}
			if ok && interesting(sub) {
				out = append(out, sub)
			}
		}
	}
	return out
}

func popcount(m uint) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// minimize finds the shortest subsequence of seq reproducing the bug's
// (class, symptom, silence) on some crash state; falls back to the
// original sequence and its recorded state.
func minimize(t fstest.ExploreTarget, blocks int64, seq fstest.Sequence, bug Bug, policy faultinject.EnumPolicy) (fstest.Sequence, plannedState, error) {
	want := func(g gradedState) bool {
		return lossVerdict(g.verdict) &&
			g.ps.class == bug.Class &&
			g.viol.Kind == bug.Symptom &&
			(g.verdict == VerdictLossDetected) == bug.Detected
	}
	for _, sub := range subsequences(seq) {
		graded, _, err := huntSequence(t, blocks, sub, policy)
		if err != nil {
			return nil, plannedState{}, err
		}
		for _, g := range graded {
			if want(g) {
				return sub, g.ps, nil
			}
		}
	}
	// The original always reproduces: re-grade to recover its state.
	graded, _, err := huntSequence(t, blocks, seq, policy)
	if err != nil {
		return nil, plannedState{}, err
	}
	for _, g := range graded {
		if want(g) {
			return seq, g.ps, nil
		}
	}
	return nil, plannedState{}, fmt.Errorf("hunt: bug %s did not reproduce on its own sequence", bug.Fingerprint)
}
