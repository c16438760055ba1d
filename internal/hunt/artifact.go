package hunt

import (
	"encoding/json"
	"fmt"
	"strconv"

	"ironfs/internal/faultinject"
	"ironfs/internal/fstest"
)

// Repro is a self-contained reproduction artifact: everything needed to
// rebuild one crash state deterministically — the target, the op
// sequence, the crash point with its survivor mask, and the enumeration
// policy the mask was drawn under. `ironhunt -repro FILE` replays it and
// must land on the same verdict.
type Repro struct {
	Target string          `json:"target"`
	Seq    fstest.Sequence `json:"seq"`
	// Point indexes the write log; Mask is the survivor subset, encoded
	// as a decimal string (uint64 does not survive a float64 round-trip
	// above 2^53).
	Point       int    `json:"point"`
	Mask        string `json:"mask"`
	Torn        bool   `json:"torn,omitempty"`
	Sealed      int    `json:"sealed,omitempty"`
	SealedKnown bool   `json:"sealed_known,omitempty"`
	// Class/Snap/LastOp are the oracle coordinates for grading.
	Class  string `json:"class"`
	Snap   int    `json:"snap"`
	LastOp int    `json:"last_op"`
	// Policy pins window/tear geometry so ApplyCrashState rebuilds the
	// identical image.
	Policy faultinject.EnumPolicy `json:"policy"`
	// Verdict and Symptom are the expected replay outcome.
	Verdict string `json:"verdict"`
	Symptom string `json:"symptom,omitempty"`
}

func makeRepro(target string, seq fstest.Sequence, ps plannedState, policy faultinject.EnumPolicy, verdict, symptom string) Repro {
	return Repro{
		Target:      target,
		Seq:         seq,
		Point:       ps.st.Point,
		Mask:        strconv.FormatUint(ps.st.Mask, 10),
		Torn:        ps.st.Torn,
		Sealed:      ps.st.Sealed,
		SealedKnown: ps.st.SealedKnown,
		Class:       ps.class,
		Snap:        ps.snap,
		LastOp:      ps.lastOp,
		Policy:      policy,
		Verdict:     verdict,
		Symptom:     symptom,
	}
}

// EncodeRepro renders r as indented JSON (stable field order).
func EncodeRepro(r Repro) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DecodeRepro parses an artifact.
func DecodeRepro(data []byte) (Repro, error) {
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return r, err
	}
	if _, err := strconv.ParseUint(r.Mask, 10, 64); err != nil {
		return r, fmt.Errorf("hunt: bad repro mask %q: %w", r.Mask, err)
	}
	return r, nil
}

// ReplayResult is one artifact replay's outcome.
type ReplayResult struct {
	Verdict string `json:"verdict"`
	Symptom string `json:"symptom,omitempty"`
	Detail  string `json:"detail,omitempty"`
	// Match reports whether the replay landed on the artifact's verdict.
	Match bool `json:"match"`
}

// ReplayRepro rebuilds the artifact's crash state on its target and
// re-grades it. blocks <= 0 uses the target override or hunt default.
func ReplayRepro(t fstest.ExploreTarget, r Repro, blocks int64) (ReplayResult, error) {
	var out ReplayResult
	if t.Name != r.Target {
		return out, fmt.Errorf("hunt: artifact is for target %q, got %q", r.Target, t.Name)
	}
	if blocks <= 0 {
		blocks = 1024
		if t.DiskBlocks != 0 {
			blocks = t.DiskBlocks
		}
	}
	run, err := fstest.RecordSeq(t, blocks, r.Seq)
	if err != nil {
		return out, err
	}
	if run == nil {
		return out, fmt.Errorf("hunt: artifact sequence produced no writes")
	}
	if r.Point < 0 || r.Point >= len(run.Log) {
		return out, fmt.Errorf("hunt: artifact point %d outside log of %d writes", r.Point, len(run.Log))
	}
	mask, err := strconv.ParseUint(r.Mask, 10, 64)
	if err != nil {
		return out, fmt.Errorf("hunt: bad repro mask %q: %w", r.Mask, err)
	}
	ps := plannedState{
		st: faultinject.CrashState{
			Point:       r.Point,
			Mask:        mask,
			Torn:        r.Torn,
			Sealed:      r.Sealed,
			SealedKnown: r.SealedKnown,
		},
		class:  r.Class,
		snap:   r.Snap,
		lastOp: r.LastOp,
	}
	g, err := gradeState(run, ps, r.Policy)
	if err != nil {
		return out, err
	}
	out.Verdict = g.verdict
	if g.viol != nil {
		out.Symptom = g.viol.Kind
		out.Detail = fmt.Sprintf("%s %s: %s", g.viol.Kind, g.viol.Path, g.viol.Detail)
	}
	out.Match = out.Verdict == r.Verdict && (r.Symptom == "" || out.Symptom == r.Symptom)
	return out, nil
}
