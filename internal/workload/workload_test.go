package workload

import (
	"strings"
	"testing"

	"ironfs/internal/fs/ixt3"
)

// TestDeterministicSimTime: the whole stack (workload generator, file
// system, disk model) is deterministic — two runs of the same cell report
// identical simulated time.
func TestDeterministicSimTime(t *testing.T) {
	v := Variant{Feats: ixt3.All()}
	for _, b := range Benchmarks() {
		r1, err := RunVariant(v, b)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		r2, err := RunVariant(v, b)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if r1.SimTime != r2.SimTime {
			t.Errorf("%s: %v != %v across identical runs", b.Name, r1.SimTime, r2.SimTime)
		}
	}
}

// TestVariantEnumeration: Table 6 has exactly 32 rows — the baseline plus
// every non-empty subset of the five mechanisms — with the paper's labels.
func TestVariantEnumeration(t *testing.T) {
	vs := Variants()
	if len(vs) != 32 {
		t.Fatalf("variants = %d, want 32", len(vs))
	}
	if !vs[0].Baseline || vs[0].Label() != "(Baseline: ext3)" {
		t.Fatalf("row 0 = %+v", vs[0])
	}
	seen := map[string]bool{}
	for _, v := range vs {
		l := v.Label()
		if seen[l] {
			t.Fatalf("duplicate row %q", l)
		}
		seen[l] = true
	}
	for _, want := range []string{"Mc", "Tc", "Mc Mr", "Mc Mr Dc Dp Tc", "Dc Dp"} {
		if !seen[want] {
			t.Errorf("missing row %q", want)
		}
	}
	if vs[len(vs)-1].Label() != "Mc Mr Dc Dp Tc" {
		t.Errorf("last row = %q, want the full combination", vs[len(vs)-1].Label())
	}
}

// TestTable6Shape runs the single-mechanism rows plus the full combination
// and asserts the paper's headline shapes.
func TestTable6Shape(t *testing.T) {
	vs := Variants()
	subset := []Variant{vs[0], vs[1], vs[2], vs[3], vs[4], vs[5], vs[len(vs)-1]}
	tb, err := RunTable6(subset, nil)
	if err != nil {
		t.Fatal(err)
	}
	table6Conclusions(t, tb)
}

// table6Conclusions asserts §6.2's three conclusions on a sweep that holds
// at least the baseline, the five single-mechanism rows and the full
// combination.
func table6Conclusions(t *testing.T, tb *Table6) {
	t.Helper()
	rows := map[string]Row{}
	for _, r := range tb.Rows {
		rows[r.Variant.Label()] = r
	}
	rel := func(label, bench string) float64 { return rows[label].Cells[bench].Relative }
	const all = "Mc Mr Dc Dp Tc"

	// Conclusion 1: SSH-Build and the web server barely notice, even with
	// everything on.
	if rel(all, "SSH") > 1.10 {
		t.Errorf("SSH with all mechanisms = %.2f; the paper sees <= 1.06", rel(all, "SSH"))
	}
	if rel(all, "Web") > 1.05 {
		t.Errorf("Web with all mechanisms = %.2f; the paper sees ~1.00", rel(all, "Web"))
	}

	// Conclusion 2: the metadata-intensive workloads pay noticeably —
	// tens of percent, not factors.
	if post := rel(all, "Post"); post < 1.10 || post > 1.80 {
		t.Errorf("PostMark with all mechanisms = %.2f; the paper's worst case is ~1.37", post)
	}

	// Conclusion 3: transactional checksums alone *speed up* the
	// synchronous workload (the paper: 0.80).
	if tc := rel("Tc", "TPCB"); tc >= 1.0 {
		t.Errorf("Tc on TPC-B = %.2f; the paper measures a speedup", tc)
	}
	// Baseline row is exactly 1.00 everywhere.
	for _, name := range tb.Benchmarks {
		if r := rel("(Baseline: ext3)", name); r != 1.0 {
			t.Errorf("baseline %s = %.2f", name, r)
		}
	}
	// No mechanism is free on TPC-B except (possibly) checksums; Mr is
	// the most expensive single mechanism there (the replica log doubles
	// commit traffic).
	mrTPCB := rel("Mr", "TPCB")
	for _, label := range []string{"Mc", "Dc", "Dp"} {
		if r := rel(label, "TPCB"); r > mrTPCB+0.01 {
			t.Errorf("%s TPCB=%.2f exceeds Mr=%.2f; Mr should dominate", label, r, mrTPCB)
		}
	}
}

// TestSpaceStudyInPaperBands: §6.2 reports 3–10% for checksums+replication
// and 3–17% for parity; the synthetic volumes must land in (or near) those
// bands, with the small-file profile the parity-heaviest.
func TestSpaceStudyInPaperBands(t *testing.T) {
	var reports []SpaceReport
	for _, p := range Profiles() {
		r, err := RunSpaceStudy(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		reports = append(reports, r)
		meta := r.CksumPct() + r.ReplicaPct()
		if meta <= 0 || meta > 12 {
			t.Errorf("%s: checksum+replica overhead %.1f%%, want within ~(0,12]", p.Name, meta)
		}
		if r.ParityPct() > 20 {
			t.Errorf("%s: parity overhead %.1f%%, paper's band tops out near 17%%", p.Name, r.ParityPct())
		}
	}
	// Relative ordering: small files cost the most parity, media the least.
	if !(reports[0].ParityPct() > reports[2].ParityPct() && reports[2].ParityPct() > reports[1].ParityPct()) {
		t.Errorf("parity ordering violated: dev=%.1f office=%.1f media=%.1f",
			reports[0].ParityPct(), reports[2].ParityPct(), reports[1].ParityPct())
	}
	if RenderSpace(reports) == "" {
		t.Error("empty space render")
	}
}

// TestRenderTable6 includes brackets for speedups.
func TestRenderTable6(t *testing.T) {
	tb := &Table6{
		Benchmarks: []string{"TPCB"},
		Rows: []Row{
			{Variant: Variant{Baseline: true}, Cells: map[string]Cell{"TPCB": {Relative: 1.0}}},
			{Variant: Variant{Feats: ixt3.Features{Tc: true}}, Cells: map[string]Cell{"TPCB": {Relative: 0.85}}},
		},
	}
	out := tb.Render()
	if want := "[0.85]"; !contains(out, want) {
		t.Errorf("render missing %q:\n%s", want, out)
	}
	if !contains(out, "(Baseline: ext3)") {
		t.Errorf("render missing baseline label:\n%s", out)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
