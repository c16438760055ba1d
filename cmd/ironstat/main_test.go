package main

import (
	"errors"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs"
	"ironfs/internal/serve"
	"ironfs/internal/stat"
)

// TestMetricNamesMatchTheDocs: the metric names that a faulted fingerprint
// campaign, a depth-32 multi-client point and a serve session with a
// throttled tenant and a scrub record into one registry are exactly the
// names docs/OBSERVABILITY.md's "What the stack records" table lists.
func TestMetricNamesMatchTheDocs(t *testing.T) {
	reg := stat.NewRegistry()
	defer stat.SetDefault(stat.SetDefault(reg))
	if err := runFingerprint("ext3", "read", faultinject.DefaultSeed); err != nil {
		t.Fatal(err)
	}
	if err := runMulti("ext3", 4, 32); err != nil {
		t.Fatal(err)
	}
	serveSession(t)

	snap := reg.Snapshot()
	var keys []string
	for _, c := range snap.Counters {
		keys = append(keys, c.Key)
	}
	for _, g := range snap.Gauges {
		keys = append(keys, g.Key)
	}
	for _, h := range snap.Histograms {
		keys = append(keys, h.Key)
	}
	var got []string
	for _, k := range keys {
		name, _, _ := strings.Cut(k, "{")
		got = append(got, name)
	}
	slices.Sort(got)
	got = slices.Compact(got)

	want := documentedNames(t, "../../docs/OBSERVABILITY.md")
	for _, n := range got {
		if !slices.Contains(want, n) {
			t.Errorf("%s is recorded but missing from the docs table", n)
		}
	}
	for _, n := range want {
		if !slices.Contains(got, n) {
			t.Errorf("%s is in the docs table but no run recorded it", n)
		}
	}
}

// documentedNames returns the metric names in the "What the stack
// records" table of the doc at path: every backquoted name with an
// underscore, labels stripped.
func documentedNames(t *testing.T, path string) []string {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "### What the stack records\n")
	if !ok {
		t.Fatalf("%s has no \"What the stack records\" section", path)
	}
	table, _, _ = strings.Cut(table, "\n\n#")
	re := regexp.MustCompile("`([a-z]+(?:_[a-z0-9]+)+)(?:\\{[^`]*\\})?`")
	var names []string
	for _, row := range strings.Split(table, "\n") {
		if !strings.HasPrefix(row, "|") {
			continue
		}
		for _, m := range re.FindAllStringSubmatch(row, -1) {
			names = append(names, m[1])
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// serveSession hosts one ext3 volume whose allocation bitmaps are damaged,
// admits a tenant's request, throttles its next one, serves the first and
// scrubs the volume with repair on.
func serveSession(t *testing.T) {
	t.Helper()
	const blocks = 4096
	img, err := fs.MountVolume(fs.MountOpts{FS: "ext3", Blocks: blocks, Label: "image"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a", "/b", "/c"} {
		if err := img.FS.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := img.FS.Write(p, 0, make([]byte, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	if err := img.Unmount(); err != nil {
		t.Fatal(err)
	}
	if n, err := fs.DamageBitmaps("ext3", img.Disk, 8); err != nil || n == 0 {
		t.Fatalf("damage: %d flips, %v", n, err)
	}

	s := serve.New(disk.NewClock())
	if _, err := s.AddVolume("vol", fs.MountOpts{FS: "ext3", Blocks: blocks, Image: img.Disk.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant("t", serve.TenantConfig{RateOps: 1, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	req := &serve.Request{Volume: "vol", Tenant: "t", Op: serve.OpStat, Path: "/a"}
	if _, err := s.Submit(req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req); !errors.Is(err, serve.ErrThrottled) {
		t.Fatalf("second submit: %v, want throttled", err)
	}
	s.Drain()
	if err := s.StartScrub("vol", serve.ScrubConfig{Repair: true}); err != nil {
		t.Fatal(err)
	}
	for st, _ := s.ScrubStatus("vol"); st.Phase != serve.ScrubDone; st, _ = s.ScrubStatus("vol") {
		if !s.ScrubStep() {
			s.Clock().Advance(disk.Millisecond)
		}
	}
	if st, _ := s.ScrubStatus("vol"); st.Err != nil || st.Repaired == 0 {
		t.Fatalf("scrub: %+v", st)
	}
}
