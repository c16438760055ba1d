package fingerprint

// Gray-box resolver tests: the type-aware injector is only as good as its
// classification, so for every target we build the standard image and
// check the census — each Table 4 structure type must be present, and the
// static regions must classify exactly.

import (
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
)

// census classifies every block of a prepared image.
func census(t *testing.T, tgt Target) map[iron.BlockType]int64 {
	t.Helper()
	cfg := Config{}.withDefaults()
	img, err := buildImage(tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := disk.New(cfg.DiskBlocks, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	r := tgt.NewResolver(d)
	out := map[iron.BlockType]int64{}
	for b := int64(0); b < cfg.DiskBlocks; b++ {
		out[r.Classify(b)]++
	}
	return out
}

// TestResolverCoversAllTypes: every structure type a target fingerprints
// must actually exist on the prepared image (otherwise whole matrix rows
// would be gray for the wrong reason). The journal record types only
// materialize once transactions are written, so they are exempt on the
// clean image.
func TestResolverCoversAllTypes(t *testing.T) {
	transient := map[iron.BlockType]bool{
		"j-desc": true, "j-commit": true, "j-revoke": true, "j-data": true,
	}
	for _, tgt := range Targets() {
		tgt := tgt
		t.Run(tgt.Name, func(t *testing.T) {
			got := census(t, tgt)
			for _, bt := range tgt.Blocks {
				if got[bt] == 0 && !transient[bt] {
					t.Errorf("no blocks classified %q on the prepared image", bt)
				}
			}
			if got[iron.Unclassified] == 0 {
				t.Error("free space should classify as unclassified")
			}
		})
	}
}

// TestResolverDisjointAndStable: classification is a function — repeated
// queries agree — and every block gets exactly one type.
func TestResolverDisjointAndStable(t *testing.T) {
	tgt := Ext3()
	cfg := Config{}.withDefaults()
	img, err := buildImage(tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := disk.New(cfg.DiskBlocks, disk.DefaultGeometry(), nil)
	if err := d.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	r := tgt.NewResolver(d)
	for b := int64(0); b < cfg.DiskBlocks; b += 7 {
		a := r.Classify(b)
		if again := r.Classify(b); again != a {
			t.Fatalf("block %d classified %q then %q", b, a, again)
		}
	}
	// Block 0 is the superblock/boot block on every target.
	for _, tgt := range Targets() {
		d2, _ := disk.New(cfg.DiskBlocks, disk.DefaultGeometry(), nil)
		img2, err := buildImage(tgt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d2.RestoreImage(img2); err != nil {
			t.Fatal(err)
		}
		bt := tgt.NewResolver(d2).Classify(0)
		if bt != "super" && bt != "boot" {
			t.Errorf("%s: block 0 classified %q", tgt.Name, bt)
		}
	}
}

// TestResolverTracksChanges: creating a file re-classifies its new blocks
// (the generation-based cache invalidation).
func TestResolverTracksChanges(t *testing.T) {
	tgt := Ext3()
	cfg := Config{}.withDefaults()
	img, err := buildImage(tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := disk.New(cfg.DiskBlocks, disk.DefaultGeometry(), nil)
	if err := d.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	r := tgt.NewResolver(d)
	before := int64(0)
	for b := int64(0); b < cfg.DiskBlocks; b++ {
		if r.Classify(b) == "data" {
			before++
		}
	}
	fs := tgt.New(d, nil)
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/fresh", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/fresh", 0, make([]byte, 8*4096)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	after := int64(0)
	for b := int64(0); b < cfg.DiskBlocks; b++ {
		if r.Classify(b) == "data" {
			after++
		}
	}
	if after <= before {
		t.Fatalf("data census did not grow after a file write: %d -> %d", before, after)
	}
}

// TestGoldenTraceApplicability: every workload's golden run must touch at
// least one classified structure, and the path-resolution workloads must
// touch inodes/dirs (or the tree equivalents) — otherwise whole columns of
// the figures would be spuriously gray.
func TestGoldenTraceApplicability(t *testing.T) {
	for _, tgt := range []Target{Ext3(), Reiser(), JFS(), NTFS()} {
		tgt := tgt
		t.Run(tgt.Name, func(t *testing.T) {
			cfg := Config{}.withDefaults()
			clean, err := buildImage(tgt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dirty, err := crashImage(tgt, cfg, clean)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range Workloads() {
				img := clean
				if w.Dirty {
					img = dirty
				}
				counts, err := goldenTrace(tgt, cfg, w, img)
				if err != nil {
					t.Fatalf("workload %s: %v", w.Label, err)
				}
				classified := 0
				for bt, c := range counts {
					if bt != iron.Unclassified && c[0]+c[1] > 0 {
						classified++
					}
				}
				if classified == 0 {
					t.Errorf("workload %s (%s): golden trace touches no classified structure", w.Label, w.Name)
				}
			}
		})
	}
}
