package hunt

import (
	"bytes"
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs"
	"ironfs/internal/fsck"
	"ironfs/internal/fstest"
	"ironfs/internal/iron"
)

// The fsck crash-idempotence mode. ironfsck's Repair is transactional —
// the volume ends consistent-or-degraded, never half-repaired-and-healthy
// — but that claim is only as good as its behavior when the machine dies
// MID-repair. This mode builds a damaged volume with the shared injector,
// then crashes the device after every prefix of the repair transaction's
// writes (k = 1, 2, ... until a run completes uncrashed), and after each
// crash remounts and re-runs check+repair, requiring convergence to a
// clean volume with every pre-damage file intact.

// FsckBounds bounds one fsck-hunt run.
type FsckBounds struct {
	// Flips is the bitmap damage injected before repair (default 12).
	Flips int
	// DiskBlocks sizes the device (default 1024).
	DiskBlocks int64
	// MaxCrashes caps the crash points exercised (default 2000) — a
	// repair transaction writing more blocks than this is itself a
	// finding ("fsck-unconverged").
	MaxCrashes int
}

func (b FsckBounds) withDefaults() FsckBounds {
	if b.Flips <= 0 {
		b.Flips = 12
	}
	if b.DiskBlocks == 0 {
		b.DiskBlocks = 1024
	}
	if b.MaxCrashes <= 0 {
		b.MaxCrashes = 2000
	}
	return b
}

// FsckViolation is one broken crash-idempotence guarantee.
type FsckViolation struct {
	// Kind: "fsck-unconverged" (the post-crash check+repair did not
	// reach a clean volume), "fsck-data-loss" (a pre-damage file's
	// content changed), "fsck-repair-failed" (repair errored without a
	// crash).
	Kind string `json:"kind"`
	// Crash is the armed write budget k the repair crashed under (-1
	// when the violation is crash-independent).
	Crash  int64  `json:"crash"`
	Detail string `json:"detail"`
}

// FsckTargetResult is one file system's fsck-hunt outcome.
type FsckTargetResult struct {
	FS string `json:"fs"`
	// Flips is the damage actually injected.
	Flips int `json:"flips"`
	// Crashes is the number of mid-repair crash points exercised; the
	// uncrashed completion run is not counted.
	Crashes    int             `json:"crashes"`
	Violations []FsckViolation `json:"violations"`
}

// String renders one matrix row.
func (r *FsckTargetResult) String() string {
	return fmt.Sprintf("%-10s flips=%-3d crashes=%-4d violations=%d",
		r.FS, r.Flips, r.Crashes, len(r.Violations))
}

// fsckSeedFiles is the pre-damage population: path -> payload index.
// Bitmap repair must never touch their content.
var fsckSeedFiles = []struct {
	path string
	sel  int
}{
	{"/keep0", 0},
	{"/keep1", 1},
	{"/dir/keep2", 0},
}

// RunFsck crash-tests the named file system's repair path. Deterministic
// for fixed bounds.
func RunFsck(name string, opts fs.Options, b FsckBounds) (*FsckTargetResult, error) {
	b = b.withDefaults()
	res := &FsckTargetResult{FS: name, Violations: []FsckViolation{}}

	// Build the damaged image: format, populate, unmount cleanly, then
	// flip allocation-bitmap bits with the shared injector.
	base, err := disk.New(b.DiskBlocks, disk.DefaultGeometry(), nil)
	if err != nil {
		return nil, err
	}
	if err := fs.Mkfs(name, base, opts); err != nil {
		return nil, fmt.Errorf("%s mkfs: %w", name, err)
	}
	fsys, err := fs.Mount(name, base, opts)
	if err != nil {
		return nil, fmt.Errorf("%s mount: %w", name, err)
	}
	if err := fsys.Mkdir("/dir", 0o755); err != nil {
		return nil, err
	}
	want := map[string][]byte{}
	for i, f := range fsckSeedFiles {
		if err := fsys.Create(f.path, 0o644); err != nil {
			return nil, err
		}
		data := fstest.Payload(i, f.sel)
		if _, err := fsys.Write(f.path, 0, data); err != nil {
			return nil, err
		}
		want[f.path] = data
	}
	if err := fsys.Unmount(); err != nil {
		return nil, fmt.Errorf("%s unmount: %w", name, err)
	}
	flips, err := fs.DamageBitmaps(name, base, b.Flips)
	if err != nil {
		return nil, err
	}
	res.Flips = flips
	img := base.Image()

	// verify remounts the (post-crash, post-re-repair) image and checks
	// the seed files survived byte-exact.
	verify := func(d disk.Device, k int64) {
		vfsys, err := fs.Mount(name, d, opts)
		if err != nil {
			res.Violations = append(res.Violations, FsckViolation{
				Kind: "fsck-data-loss", Crash: k,
				Detail: fmt.Sprintf("post-repair mount failed: %v", err)})
			return
		}
		//iron:policy harness §3.3 post-verdict unmount is best-effort
		defer func() { _ = vfsys.Unmount() }()
		for _, f := range fsckSeedFiles {
			st, err := vfsys.Stat(f.path)
			if err != nil {
				res.Violations = append(res.Violations, FsckViolation{
					Kind: "fsck-data-loss", Crash: k,
					Detail: fmt.Sprintf("%s: stat: %v", f.path, err)})
				continue
			}
			got, err := fstest.ReadAll(vfsys, f.path, st.Size)
			if err != nil || !bytes.Equal(got, want[f.path]) {
				res.Violations = append(res.Violations, FsckViolation{
					Kind: "fsck-data-loss", Crash: k,
					Detail: fmt.Sprintf("%s: content changed across mid-repair crash", f.path)})
			}
		}
	}

	for k := int64(1); ; k++ {
		if res.Crashes >= b.MaxCrashes {
			res.Violations = append(res.Violations, FsckViolation{
				Kind: "fsck-unconverged", Crash: k,
				Detail: fmt.Sprintf("repair still crashing after %d crash points", res.Crashes)})
			break
		}
		d, err := disk.New(b.DiskBlocks, disk.DefaultGeometry(), nil)
		if err != nil {
			return nil, err
		}
		if err := d.RestoreImage(img); err != nil {
			return nil, err
		}
		cd := faultinject.NewCrashDevice(d, -1)
		rfsys, err := fs.New(name, cd, opts, iron.NewRecorder())
		if err != nil {
			return nil, err
		}
		if err := rfsys.Mount(); err != nil {
			return nil, fmt.Errorf("%s damaged mount: %w", name, err)
		}
		rep, ok := fs.AsRepairer(rfsys)
		if !ok {
			return nil, fmt.Errorf("%s: no repair surface", name)
		}
		// Arm the crash k writes into the repair transaction — and only
		// there: mount-time replay and the check phase run uncrashed.
		budget := k
		if !fs.SetRepairHooks(rfsys, &fsck.RepairHooks{
			Begin: func() { cd.SetLimit(budget) },
			End:   func() { cd.SetLimit(-1) },
		}) {
			return nil, fmt.Errorf("%s: no repair hooks surface", name)
		}
		_, rerr := rep.Repair()
		if !cd.Crashed() {
			if rerr != nil {
				res.Violations = append(res.Violations, FsckViolation{
					Kind: "fsck-repair-failed", Crash: -1,
					Detail: fmt.Sprintf("repair failed without a crash: %v", rerr)})
				break
			}
			// Repair completed inside the budget: every prefix has been
			// exercised. Verify this final, uncrashed repair too.
			after, err := fs.Fsck(name, d, opts, fs.FsckConfig{})
			if err != nil || !after.CleanAfter {
				res.Violations = append(res.Violations, FsckViolation{
					Kind: "fsck-unconverged", Crash: -1,
					Detail: fmt.Sprintf("volume not clean after full repair (err=%v)", err)})
			}
			verify(d, -1)
			break
		}
		res.Crashes++
		// The machine died k writes into the repair transaction. The
		// surviving image must check-and-repair to a clean volume.
		after, err := fs.Fsck(name, d, opts, fs.FsckConfig{Repair: true})
		if err != nil {
			res.Violations = append(res.Violations, FsckViolation{
				Kind: "fsck-unconverged", Crash: k,
				Detail: fmt.Sprintf("post-crash fsck: %v", err)})
			continue
		}
		if !after.CleanAfter {
			res.Violations = append(res.Violations, FsckViolation{
				Kind: "fsck-unconverged", Crash: k,
				Detail: fmt.Sprintf("post-crash repair left %d problems", len(after.Problems))})
			continue
		}
		verify(d, k)
	}
	return res, nil
}
