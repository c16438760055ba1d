package fingerprint

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs"
	"ironfs/internal/iron"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// Config parameterizes a fingerprinting run.
type Config struct {
	// DiskBlocks sizes the test device (default 4096 blocks = 16 MiB).
	DiskBlocks int64
	// Faults selects the fault classes (default: all three).
	Faults []iron.FaultClass
	// Transient arms one-shot instead of sticky faults, for probing
	// retry behavior (default false: sticky, as the paper's main runs).
	Transient bool
	// Seed seeds the corruption-noise RNG (default
	// faultinject.DefaultSeed). Logged by cmd/ironfp for reproducibility.
	Seed int64
	// Trace attaches an evidence trace to every faulted scenario: each
	// cell of the matrix carries the semantic event stream (disk I/O,
	// fault injections, journal phases, detections, recoveries) that
	// produced its verdict. Off by default — tracing is allocation-heavy.
	Trace bool
}

func (c Config) withDefaults() Config {
	if c.DiskBlocks == 0 {
		c.DiskBlocks = 4096
	}
	if len(c.Faults) == 0 {
		c.Faults = []iron.FaultClass{iron.ReadFailure, iron.WriteFailure, iron.Corruption}
	}
	if c.Seed == 0 {
		c.Seed = faultinject.DefaultSeed
	}
	return c
}

// Scenario is the outcome of one (workload, block type, fault) experiment.
type Scenario struct {
	Workload   string
	Block      iron.BlockType
	Fault      iron.FaultClass
	Applicable bool
	// Fired counts fault injections that actually hit.
	Fired int
	// Err is the error the workload surfaced to the "application".
	Err error
	// Detection/Recovery are the techniques the file system exhibited.
	Detection iron.DetectionSet
	Recovery  iron.RecoverySet
	// DetectCounts/RecoverCounts are the per-level event counts behind
	// the sets (zero levels excluded). The live-metrics registry's
	// iron_detect_total/iron_recover_total counters must reconcile
	// exactly with these summed over a campaign: golden (fault-free)
	// runs record nothing, so scenarios are the only source.
	DetectCounts  map[iron.DetectionLevel]int
	RecoverCounts map[iron.RecoveryLevel]int
	// Health is the file system's state after the workload.
	Health vfs.HealthState
	// Trace is the scenario's evidence trace (nil unless Config.Trace).
	Trace []trace.Event
}

// Result is a complete fingerprint of one file system.
type Result struct {
	Target    string
	Matrices  map[iron.FaultClass]*iron.Matrix
	Scenarios []Scenario
}

// Counts tallies the result for the Table 5 summary.
func (r *Result) Counts() iron.TechniqueCounts {
	c := iron.TechniqueCounts{FS: r.Target}
	for _, m := range r.Matrices {
		c.Tally(m)
	}
	return c
}

// TaxonomyCounts sums the per-scenario detection and recovery event
// counts across the whole fingerprint — the numbers the registry's
// iron_detect_total/iron_recover_total counters must equal after a
// campaign run against a fresh registry.
func (r *Result) TaxonomyCounts() (map[iron.DetectionLevel]int, map[iron.RecoveryLevel]int) {
	det := map[iron.DetectionLevel]int{}
	rec := map[iron.RecoveryLevel]int{}
	for _, s := range r.Scenarios {
		for lvl, n := range s.DetectCounts {
			det[lvl] += n
		}
		for lvl, n := range s.RecoverCounts {
			rec[lvl] += n
		}
	}
	return det, rec
}

// DetectedAndRecovered counts the applicable scenarios in which a fault
// fired and the file system both noticed it (some detection technique) and
// responded (some recovery technique) — the paper's robustness metric for
// ixt3 ("detects and recovers from over 200 possible different
// partial-error scenarios").
func (r *Result) DetectedAndRecovered() (detected, recovered, fired int) {
	for _, s := range r.Scenarios {
		if !s.Applicable || s.Fired == 0 {
			continue
		}
		fired++
		if !s.Detection.Empty() {
			detected++
		}
		if !s.Recovery.Empty() {
			recovered++
		}
	}
	return detected, recovered, fired
}

// Run fingerprints one file system: prepares golden images, derives
// applicability from fault-free traces, then executes every applicable
// (workload × block type × fault class) scenario on a fresh image.
func Run(t Target, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ws := Workloads()
	labels := WorkloadLabels()

	cleanImg, err := buildImage(t, cfg)
	if err != nil {
		return nil, fmt.Errorf("fingerprint %s: clean image: %w", t.Name, err)
	}
	dirtyImg, err := crashImage(t, cfg, cleanImg)
	if err != nil {
		return nil, fmt.Errorf("fingerprint %s: dirty image: %w", t.Name, err)
	}
	pick := func(w Workload) *disk.Image {
		if w.Dirty {
			return dirtyImg
		}
		return cleanImg
	}

	// Golden traces: which (block type, op) pairs each workload touches.
	golden := make([]map[iron.BlockType][2]int, len(ws))
	for i, w := range ws {
		counts, err := goldenTrace(t, cfg, w, pick(w))
		if err != nil {
			return nil, fmt.Errorf("fingerprint %s: golden %q: %w", t.Name, w.Name, err)
		}
		golden[i] = counts
	}

	res := &Result{Target: t.Name, Matrices: map[iron.FaultClass]*iron.Matrix{}}
	for _, fc := range cfg.Faults {
		res.Matrices[fc] = iron.NewMatrix(t.Name, fc, t.Blocks, labels)
	}

	for i, w := range ws {
		for _, bt := range t.Blocks {
			for _, fc := range cfg.Faults {
				op := disk.OpRead
				if fc == iron.WriteFailure {
					op = disk.OpWrite
				}
				if golden[i][bt][op] == 0 {
					res.Scenarios = append(res.Scenarios, Scenario{
						Workload: w.Label, Block: bt, Fault: fc,
					})
					continue // gray cell
				}
				s, err := runScenario(t, cfg, w, pick(w), bt, fc)
				if err != nil {
					return nil, fmt.Errorf("fingerprint %s: %s/%s/%s: %w",
						t.Name, w.Label, bt, fc, err)
				}
				res.Scenarios = append(res.Scenarios, s)
				cell := iron.Cell{Applicable: true, Detection: s.Detection, Recovery: s.Recovery}
				if err := res.Matrices[fc].Set(bt, w.Label, cell); err != nil {
					return nil, err
				}
			}
		}
	}
	return res, nil
}

// buildImage formats and populates the clean disk image.
func buildImage(t Target, cfg Config) (*disk.Image, error) {
	mo := t.MountOpts()
	mo.Blocks = cfg.DiskBlocks
	mo.NoMount = true // prepareImage runs the mount itself
	vol, err := fs.MountVolume(mo)
	if err != nil {
		return nil, err
	}
	d := vol.Disk
	if err := prepareImage(vol.FS); err != nil {
		return nil, err
	}
	if t.Extra != nil {
		efs := t.New(d, nil)
		if err := efs.Mount(); err != nil {
			return nil, err
		}
		if err := t.Extra(efs); err != nil {
			return nil, err
		}
		if err := efs.Unmount(); err != nil {
			return nil, err
		}
	}
	return d.Image(), nil
}

// crashImage builds the dirty image from the clean one: a simulated crash
// that cuts the tail of the dirty workload's last journal commit, so the
// recovery workload has a live transaction to examine. The workload is
// recorded once on a CrashDevice, and the image is the clean one plus
// every write of its log but the last.
func crashImage(t Target, cfg Config, clean *disk.Image) (*disk.Image, error) {
	d, err := disk.New(cfg.DiskBlocks, disk.DefaultGeometry(), nil)
	if err != nil {
		return nil, err
	}
	if err := d.RestoreImage(clean); err != nil {
		return nil, err
	}
	cd := faultinject.NewCrashDevice(d, -1)
	if err := dirtyImage(t.New(cd, nil)); err != nil {
		return nil, err
	}
	log := cd.Log()
	if err := d.RestoreImage(clean); err != nil {
		return nil, err
	}
	cut := faultinject.PrefixCut(log, min(max(len(log)-1, 1), len(log)))
	if err := faultinject.ApplyCrashState(d, log, cut, faultinject.EnumPolicy{}); err != nil {
		return nil, err
	}
	return d.Image(), nil
}

// instance builds a fresh volume — disk, fault layer, file system — over
// an image via fs.MountVolume, reporting into the given recorder
// (nil for fault-free golden runs, so they record nothing — the taxonomy
// reconciliation depends on faulted scenarios being the only source of
// iron_* counters). With cfg.Trace, the volume carries an evidence tracer
// attached beneath every upper layer, with recorder events bridged in.
// The file system is returned unmounted: each workload declares whether
// it measures the mount itself.
func instance(t Target, cfg Config, img *disk.Image, rec *iron.Recorder) (*fs.Volume, error) {
	mo := t.MountOpts()
	mo.Blocks = cfg.DiskBlocks
	mo.Base = img
	mo.Faults = true
	mo.Seed = cfg.Seed
	mo.Recorder = rec
	mo.Trace = cfg.Trace
	mo.NoMount = true
	return fs.MountVolume(mo)
}

// goldenTrace runs a workload fault-free and returns its per-type access
// counts (the applicability mask).
func goldenTrace(t Target, cfg Config, w Workload, img *disk.Image) (map[iron.BlockType][2]int, error) {
	vol, err := instance(t, cfg, img, nil)
	if err != nil {
		return nil, err
	}
	if w.Mounted {
		if err := vol.FS.Mount(); err != nil {
			return nil, fmt.Errorf("golden mount: %w", err)
		}
		vol.Faults.ResetCounts() // the mount column measures mount traffic alone
	}
	if err := w.Run(vol.FS); err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	return vol.Faults.AccessCounts(), nil
}

// runScenario executes one faulted experiment.
func runScenario(t Target, cfg Config, w Workload, img *disk.Image, bt iron.BlockType, fc iron.FaultClass) (Scenario, error) {
	rec := iron.NewRecorder()
	vol, err := instance(t, cfg, img, rec)
	if err != nil {
		return Scenario{}, err
	}
	vol.Tracer.Mark(fmt.Sprintf("scenario fs=%s workload=%s block=%s fault=%s sticky=%t",
		t.Name, w.Label, bt, fc, !cfg.Transient))
	if w.Mounted {
		if err := vol.FS.Mount(); err != nil {
			return Scenario{}, fmt.Errorf("scenario mount: %w", err)
		}
	}
	vol.Faults.Arm(&faultinject.Fault{Class: fc, Target: bt, Sticky: !cfg.Transient})
	werr := w.Run(vol.FS)
	s := Scenario{
		Workload:   w.Label,
		Block:      bt,
		Fault:      fc,
		Applicable: true,
		Fired:      vol.Faults.Fired(),
		Err:        werr,
		Detection:  rec.Detections(),
		Recovery:   rec.Recoveries(),

		DetectCounts:  rec.DetectCounts(),
		RecoverCounts: rec.RecoverCounts(),
		Health:        vol.Health(),
	}
	if vol.Tracer.Enabled() {
		s.Trace = vol.Tracer.Events()
	}
	return s, nil
}
