// The ironload generator: seeded open- and closed-loop tenant
// populations driven through a Server on the virtual clock. Everything
// is single-threaded discrete-event simulation — submissions, dispatch,
// and scrub steps interleave in one loop whose order is a pure function
// of (scenario, seed), so two runs with the same flags produce
// byte-identical reports. That property is CI-enforced.
package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs"
	"ironfs/internal/iron"
	"ironfs/internal/stat"
	"ironfs/internal/vfs"
)

// LoadConfig parameterizes one ironload scenario run.
type LoadConfig struct {
	// Scenario is one of Scenarios().
	Scenario string
	// FS is the file system for single-FS scenarios (default ext3).
	FS string
	// Seed drives every arrival process and op mix.
	Seed int64
	// Quick shrinks populations and horizons to CI-smoke size.
	Quick bool
}

// Scenarios lists the runnable scenario names in run order.
func Scenarios() []string {
	return []string{"fairness", "readonly", "repair", "scale"}
}

// TenantReport is one tenant's end-of-run accounting. Latencies are
// exact quantiles over every completed request, in virtual nanoseconds.
type TenantReport struct {
	Tenant   string `json:"tenant"`
	Volume   string `json:"volume"`
	Weight   int    `json:"weight"`
	Mode     string `json:"mode"`
	Ops      int64  `json:"ops"`
	Errors   int64  `json:"errors"`
	Rejected int64  `json:"rejected"`
	MeanNs   int64  `json:"mean_ns"`
	P50Ns    int64  `json:"p50_ns"`
	P99Ns    int64  `json:"p99_ns"`
	P999Ns   int64  `json:"p999_ns"`
}

// FairnessReport compares the light tenant's solo and contended runs.
type FairnessReport struct {
	// LightSolo is the light tenant alone on the volume; LightNoisy is
	// the same arrival process beside a 10×-weight-deficit flood.
	LightSoloP99Ns  int64 `json:"light_solo_p99_ns"`
	LightNoisyP99Ns int64 `json:"light_noisy_p99_ns"`
	// HeavyOps/LightOps show the flood actually flooded.
	HeavyOps int64 `json:"heavy_ops"`
	LightOps int64 `json:"light_ops"`
	// DegradeRatio is noisy/solo p99 — the number the fairness bound
	// constrains.
	DegradeRatio float64 `json:"degrade_ratio"`
}

// ReadOnlyReport shows a ReadOnly volume serving reads while writes
// fail typed.
type ReadOnlyReport struct {
	// Health is the volume's final health state string.
	Health string `json:"health"`
	// Trip names the request whose own execution drove the volume
	// read-only, and the error it returned.
	Trip string `json:"trip,omitempty"`
	// ReadsOK counts successful reads after the transition; WritesTyped
	// counts writes refused with ErrVolumeReadOnly; WritesOther counts
	// any write failure of the wrong shape (must be 0). The tripping
	// request is in none of them.
	ReadsOK     int64 `json:"reads_ok"`
	WritesTyped int64 `json:"writes_typed"`
	WritesOther int64 `json:"writes_other"`
}

// RepairReport shows background repair honoring its I/O-share cap.
type RepairReport struct {
	// Share is the configured cap; UsedFrac is the scrub's realized
	// fraction of elapsed virtual time.
	Share    float64 `json:"share"`
	UsedFrac float64 `json:"used_frac"`
	// Problems/Repaired are the scrub's findings on the damaged volume.
	Problems int    `json:"problems"`
	Repaired int    `json:"repaired"`
	Phase    string `json:"phase"`
	// BaselineOps is the bystander tenant's throughput with no scrub;
	// UnderRepairOps is the same workload while volume A repairs.
	// ThroughputRatio = under/baseline, bounded below by 1-share-margin.
	BaselineOps     int64   `json:"baseline_ops"`
	UnderRepairOps  int64   `json:"under_repair_ops"`
	ThroughputRatio float64 `json:"throughput_ratio"`
}

// ScaleReport summarizes the many-tenant scenario.
type ScaleReport struct {
	Tenants    int   `json:"tenants"`
	Volumes    int   `json:"volumes"`
	TotalOps   int64 `json:"total_ops"`
	TotalRejct int64 `json:"total_rejected"`
	// Aggregate latency across every tenant's completed requests.
	AggP50Ns  int64 `json:"agg_p50_ns"`
	AggP99Ns  int64 `json:"agg_p99_ns"`
	AggP999Ns int64 `json:"agg_p999_ns"`
}

// LoadReport is one scenario's full result.
type LoadReport struct {
	Scenario  string          `json:"scenario"`
	FS        string          `json:"fs"`
	Seed      int64           `json:"seed"`
	Quick     bool            `json:"quick"`
	SimTimeNs int64           `json:"sim_time_ns"`
	Tenants   []TenantReport  `json:"tenants,omitempty"`
	Fairness  *FairnessReport `json:"fairness,omitempty"`
	ReadOnly  *ReadOnlyReport `json:"readonly,omitempty"`
	Repair    *RepairReport   `json:"repair,omitempty"`
	Scale     *ScaleReport    `json:"scale,omitempty"`
	// Violations lists self-asserted property failures; empty means
	// every bound held. ironload exits nonzero if any run reports one.
	Violations []string `json:"violations,omitempty"`
}

// ---------------------------------------------------------------------------
// The discrete-event tenant loop.
// ---------------------------------------------------------------------------

// loadTenant is one simulated tenant's generator state.
type loadTenant struct {
	name   string
	volume string
	weight int
	// mode "open": Poisson arrivals at rateHz regardless of backlog.
	// mode "closed": keep `window` requests outstanding with `think`
	// between a completion and the next submission.
	mode   string
	rateHz float64
	window int
	think  disk.Duration
	rng    *rand.Rand
	files  []string

	nextAt      disk.Duration
	outstanding int
	ops         int64
	errs        int64
	rejects     int64
}

// interarrival draws the next open-loop gap: exponential with mean
// 1/rateHz, quantized to nanoseconds.
func (t *loadTenant) interarrival() disk.Duration {
	gap := t.rng.ExpFloat64() / t.rateHz
	d := disk.Duration(gap * float64(disk.Second))
	if d < disk.Microsecond {
		d = disk.Microsecond
	}
	return d
}

// genReq draws one request from the tenant's op mix: read-mostly with
// a write tail and periodic fsyncs, all against the tenant's small
// pre-created working set.
func (t *loadTenant) genReq(payload []byte) *Request {
	f := t.files[t.rng.Intn(len(t.files))]
	req := &Request{Volume: t.volume, Tenant: t.name, Path: f}
	switch p := t.rng.Intn(100); {
	case p < 45:
		req.Op = OpRead
		req.Off = int64(t.rng.Intn(4)) * 4096
		req.Size = 4096
	case p < 75:
		req.Op = OpWrite
		req.Off = int64(t.rng.Intn(4)) * 4096
		req.Data = payload
	case p < 90:
		req.Op = OpStat
	default:
		req.Op = OpFsync
	}
	return req
}

// setupTenantFiles creates each tenant's working set directly on its
// volume (outside the measured window) and syncs.
func setupTenantFiles(vols map[string]*fs.Volume, tenants []*loadTenant, filesPer int) error {
	payload := make([]byte, 4*4096)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	for _, t := range tenants {
		v := vols[t.volume]
		for i := 0; i < filesPer; i++ {
			p := fmt.Sprintf("/%s_%d", t.name, i)
			if err := v.FS.Create(p, 0o644); err != nil {
				return fmt.Errorf("ironload setup %s: %w", p, err)
			}
			if _, err := v.FS.Write(p, 0, payload); err != nil {
				return fmt.Errorf("ironload setup %s: %w", p, err)
			}
			t.files = append(t.files, p)
		}
	}
	// Sync volumes in sorted order: map iteration order would smuggle
	// nondeterminism into the virtual timeline.
	ids := make([]string, 0, len(vols))
	for id := range vols {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := vols[id].FS.Sync(); err != nil {
			return fmt.Errorf("ironload setup sync: %w", err)
		}
	}
	return nil
}

// runLoop drives tenants through the server until the virtual horizon,
// then drains. One event per iteration: due submissions first (tenants
// in name order), then a scrub step, then one dispatch; when nothing is
// runnable the clock jumps to the next arrival. writeProbe, when
// non-nil, classifies completed responses (the readonly scenario).
func runLoop(s *Server, tenants []*loadTenant, horizon disk.Duration, scrub bool,
	onDone func(*Response), onReject func(*Request, error)) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i % 239)
	}
	sorted := append([]*loadTenant(nil), tenants...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	owner := make(map[*Response]*loadTenant)
	clk := s.Clock()
	for _, t := range sorted {
		t.nextAt = clk.Now()
	}
	for {
		now := clk.Now()
		submitting := now < horizon
		if submitting {
			for _, t := range sorted {
				for t.nextAt <= now {
					if t.mode == "closed" && t.outstanding >= t.window {
						break
					}
					req := t.genReq(payload)
					resp, err := s.Submit(req)
					if err != nil {
						t.rejects++
						if onReject != nil {
							onReject(req, err)
						}
						if t.mode == "closed" {
							// Backlogged service refused us; retry after a think.
							t.nextAt = now + t.think
							break
						}
					} else {
						t.outstanding++
						owner[resp] = t
					}
					if t.mode == "open" {
						t.nextAt += t.interarrival()
					}
				}
			}
		}
		if scrub {
			s.ScrubStep()
		}
		if resp, ok := s.Dispatch(); ok {
			t := owner[resp]
			delete(owner, resp)
			t.outstanding--
			t.ops++
			if resp.Err != nil {
				t.errs++
			}
			if onDone != nil {
				onDone(resp)
			}
			if t.mode == "closed" {
				t.nextAt = clk.Now() + t.think
			}
			continue
		}
		if !submitting {
			return // horizon reached and queues drained
		}
		// Idle: advance the clock to the earliest runnable arrival.
		next := horizon
		for _, t := range sorted {
			if t.mode == "closed" && t.outstanding >= t.window {
				continue
			}
			if t.nextAt < next {
				next = t.nextAt
			}
		}
		if next <= now {
			next = now + disk.Microsecond
		}
		clk.Advance(next - now)
	}
}

// report fills a TenantReport from the tenant's histogram.
func report(s *Server, t *loadTenant) TenantReport {
	h := s.TenantHistogram(t.name)
	q := h.Quantiles(0.50, 0.99, 0.999)
	return TenantReport{
		Tenant: t.name, Volume: t.volume, Weight: t.weight, Mode: t.mode,
		Ops: t.ops, Errors: t.errs, Rejected: t.rejects,
		MeanNs: h.Mean(), P50Ns: q[0], P99Ns: q[1], P999Ns: q[2],
	}
}

// ---------------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------------

// RunLoad runs one scenario and returns its report. Unknown scenarios
// and setup failures are errors; property violations are recorded in
// the report, not returned.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.FS == "" {
		cfg.FS = "ext3"
	}
	if cfg.Seed == 0 {
		cfg.Seed = faultinject.DefaultSeed
	}
	switch cfg.Scenario {
	case "fairness":
		return runFairness(cfg)
	case "readonly":
		return runReadOnly(cfg)
	case "repair":
		return runRepair(cfg)
	case "scale":
		return runScale(cfg)
	}
	return nil, fmt.Errorf("ironload: unknown scenario %q", cfg.Scenario)
}

// fairnessHorizon returns the measured window for the fairness runs.
func fairnessHorizon(quick bool) disk.Duration {
	if quick {
		return 2 * disk.Second
	}
	return 8 * disk.Second
}

// fairnessLight builds the light tenant: open-loop, modest rate,
// weight 10.
func fairnessLight(seed int64) *loadTenant {
	return &loadTenant{
		name: "light", volume: "vol-a", weight: 10, mode: "open",
		rateHz: 120, rng: rand.New(rand.NewSource(seed + 1)),
	}
}

// runFairness: a 10:1-weighted light tenant beside a closed-loop flood.
// The light tenant's p99 with the noisy neighbor present must stay
// within a small multiple of its solo p99 — that is what weighted fair
// queueing buys.
func runFairness(cfg LoadConfig) (*LoadReport, error) {
	horizon := fairnessHorizon(cfg.Quick)
	run := func(withHeavy bool) (*Server, []*loadTenant, error) {
		clk := disk.NewClock()
		s := New(clk)
		if _, err := s.AddVolume("vol-a", fs.MountOpts{FS: cfg.FS, QueueDepth: 8}); err != nil {
			return nil, nil, err
		}
		light := fairnessLight(cfg.Seed)
		tenants := []*loadTenant{light}
		if withHeavy {
			heavy := &loadTenant{
				name: "heavy", volume: "vol-a", weight: 1, mode: "closed",
				window: 16, think: 0, rng: rand.New(rand.NewSource(cfg.Seed + 2)),
			}
			tenants = append(tenants, heavy)
		}
		if err := s.AddTenant("light", TenantConfig{Weight: 10, QueueCap: 256}); err != nil {
			return nil, nil, err
		}
		if withHeavy {
			if err := s.AddTenant("heavy", TenantConfig{Weight: 1, QueueCap: 256}); err != nil {
				return nil, nil, err
			}
		}
		vols := map[string]*fs.Volume{"vol-a": mustVol(s, "vol-a")}
		if err := setupTenantFiles(vols, tenants, 4); err != nil {
			return nil, nil, err
		}
		runLoop(s, tenants, clk.Now()+horizon, false, nil, nil)
		return s, tenants, nil
	}

	soloS, soloT, err := run(false)
	if err != nil {
		return nil, err
	}
	noisyS, noisyT, err := run(true)
	if err != nil {
		return nil, err
	}
	solo := report(soloS, soloT[0])
	rep := &LoadReport{Scenario: "fairness", FS: cfg.FS, Seed: cfg.Seed, Quick: cfg.Quick,
		SimTimeNs: int64(noisyS.Clock().Now())}
	f := &FairnessReport{LightSoloP99Ns: solo.P99Ns}
	for _, t := range noisyT {
		tr := report(noisyS, t)
		rep.Tenants = append(rep.Tenants, tr)
		switch t.name {
		case "light":
			f.LightNoisyP99Ns = tr.P99Ns
			f.LightOps = tr.Ops
		case "heavy":
			f.HeavyOps = tr.Ops
		}
	}
	if f.LightSoloP99Ns > 0 {
		f.DegradeRatio = float64(f.LightNoisyP99Ns) / float64(f.LightSoloP99Ns)
	}
	rep.Fairness = f
	// The bound: a 10:1-weighted tenant behind SFQ waits out at most a
	// few in-service requests, so p99 should stay within 8× of solo
	// (absolute floor 2ms keeps the ratio meaningful when solo p99 is
	// a cache-hit microsecond).
	limit := 8 * f.LightSoloP99Ns
	if floor := int64(2 * disk.Millisecond); limit < floor {
		limit = floor
	}
	if f.LightNoisyP99Ns > limit {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"fairness: light p99 %d ns with noisy neighbor exceeds bound %d ns (solo %d ns)",
			f.LightNoisyP99Ns, limit, f.LightSoloP99Ns))
	}
	if f.HeavyOps <= f.LightOps {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"fairness: heavy tenant (%d ops) did not outrun light (%d ops); flood too weak to test anything",
			f.HeavyOps, f.LightOps))
	}
	unmountAll(rep, soloS, noisyS)
	return rep, nil
}

// runReadOnly: a sticky journal-commit write failure drives the ext3
// family ReadOnly mid-run. After the transition every read must keep
// succeeding and every write must fail wrapped in ErrVolumeReadOnly.
func runReadOnly(cfg LoadConfig) (*LoadReport, error) {
	clk := disk.NewClock()
	s := New(clk)
	v, err := s.AddVolume("vol-a", fs.MountOpts{FS: cfg.FS, Faults: true, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if err := s.AddTenant("t0", TenantConfig{QueueCap: 64}); err != nil {
		return nil, err
	}
	t := &loadTenant{
		name: "t0", volume: "vol-a", weight: 1, mode: "closed",
		window: 4, think: disk.Millisecond,
		rng: rand.New(rand.NewSource(cfg.Seed + 3)),
	}
	vols := map[string]*fs.Volume{"vol-a": v}
	if err := setupTenantFiles(vols, []*loadTenant{t}, 4); err != nil {
		return nil, err
	}
	// Phase 1: healthy traffic.
	horizon := disk.Second
	if cfg.Quick {
		horizon = disk.Second / 2
	}
	runLoop(s, []*loadTenant{t}, clk.Now()+horizon, false, nil, nil)
	// The fault: one metadata read fails. Stock ext3 ignores *write*
	// failures (the paper's famous bug) but a failed metadata read is
	// detected by error code and aborts the journal — RStop, remount
	// read-only. Caches are dropped so the next inode-table lookup
	// really touches the device; the fault is one-shot so reads keep
	// working afterward and only the health transition persists.
	if dc, ok := v.FS.(interface{ DropCaches() }); ok {
		dc.DropCaches()
	}
	v.Faults.Arm(&faultinject.Fault{Class: iron.ReadFailure, Target: "inode"})
	ro := &ReadOnlyReport{}
	afterTransition := func() bool {
		h, _ := s.VolumeHealth("vol-a")
		return h == vfs.ReadOnly
	}
	// Only a dispatch changes the volume's health, so the first response
	// to find it read-only is the request that tripped it. That request
	// started on a healthy volume and fails with the fault itself (§5.1:
	// propagate, then stop), not with a refusal: it is named, not graded.
	tripped := false
	runLoop(s, []*loadTenant{t}, clk.Now()+horizon, false,
		func(resp *Response) {
			switch {
			case tripped:
				classifyReadOnly(resp, ro)
			case afterTransition():
				tripped = true
				ro.Trip = fmt.Sprintf("%v: %v", resp.Op, resp.Err)
			}
		},
		func(req *Request, err error) {
			if !afterTransition() || !req.Op.mutates() {
				return
			}
			if errors.Is(err, ErrVolumeReadOnly) {
				ro.WritesTyped++
			} else {
				ro.WritesOther++
			}
		})
	h, err := s.VolumeHealth("vol-a")
	if err != nil {
		return nil, err
	}
	ro.Health = h.String()
	rep := &LoadReport{Scenario: "readonly", FS: cfg.FS, Seed: cfg.Seed, Quick: cfg.Quick,
		SimTimeNs: int64(clk.Now()), ReadOnly: ro,
		Tenants: []TenantReport{report(s, t)}}
	if ro.Health == "healthy" {
		rep.Violations = append(rep.Violations,
			"readonly: volume never left healthy — the journal fault did not bite")
	}
	if ro.ReadsOK == 0 {
		rep.Violations = append(rep.Violations,
			"readonly: no successful reads observed after the transition")
	}
	if ro.WritesTyped == 0 {
		rep.Violations = append(rep.Violations,
			"readonly: no typed write refusals observed after the transition")
	}
	if ro.WritesOther > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"readonly: %d write failures were not ErrVolumeReadOnly", ro.WritesOther))
	}
	return rep, nil
}

// runRepair: volume A carries latent bitmap damage and scrubs under a
// 25%% I/O-share cap while tenant b's volume-B workload runs beside it.
// The bystander's throughput must stay within share+margin of its
// scrub-free baseline, and the scrub must actually repair A.
func runRepair(cfg LoadConfig) (*LoadReport, error) {
	const share = 0.25
	const damagedBlocks = 2048
	horizon := 6 * disk.Second
	if cfg.Quick {
		horizon = 3 * disk.Second
	}
	damaged, err := damagedImage(cfg.FS, damagedBlocks)
	if err != nil {
		return nil, err
	}
	run := func(scrub bool) (*Server, *loadTenant, *RepairReport, error) {
		clk := disk.NewClock()
		s := New(clk)
		if _, err := s.AddVolume("vol-a", fs.MountOpts{FS: cfg.FS, Blocks: damagedBlocks, Base: damaged}); err != nil {
			return nil, nil, nil, err
		}
		if _, err := s.AddVolume("vol-b", fs.MountOpts{FS: cfg.FS}); err != nil {
			return nil, nil, nil, err
		}
		if err := s.AddTenant("b", TenantConfig{QueueCap: 128}); err != nil {
			return nil, nil, nil, err
		}
		t := &loadTenant{
			name: "b", volume: "vol-b", weight: 1, mode: "closed",
			window: 8, think: 200 * disk.Microsecond,
			rng: rand.New(rand.NewSource(cfg.Seed + 4)),
		}
		vols := map[string]*fs.Volume{"vol-b": mustVol(s, "vol-b")}
		if err := setupTenantFiles(vols, []*loadTenant{t}, 4); err != nil {
			return nil, nil, nil, err
		}
		var rr *RepairReport
		if scrub {
			if err := s.StartScrub("vol-a", ScrubConfig{Share: share, Repair: true}); err != nil {
				return nil, nil, nil, err
			}
		}
		start := clk.Now()
		runLoop(s, []*loadTenant{t}, start+horizon, scrub, nil, nil)
		if scrub {
			st, _ := s.ScrubStatus("vol-a")
			rr = &RepairReport{
				Share:    share,
				Problems: st.Problems,
				Repaired: st.Repaired,
				Phase:    string(st.Phase),
			}
			if st.Elapsed > 0 {
				rr.UsedFrac = float64(st.Used) / float64(st.Elapsed)
			}
		}
		return s, t, rr, nil
	}
	baseS, baseT, _, err := run(false)
	if err != nil {
		return nil, err
	}
	scrubS, scrubT, rr, err := run(true)
	if err != nil {
		return nil, err
	}
	rr.BaselineOps = baseT.ops
	rr.UnderRepairOps = scrubT.ops
	if rr.BaselineOps > 0 {
		rr.ThroughputRatio = float64(rr.UnderRepairOps) / float64(rr.BaselineOps)
	}
	rep := &LoadReport{Scenario: "repair", FS: cfg.FS, Seed: cfg.Seed, Quick: cfg.Quick,
		SimTimeNs: int64(scrubS.Clock().Now()), Repair: rr,
		Tenants: []TenantReport{report(baseS, baseT), report(scrubS, scrubT)}}
	rep.Tenants[0].Tenant = "b-baseline"
	rep.Tenants[1].Tenant = "b-under-repair"
	// The cap bound, with 10 points of margin for the indivisible
	// check/repair phases.
	if min := 1 - share - 0.10; rr.ThroughputRatio < min {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"repair: bystander throughput ratio %.3f under scrub breaches 1-share-margin = %.3f",
			rr.ThroughputRatio, min))
	}
	if rr.UsedFrac > share*1.5 {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"repair: scrub consumed %.3f of elapsed time, cap was %.2f", rr.UsedFrac, share))
	}
	if rr.Problems == 0 || rr.Repaired == 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"repair: scrub found %d problems, repaired %d — damage did not exercise repair",
			rr.Problems, rr.Repaired))
	}
	unmountAll(rep, baseS, scrubS)
	return rep, nil
}

// runScale: a population of tenants with mixed arrival models spread
// over volumes cycling through every registered file system.
func runScale(cfg LoadConfig) (*LoadReport, error) {
	nTenants, nVols := 1024, 16
	horizon := 2 * disk.Second
	if cfg.Quick {
		nTenants, nVols = 128, 8
		horizon = disk.Second
	}
	clk := disk.NewClock()
	s := New(clk)
	names := fs.Names()
	vols := make(map[string]*fs.Volume, nVols)
	volIDs := make([]string, 0, nVols)
	for i := 0; i < nVols; i++ {
		id := fmt.Sprintf("vol-%02d", i)
		v, err := s.AddVolume(id, fs.MountOpts{FS: names[i%len(names)], QueueDepth: 8})
		if err != nil {
			return nil, err
		}
		vols[id] = v
		volIDs = append(volIDs, id)
	}
	tenants := make([]*loadTenant, 0, nTenants)
	for i := 0; i < nTenants; i++ {
		name := fmt.Sprintf("t%04d", i)
		t := &loadTenant{
			name: name, volume: volIDs[i%nVols], weight: 1 + i%4,
			rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
		}
		if i%3 == 0 {
			t.mode = "closed"
			t.window = 1
			t.think = 50 * disk.Millisecond
		} else {
			t.mode = "open"
			t.rateHz = 4 + float64(i%8)
		}
		cfgT := TenantConfig{Weight: t.weight, QueueCap: 16}
		if i%5 == 0 {
			cfgT.RateOps = 8
			cfgT.Burst = 4
		}
		if err := s.AddTenant(name, cfgT); err != nil {
			return nil, err
		}
		tenants = append(tenants, t)
	}
	if err := setupTenantFiles(vols, tenants, 1); err != nil {
		return nil, err
	}
	runLoop(s, tenants, clk.Now()+horizon, false, nil, nil)
	agg := stat.NewHistogram()
	sc := &ScaleReport{Tenants: nTenants, Volumes: nVols}
	for _, t := range tenants {
		sc.TotalOps += t.ops
		sc.TotalRejct += t.rejects
		agg.Merge(s.TenantHistogram(t.name))
	}
	q := agg.Quantiles(0.50, 0.99, 0.999)
	sc.AggP50Ns, sc.AggP99Ns, sc.AggP999Ns = q[0], q[1], q[2]
	rep := &LoadReport{Scenario: "scale", FS: "all", Seed: cfg.Seed, Quick: cfg.Quick,
		SimTimeNs: int64(clk.Now()), Scale: sc}
	// Per-tenant rows would swamp the report at this population; keep
	// the first tenant per volume as a sample.
	for i, t := range tenants {
		if i%nVols == 0 && len(rep.Tenants) < 8 {
			rep.Tenants = append(rep.Tenants, report(s, t))
		}
	}
	if sc.TotalOps == 0 {
		rep.Violations = append(rep.Violations, "scale: no operations completed")
	}
	unmountAll(rep, s)
	return rep, nil
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

// classifyReadOnly buckets one post-transition response.
func classifyReadOnly(resp *Response, ro *ReadOnlyReport) {
	switch resp.Op {
	case OpRead, OpStat, OpOpen:
		if resp.Err == nil {
			ro.ReadsOK++
		}
	case OpWrite, OpCreate, OpMkdir, OpRename, OpUnlink:
		if resp.Err == nil {
			return // raced the transition; fine
		}
		if errors.Is(resp.Err, ErrVolumeReadOnly) || errors.Is(resp.Err, vfs.ErrReadOnly) {
			ro.WritesTyped++
		} else {
			ro.WritesOther++
		}
	}
}

// damagedImage builds a populated, cleanly unmounted image of the named
// FS with deterministic bitmap damage — scrub fodder.
func damagedImage(name string, blocks int64) (*disk.Image, error) {
	vol, err := fs.MountVolume(fs.MountOpts{FS: name, Blocks: blocks, Label: "repair-image"})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 2*4096)
	for i := range payload {
		payload[i] = byte(i % 241)
	}
	for i := 0; i < 24; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := vol.FS.Create(p, 0o644); err != nil {
			return nil, err
		}
		if _, err := vol.FS.Write(p, 0, payload); err != nil {
			return nil, err
		}
	}
	if err := vol.Unmount(); err != nil {
		return nil, err
	}
	if n, err := fs.DamageBitmaps(name, vol.Disk, 16); err != nil || n == 0 {
		return nil, fmt.Errorf("ironload: damage image: %d flips, %v", n, err)
	}
	return vol.Disk.Image(), nil
}

// mustVol fetches a hosted volume handle; AddVolume just created it.
func mustVol(s *Server, id string) *fs.Volume {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.volumes[id].vol
}

// unmountAll unmounts the servers' volumes, folding errors into the
// report as violations — a dirty unmount after a clean run is a bug.
func unmountAll(rep *LoadReport, servers ...*Server) {
	for _, s := range servers {
		if err := s.Unmount(); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("unmount: %v", err))
		}
	}
}
