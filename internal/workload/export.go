package workload

// Machine-readable exports of the Table 6 sweep and the space study, for
// ironbench -json. Committed snapshots (BENCH_N.json at the repo root) pin
// the simulated-performance profile the same way the crash-count golden
// pins exploration coverage: the simulator is deterministic, so any drift
// in these numbers is a real behavioral change, not noise.

// CellJSON is one (variant, benchmark) measurement.
type CellJSON struct {
	// SimTimeNs is the workload's simulated run time in nanoseconds.
	SimTimeNs int64 `json:"sim_time_ns"`
	// Relative is SimTimeNs normalized to the baseline ext3 row
	// (1.0 = parity, >1 slowdown, <1 speedup).
	Relative float64 `json:"relative"`
}

// Table6RowJSON is one variant row.
type Table6RowJSON struct {
	// Variant is the row label in the paper's notation
	// ("(Baseline: ext3)", "Mc", "McMrDcDpTc", ...).
	Variant string `json:"variant"`
	// Cells maps benchmark name to its measurement.
	Cells map[string]CellJSON `json:"cells"`
}

// Table6JSON is the full sweep.
type Table6JSON struct {
	Benchmarks []string        `json:"benchmarks"`
	Rows       []Table6RowJSON `json:"rows"`
}

// JSON converts the sweep for serialization.
func (t *Table6) JSON() *Table6JSON {
	out := &Table6JSON{Benchmarks: append([]string(nil), t.Benchmarks...)}
	for _, row := range t.Rows {
		r := Table6RowJSON{Variant: row.Variant.Label(), Cells: map[string]CellJSON{}}
		for name, c := range row.Cells {
			r.Cells[name] = CellJSON{SimTimeNs: int64(c.SimTime), Relative: c.Relative}
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

// SpaceJSON is one profile's space-overhead measurement.
type SpaceJSON struct {
	Profile       string  `json:"profile"`
	Files         int     `json:"files"`
	UsedBlocks    int64   `json:"used_blocks"`
	CksumBlocks   int64   `json:"cksum_blocks"`
	ReplicaBlocks int64   `json:"replica_blocks"`
	ParityBlocks  int64   `json:"parity_blocks"`
	CksumPct      float64 `json:"cksum_pct"`
	ReplicaPct    float64 `json:"replica_pct"`
	ParityPct     float64 `json:"parity_pct"`
}

// JSON converts one space report for serialization.
func (r SpaceReport) JSON() SpaceJSON {
	return SpaceJSON{
		Profile:       r.Profile.Name,
		Files:         r.Profile.Files,
		UsedBlocks:    r.UsedBlocks,
		CksumBlocks:   r.CksumBlocks,
		ReplicaBlocks: r.ReplicaBlocks,
		ParityBlocks:  r.ParityBlocks,
		CksumPct:      r.CksumPct(),
		ReplicaPct:    r.ReplicaPct(),
		ParityPct:     r.ParityPct(),
	}
}

// MultiClientRunJSON is one multi-client measurement (one configuration of
// one file system on one workload).
type MultiClientRunJSON struct {
	Clients    int `json:"clients"`
	QueueDepth int `json:"queue_depth"`
	// Ops is the total client operations completed.
	Ops int `json:"ops"`
	// SimTimeNs is the measured phase's simulated duration.
	SimTimeNs int64 `json:"sim_time_ns"`
	// OpsPerSec is Ops per simulated second.
	OpsPerSec float64 `json:"ops_per_sec"`
	// MeanLatencyNs is the mean per-op latency (queueing included).
	MeanLatencyNs int64 `json:"mean_latency_ns"`
	// P50Ns/P99Ns/P999Ns are exact nearest-rank order statistics of the
	// per-op latency distribution — the simulated clock is deterministic,
	// so these are true quantiles, not bucketed estimates.
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	// Latency is the latency distribution's headline statistics, rendered.
	Latency string `json:"latency"`
}

func runJSON(r MultiClientReport) MultiClientRunJSON {
	out := MultiClientRunJSON{
		Clients: r.Clients, QueueDepth: r.QueueDepth,
		Ops: r.Ops, SimTimeNs: int64(r.SimTime), OpsPerSec: r.OpsPerSec,
		Latency: r.Lat.String(),
	}
	if r.Lat.Count() > 0 {
		out.MeanLatencyNs = r.Lat.Mean()
		q := r.Lat.Quantiles(0.50, 0.99, 0.999)
		out.P50Ns, out.P99Ns, out.P999Ns = q[0], q[1], q[2]
	}
	return out
}

// SweepRowJSON is one deterministic multi-client measurement: N modeled
// clients under the adaptive scheduler against the shared serial baseline.
// The runs are driven by the single-threaded virtual-time dispatcher, so
// every field — the exact p50/p99/p999 included — is bit-deterministic
// and snapshot-pinnable.
type SweepRowJSON struct {
	FS       string `json:"fs"`
	Workload string `json:"workload"`
	// Clients is the modeled client count (the ladder is 4/64/128/256).
	Clients int `json:"clients"`
	// Baseline is one client at queue depth 1 — the serial stack.
	Baseline MultiClientRunJSON `json:"baseline"`
	// Concurrent is N clients over the adaptive queued scheduler.
	Concurrent MultiClientRunJSON `json:"concurrent"`
	// Speedup is concurrent over baseline throughput, exact.
	Speedup float64 `json:"speedup"`
}

// JSON converts one sweep row for serialization.
func (r SweepRow) JSON() SweepRowJSON {
	return SweepRowJSON{
		FS: r.Concurrent.FS, Workload: r.Concurrent.Workload,
		Clients:    r.Concurrent.Clients,
		Baseline:   runJSON(r.Baseline),
		Concurrent: runJSON(r.Concurrent),
		Speedup:    r.Speedup(),
	}
}

// FsckRunJSON is one timed consistency check.
type FsckRunJSON struct {
	Workers  int `json:"workers"`
	Problems int `json:"problems"`
	// DiskTimeNs is the simulated clock delta around the check.
	DiskTimeNs int64 `json:"disk_time_ns"`
	// CPUTimeNs is the virtual-CPU critical path across the check's
	// phases (per-worker maximum, summed over phases).
	CPUTimeNs int64 `json:"cpu_time_ns"`
	// ElapsedNs is DiskTimeNs + CPUTimeNs.
	ElapsedNs int64 `json:"elapsed_ns"`
}

// FsckRowJSON is one file system's serial-versus-parallel fsck
// comparison over identically damaged images.
type FsckRowJSON struct {
	FS    string `json:"fs"`
	Flips int    `json:"flips"`
	// Serial is the one-worker check — the mode the goldens pin.
	Serial FsckRunJSON `json:"serial"`
	// Parallel is the same check with the verify stages fanned out. Its
	// problem list is identical to Serial's (the runner verifies this).
	Parallel FsckRunJSON `json:"parallel"`
	// Speedup is serial over parallel elapsed time. Both terms are
	// deterministic, so snapshots pin the exact value.
	Speedup float64 `json:"speedup"`
}

func fsckRunJSON(r FsckRun) FsckRunJSON {
	return FsckRunJSON{
		Workers: r.Workers, Problems: r.Problems,
		DiskTimeNs: int64(r.DiskTime), CPUTimeNs: int64(r.CPUTime),
		ElapsedNs: int64(r.Elapsed),
	}
}

// JSON converts one fsck comparison row for serialization.
func (r FsckRow) JSON() FsckRowJSON {
	return FsckRowJSON{
		FS: r.FS, Flips: r.Flips,
		Serial:   fsckRunJSON(r.Serial),
		Parallel: fsckRunJSON(r.Par),
		Speedup:  r.Speedup(),
	}
}

// BenchJSON is ironbench -json's top-level document.
type BenchJSON struct {
	Table6 *Table6JSON    `json:"table6,omitempty"`
	Space  []SpaceJSON    `json:"space,omitempty"`
	Sweep  []SweepRowJSON `json:"sweep,omitempty"`
	Fsck   []FsckRowJSON  `json:"fsck,omitempty"`
}
