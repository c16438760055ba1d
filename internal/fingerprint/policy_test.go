package fingerprint

// Policy-assertion tests: each test pins one of the paper's §5/§6 findings
// to the reproduction, so a regression in any file system's failure policy
// fails loudly. Fingerprint runs are cached per target — they are the
// expensive part.

import (
	"sync"
	"testing"

	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

var (
	resMu    sync.Mutex
	resCache = map[string]*Result{}
)

// resultFor runs (once) and caches the fingerprint of a target.
func resultFor(t *testing.T, name string) *Result {
	t.Helper()
	resMu.Lock()
	defer resMu.Unlock()
	if r, ok := resCache[name]; ok {
		return r
	}
	target, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown target %q", name)
	}
	r, err := Run(target, Config{})
	if err != nil {
		t.Fatalf("fingerprint %s: %v", name, err)
	}
	resCache[name] = r
	return r
}

// scenarios selects the applicable, fired scenarios matching a filter.
func scenarios(r *Result, f func(Scenario) bool) []Scenario {
	var out []Scenario
	for _, s := range r.Scenarios {
		if s.Applicable && s.Fired > 0 && f(s) {
			out = append(out, s)
		}
	}
	return out
}

// --- ext3 (§5.1) -----------------------------------------------------------

// Finding: "when a write fails, ext3 does not record the error code;
// hence, write errors are often ignored" — most write-failure scenarios
// show no detection at all (DZero).
func TestExt3IgnoresWriteErrors(t *testing.T) {
	r := resultFor(t, "ext3")
	wf := scenarios(r, func(s Scenario) bool { return s.Fault == iron.WriteFailure })
	if len(wf) == 0 {
		t.Fatal("no write-failure scenarios fired")
	}
	ignored := 0
	for _, s := range wf {
		if s.Detection.Empty() {
			ignored++
		}
	}
	if ignored*2 < len(wf) {
		t.Errorf("only %d/%d write-failure scenarios ignored; expected the DZero majority", ignored, len(wf))
	}
}

// Finding: "for read failures, ext3 often aborts the journal" — metadata
// read failures record RStop and leave the file system read-only.
func TestExt3AbortsJournalOnMetadataReadFailure(t *testing.T) {
	r := resultFor(t, "ext3")
	meta := scenarios(r, func(s Scenario) bool {
		return s.Fault == iron.ReadFailure && (s.Block == "inode" || s.Block == "dir")
	})
	if len(meta) == 0 {
		t.Fatal("no metadata read-failure scenarios fired")
	}
	for _, s := range meta {
		if !s.Recovery.Has(iron.RStop) {
			t.Errorf("%s/%s: no RStop after metadata read failure", s.Workload, s.Block)
		}
		if !s.Detection.Has(iron.DErrorCode) {
			t.Errorf("%s/%s: error code not checked", s.Workload, s.Block)
		}
	}
}

// Finding: "errors are not always propagated to the user (e.g., truncate
// and rmdir fail silently)". A direct experiment: the indirect block read
// under truncate fails, yet the call returns success.
func TestExt3TruncateFailsSilently(t *testing.T) {
	target, _ := ByName("ext3")
	cfg := Config{}.withDefaults()
	img, err := buildImage(target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := instance(target, cfg, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.FS.Mount(); err != nil {
		t.Fatal(err)
	}
	vol.Faults.Arm(&faultinject.Fault{Class: iron.ReadFailure, Target: "indirect", Sticky: true})
	if err := vol.FS.Truncate(truncMe, 4096); err != nil {
		t.Errorf("truncate with failed indirect read returned %v; the reproduced bug returns success", err)
	}
	if vol.Faults.Fired() == 0 {
		t.Fatal("the indirect fault never fired")
	}
}

// Finding: ext3's superblock replicas are never updated and never used —
// a failed superblock read at mount has no RRedundancy recovery.
func TestExt3StaleSuperblockReplicasUnused(t *testing.T) {
	r := resultFor(t, "ext3")
	mounts := scenarios(r, func(s Scenario) bool {
		return s.Workload == "p" && s.Block == "super" && s.Fault == iron.ReadFailure
	})
	if len(mounts) == 0 {
		t.Fatal("mount/super scenario did not fire")
	}
	for _, s := range mounts {
		if s.Recovery.Has(iron.RRedundancy) {
			t.Error("ext3 used a superblock replica; the paper found it never does")
		}
		if s.Err == nil {
			t.Error("mount with failed superblock read succeeded")
		}
	}
}

// --- ReiserFS (§5.2) --------------------------------------------------------

// Finding: "the most prominent aspect of the recovery policy of ReiserFS
// is its tendency to panic the system upon detection of virtually any
// write failure."
func TestReiserPanicsOnMetadataWriteFailure(t *testing.T) {
	r := resultFor(t, "reiserfs")
	wf := scenarios(r, func(s Scenario) bool {
		return s.Fault == iron.WriteFailure && s.Block != "data"
	})
	if len(wf) == 0 {
		t.Fatal("no metadata write-failure scenarios fired")
	}
	panics := 0
	for _, s := range wf {
		if s.Health == vfs.Panicked {
			panics++
			if !s.Recovery.Has(iron.RStop) {
				t.Errorf("%s/%s: panicked without recording RStop", s.Workload, s.Block)
			}
		}
	}
	if panics*4 < len(wf)*3 {
		t.Errorf("only %d/%d metadata write failures panicked; expected the vast majority", panics, len(wf))
	}
}

// Finding (bug): "when an ordered data block write fails, ReiserFS
// journals and commits the transaction without handling the error".
func TestReiserIgnoresOrderedDataWriteFailure(t *testing.T) {
	r := resultFor(t, "reiserfs")
	df := scenarios(r, func(s Scenario) bool {
		return s.Fault == iron.WriteFailure && s.Block == "data"
	})
	if len(df) == 0 {
		t.Fatal("no data write-failure scenarios fired")
	}
	for _, s := range df {
		if s.Health == vfs.Panicked {
			t.Errorf("%s: data write failure panicked; the reproduced bug commits anyway", s.Workload)
		}
		if s.Err != nil {
			t.Errorf("%s: data write failure propagated %v; the reproduced bug returns success", s.Workload, s.Err)
		}
		if !s.Detection.Has(iron.DErrorCode) {
			t.Errorf("%s: ReiserFS checks write error codes even when it mishandles them", s.Workload)
		}
	}
}

// Finding: ReiserFS sanity-checks its tree blocks extensively; corruption
// of the root or internal nodes is caught by DSanity (and often panics).
func TestReiserSanityChecksTreeCorruption(t *testing.T) {
	r := resultFor(t, "reiserfs")
	corr := scenarios(r, func(s Scenario) bool {
		return s.Fault == iron.Corruption && (s.Block == "root" || s.Block == "internal")
	})
	if len(corr) == 0 {
		t.Fatal("no tree corruption scenarios fired")
	}
	for _, s := range corr {
		if !s.Detection.Has(iron.DSanity) {
			t.Errorf("%s/%s: tree corruption not caught by sanity checks", s.Workload, s.Block)
		}
	}
}

// --- JFS (§5.3) --------------------------------------------------------------

// Finding: "On a block read failure to the primary superblock, JFS
// accesses the alternate copy to complete the mount; however, a corrupt
// primary results in a mount failure" — the signature inconsistency.
func TestJFSAlternateSuperblockInconsistency(t *testing.T) {
	r := resultFor(t, "jfs")
	readFail := scenarios(r, func(s Scenario) bool {
		return s.Workload == "p" && s.Block == "super" && s.Fault == iron.ReadFailure
	})
	if len(readFail) == 0 {
		t.Fatal("mount/super read-failure scenario did not fire")
	}
	for _, s := range readFail {
		if !s.Recovery.Has(iron.RRedundancy) {
			t.Error("JFS did not use the alternate superblock on a read failure")
		}
		if s.Err != nil {
			t.Errorf("mount should succeed from the alternate copy, got %v", s.Err)
		}
	}
	corrupt := scenarios(r, func(s Scenario) bool {
		return s.Workload == "p" && s.Block == "super" && s.Fault == iron.Corruption
	})
	if len(corrupt) == 0 {
		t.Fatal("mount/super corruption scenario did not fire")
	}
	for _, s := range corrupt {
		if s.Recovery.Has(iron.RRedundancy) {
			t.Error("JFS used the alternate for a corrupt primary; the paper found it does not")
		}
		if s.Err == nil {
			t.Error("mount with corrupt primary superblock succeeded")
		}
	}
}

// Finding (bug): "JFS does not use its secondary copies of aggregate inode
// tables when an error code is returned for an aggregate inode read."
func TestJFSSecondaryAggregateInodeUnused(t *testing.T) {
	r := resultFor(t, "jfs")
	ai := scenarios(r, func(s Scenario) bool {
		return s.Block == "aggr-inode" && s.Fault == iron.ReadFailure
	})
	if len(ai) == 0 {
		t.Fatal("aggregate-inode read-failure scenario did not fire")
	}
	for _, s := range ai {
		if s.Recovery.Has(iron.RRedundancy) {
			t.Error("JFS used the secondary aggregate inode; the reproduced bug never does")
		}
		if s.Err == nil {
			t.Error("mount succeeded despite unusable aggregate inode")
		}
	}
}

// Finding: "explicit crashes are used when a block allocation map or inode
// allocation map read fails."
func TestJFSCrashesOnAllocationMapReadFailure(t *testing.T) {
	r := resultFor(t, "jfs")
	maps := scenarios(r, func(s Scenario) bool {
		return s.Fault == iron.ReadFailure && (s.Block == "bmap" || s.Block == "imap") && s.Workload != "p" && s.Workload != "s"
	})
	if len(maps) == 0 {
		t.Fatal("no allocation-map read-failure scenarios fired")
	}
	crashed := 0
	for _, s := range maps {
		if s.Health == vfs.Panicked {
			crashed++
		}
	}
	if crashed*2 < len(maps) {
		t.Errorf("only %d/%d allocation-map read failures crashed", crashed, len(maps))
	}
}

// Finding (bug): "a blank page is sometimes returned to the user (RGuess)
// ... when a read to an internal tree block does not pass its sanity
// check."
func TestJFSBlankPageOnInternalCorruption(t *testing.T) {
	r := resultFor(t, "jfs")
	internal := scenarios(r, func(s Scenario) bool {
		return s.Fault == iron.Corruption && s.Block == "internal" && s.Workload == "d"
	})
	if len(internal) == 0 {
		t.Skip("internal corruption under read workload did not fire")
	}
	for _, s := range internal {
		if !s.Recovery.Has(iron.RGuess) {
			t.Errorf("read over corrupt internal block: recovery %v, want RGuess", s.Recovery.Levels())
		}
		if s.Err != nil {
			t.Errorf("the blank-page bug hides the failure, got %v", s.Err)
		}
	}
}

// --- NTFS (§5.4) -------------------------------------------------------------

// Finding: "NTFS aggressively uses retry when operations fail (e.g., up to
// seven times under read failures)".
func TestNTFSRetriesReadsSevenTimes(t *testing.T) {
	r := resultFor(t, "ntfs")
	rf := scenarios(r, func(s Scenario) bool { return s.Fault == iron.ReadFailure })
	if len(rf) == 0 {
		t.Fatal("no read-failure scenarios fired")
	}
	retried := 0
	for _, s := range rf {
		if s.Recovery.Has(iron.RRetry) {
			retried++
			// A sticky fault on one block costs 8 attempts = at least
			// 8 firings for the first access alone.
			if s.Fired < 8 {
				t.Errorf("%s/%s: only %d firings; 7 retries should produce >= 8", s.Workload, s.Block, s.Fired)
			}
		}
	}
	if retried*2 < len(rf) {
		t.Errorf("only %d/%d read-failure scenarios retried", retried, len(rf))
	}
}

// Finding: NTFS survives transient faults that defeat the Linux file
// systems — with one-shot faults, most NTFS operations still succeed.
func TestNTFSToleratesTransientReadFaults(t *testing.T) {
	target, _ := ByName("ntfs")
	res, err := Run(target, Config{Transient: true, Faults: []iron.FaultClass{iron.ReadFailure}})
	if err != nil {
		t.Fatal(err)
	}
	fired, survived := 0, 0
	for _, s := range res.Scenarios {
		if !s.Applicable || s.Fired == 0 {
			continue
		}
		fired++
		if s.Err == nil && s.Health == vfs.Healthy {
			survived++
		}
	}
	if fired == 0 {
		t.Fatal("no transient scenarios fired")
	}
	if survived*4 < fired*3 {
		t.Errorf("NTFS survived only %d/%d transient read faults", survived, fired)
	}
}

// --- Cross-cutting (§5.6, Table 5) --------------------------------------------

// Finding: "while virtually all file systems include some machinery to
// detect disk failures, none of them apply redundancy to enable recovery
// ... the lone exception is the minimal superblock redundancy in JFS."
func TestNoCommodityRedundancy(t *testing.T) {
	for _, name := range []string{"ext3", "reiserfs", "ntfs"} {
		r := resultFor(t, name)
		for _, s := range scenarios(r, func(s Scenario) bool { return s.Recovery.Has(iron.RRedundancy) }) {
			t.Errorf("%s: %s/%s/%v used redundancy; commodity file systems have none", name, s.Workload, s.Block, s.Fault)
		}
	}
	jfs := resultFor(t, "jfs")
	for _, s := range scenarios(jfs, func(s Scenario) bool { return s.Recovery.Has(iron.RRedundancy) }) {
		if s.Block != "super" {
			t.Errorf("jfs: redundancy on %s; the paper found it only for the superblock", s.Block)
		}
	}
}

// Finding: every commodity file system checks error codes on reads —
// DErrorCode is the dominant detection technique (Table 5).
func TestErrorCodesAreTheDominantDetection(t *testing.T) {
	for _, name := range []string{"ext3", "reiserfs", "jfs", "ntfs"} {
		r := resultFor(t, name)
		rf := scenarios(r, func(s Scenario) bool { return s.Fault == iron.ReadFailure })
		withEC := 0
		for _, s := range rf {
			if s.Detection.Has(iron.DErrorCode) {
				withEC++
			}
		}
		if withEC*2 < len(rf) {
			t.Errorf("%s: only %d/%d read failures detected via error codes", name, withEC, len(rf))
		}
	}
}

// --- ixt3 (§6.2, Figure 3) ------------------------------------------------------

// Finding: "ixt3 detects and recovers from over 200 possible different
// partial-error scenarios." The exact counts are also pinned: they are the
// robustness line of `ironfp -summary -robust`, and they move only when a
// scenario's outcome or the fault injector's classification moves.
func TestIxt3RobustnessCount(t *testing.T) {
	r := resultFor(t, "ixt3")
	detected, recovered, fired := r.DetectedAndRecovered()
	t.Logf("ixt3: fired=%d detected=%d recovered=%d", fired, detected, recovered)
	if detected <= 200 || recovered <= 200 {
		t.Errorf("ixt3 detected=%d recovered=%d; the paper reports over 200", detected, recovered)
	}
	if fired != 244 || detected != 244 || recovered != 243 {
		t.Errorf("ixt3 fired=%d detected=%d recovered=%d; pinned 244/244/243", fired, detected, recovered)
	}
}

// Finding: metadata read failures and corruption recover from the replica
// (RRedundancy) with no error surfaced to the application.
func TestIxt3MetadataRedundancy(t *testing.T) {
	r := resultFor(t, "ixt3")
	metaTypes := map[iron.BlockType]bool{
		"inode": true, "dir": true, "bitmap": true, "i-bitmap": true, "indirect": true,
	}
	meta := scenarios(r, func(s Scenario) bool {
		return metaTypes[s.Block] && (s.Fault == iron.ReadFailure || s.Fault == iron.Corruption)
	})
	if len(meta) < 20 {
		t.Fatalf("only %d metadata fault scenarios fired", len(meta))
	}
	for _, s := range meta {
		if !s.Recovery.Has(iron.RRedundancy) {
			t.Errorf("%s/%s/%v: no redundancy recovery (recovery=%v)", s.Workload, s.Block, s.Fault, s.Recovery.Levels())
		}
		if s.Err != nil {
			t.Errorf("%s/%s/%v: error %v surfaced despite replicas", s.Workload, s.Block, s.Fault, s.Err)
		}
	}
}

// Finding: corruption is detected end-to-end by checksums (DRedundancy) —
// including corrupt *journal* data at recovery, which the transactional
// checksum refuses to replay.
func TestIxt3ChecksumsCatchCorruption(t *testing.T) {
	r := resultFor(t, "ixt3")
	corr := scenarios(r, func(s Scenario) bool {
		return s.Fault == iron.Corruption && s.Block != "j-super" && s.Block != "super"
	})
	if len(corr) == 0 {
		t.Fatal("no corruption scenarios fired")
	}
	missed := 0
	for _, s := range corr {
		if !s.Detection.Has(iron.DRedundancy) && !s.Detection.Has(iron.DSanity) {
			missed++
		}
	}
	if missed > 0 {
		t.Errorf("%d/%d corruption scenarios went undetected by ixt3", missed, len(corr))
	}
	jdata := scenarios(r, func(s Scenario) bool {
		return s.Fault == iron.Corruption && s.Block == "j-data" && s.Workload == "s"
	})
	for _, s := range jdata {
		if !s.Detection.Has(iron.DRedundancy) {
			t.Error("corrupt journal data replayed without the transactional checksum noticing")
		}
	}
}

// Finding: ixt3 fixes ext3's DZero write handling — write failures are
// detected and stop the file system before damage spreads.
func TestIxt3DetectsWriteFailures(t *testing.T) {
	r := resultFor(t, "ixt3")
	wf := scenarios(r, func(s Scenario) bool { return s.Fault == iron.WriteFailure })
	if len(wf) == 0 {
		t.Fatal("no write-failure scenarios fired")
	}
	for _, s := range wf {
		if s.Detection.Empty() {
			t.Errorf("%s/%s: write failure undetected by ixt3", s.Workload, s.Block)
		}
	}
}

// Determinism: two full fingerprints of the same target are identical.
func TestFingerprintDeterministic(t *testing.T) {
	target, _ := ByName("ext3")
	a, err := Run(target, Config{Faults: []iron.FaultClass{iron.ReadFailure}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(target, Config{Faults: []iron.FaultClass{iron.ReadFailure}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Matrices[iron.ReadFailure].Render() != b.Matrices[iron.ReadFailure].Render() {
		t.Error("fingerprint is not deterministic")
	}
}

// Table 5 sanity: the summary counts reflect the headline relationships —
// ReiserFS stops more than ext3; JFS retries more than ext3.
func TestTable5Relationships(t *testing.T) {
	ext3 := resultFor(t, "ext3").Counts()
	reiser := resultFor(t, "reiserfs").Counts()
	jfs := resultFor(t, "jfs").Counts()

	relStop := func(c iron.TechniqueCounts) float64 {
		return float64(c.Recovery[iron.RStop]) / float64(c.Applicable)
	}
	if relStop(reiser) <= relStop(ext3) {
		t.Errorf("ReiserFS RStop rate (%.2f) not above ext3 (%.2f)", relStop(reiser), relStop(ext3))
	}
	relRetry := func(c iron.TechniqueCounts) float64 {
		return float64(c.Recovery[iron.RRetry]) / float64(c.Applicable)
	}
	if relRetry(jfs) <= relRetry(ext3) {
		t.Errorf("JFS RRetry rate (%.2f) not above ext3 (%.2f)", relRetry(jfs), relRetry(ext3))
	}
	if iron.RenderTable5([]iron.TechniqueCounts{ext3, reiser, jfs}) == "" {
		t.Error("empty Table 5 render")
	}
}

// Finding (§5.6): "retry is underutilized" — NTFS survives transient
// faults best, ReiserFS (panic-happy) worst, with ext3 in between. The
// counts behind the rates are pinned exactly: they are the only harness
// output that counts the one-shot faults a retry policy absorbs, so a
// retry added or lost on any read path moves them. Re-pin on purpose,
// with the reason.
func TestTransientSurvivalOrdering(t *testing.T) {
	reports, err := RunTransientStudy([]Target{Ext3(), Reiser(), NTFS()})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][3]int{ // fired, survived, stopped
		"ext3":     {170, 100, 59},
		"reiserfs": {128, 7, 50},
		"ntfs":     {110, 110, 0},
	}
	rate := map[string]float64{}
	for _, r := range reports {
		rate[r.Target] = r.SurvivalRate()
		if got := [3]int{r.Fired, r.Survived, r.Stopped}; got != want[r.Target] {
			t.Errorf("%s: fired/survived/stopped %v, want %v", r.Target, got, want[r.Target])
		}
	}
	if len(rate) != len(want) {
		t.Fatalf("reports for %d targets, want %d", len(rate), len(want))
	}
	if !(rate["ntfs"] > rate["ext3"] && rate["ext3"] > rate["reiserfs"]) {
		t.Errorf("survival ordering violated: ntfs=%.2f ext3=%.2f reiserfs=%.2f",
			rate["ntfs"], rate["ext3"], rate["reiserfs"])
	}
	if rate["ntfs"] < 0.95 {
		t.Errorf("NTFS survival %.2f; it should absorb essentially all transients", rate["ntfs"])
	}
	if rate["reiserfs"] > 0.25 {
		t.Errorf("ReiserFS survival %.2f; panics should doom most transients", rate["reiserfs"])
	}
	if RenderTransient(reports) == "" {
		t.Error("empty transient render")
	}
}
