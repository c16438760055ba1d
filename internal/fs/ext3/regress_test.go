package ext3

import (
	"testing"

	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// Regression tests for the three scrub/repair error-handling bugs. Each
// test fails against the pre-fix code.

// Bug 1: the scrubber discarded the error from a failed repair write and
// counted the block Repaired. The verdict must be Unrecovered, recorded,
// and (with FixBugs) degrade the volume per the write-error policy.
func TestScrubRepairWriteFailureIsUnrecovered(t *testing.T) {
	_, fdev, rec, fs := ironStack(t, AllIron())
	if err := fs.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/dir/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs = remountCold(t, fs)
	// One unreadable directory block; every write to it fails too, so the
	// replica repair cannot land.
	fdev.Arm(&faultinject.Fault{Class: iron.ReadFailure, Target: BTDir, Count: 1})
	fdev.Arm(&faultinject.Fault{Class: iron.WriteFailure, Target: BTDir, Sticky: true})

	rep, err := fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentErrors != 1 {
		t.Fatalf("latent errors = %d, want 1 (report %+v)", rep.LatentErrors, rep)
	}
	if rep.Repaired != 0 || rep.Unrecovered != 1 {
		t.Fatalf("failed repair write misreported: %+v", rep)
	}
	if !rec.Detections().Has(iron.DErrorCode) {
		t.Errorf("repair-write failure not recorded as a detection:\n%s", rec.Summary())
	}
	if got := fs.Health(); got != vfs.ReadOnly {
		t.Errorf("health = %v after repair-write failure with FixBugs, want ReadOnly", got)
	}
}

// Bug 2: the scrubber gated checksum verification on MetaChecksum alone,
// so a Dc-only volume scrubbed its data blocks without ever verifying
// them. Corruption on such a volume must be counted.
func TestScrubVerifiesDataOnDcOnlyVolume(t *testing.T) {
	_, fdev, rec, fs := ironStack(t, Options{DataChecksum: true})
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, make([]byte, 3*BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs = remountCold(t, fs)
	fdev.Arm(&faultinject.Fault{Class: iron.Corruption, Target: BTData, Sticky: true})

	rep, err := fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt == 0 {
		t.Fatalf("data corruption missed on Dc-only volume: %+v", rep)
	}
	if !rec.Detections().Has(iron.DRedundancy) {
		t.Errorf("corruption not recorded:\n%s", rec.Summary())
	}
	// No metadata replica covers data and the volume has no parity: the
	// damage is found but cannot be healed.
	if rep.Repaired != 0 || rep.Unrecovered == 0 {
		t.Fatalf("Dc-only volume cannot repair data, yet: %+v", rep)
	}
}

// Bug 3: Repair reported success (and a cached-clean volume) when its
// commit failed partway. The contract is consistent-or-degraded: the
// error surfaces, nothing is claimed Fixed, the staged state is
// discarded so a re-check still sees the damage, and the volume degrades.
func TestRepairCommitFailureLeavesHonestState(t *testing.T) {
	_, fdev, _, fs := ironStack(t, Options{FixBugs: true})
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, make([]byte, 3*BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Clear an in-use block's bitmap bit, committed to disk: real damage
	// the check must find and the repair will try to fix.
	rootIn, err := fs.LoadLocked(RootIno)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := fs.bmap(&rootIn, 0, false)
	if err != nil || blk == 0 {
		t.Fatalf("no root dir block: %d %v", blk, err)
	}
	g := fs.lay.groupOf(blk)
	bm, err := fs.txMeta(int64(fs.gds[g].DataBitmap), BTBitmap)
	if err != nil {
		t.Fatal(err)
	}
	clearBit(bm, blk-fs.lay.groupStart(uint32(g)))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Every journal-region write now fails: the repair transaction cannot
	// commit.
	jr := faultinject.BlockRange{
		Start: int64(fs.lay.sb.JournalStart),
		End:   int64(fs.lay.sb.JournalStart + fs.lay.sb.JournalLen),
	}
	fdev.Arm(&faultinject.Fault{Class: iron.WriteFailure, Range: jr, Sticky: true})

	rep, err := fs.Repair()
	if err == nil {
		t.Fatalf("repair with failing commit reported success: %+v", rep)
	}
	if len(rep.Found) == 0 {
		t.Fatal("repair found nothing on a damaged volume")
	}
	if len(rep.Fixed) != 0 || len(rep.Unrecovered) != len(rep.Found) {
		t.Fatalf("partial failure misattributed: %+v", rep)
	}
	if got := fs.Health(); got != vfs.ReadOnly {
		t.Errorf("health = %v after failed repair, want ReadOnly", got)
	}
	fdev.Disarm()
	// The staged half-repair was discarded, cache copies included: a
	// fresh check still sees the original damage, not a phantom-clean
	// volume.
	probs, err := fs.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) == 0 {
		t.Fatal("damage vanished without a committed repair")
	}
}
