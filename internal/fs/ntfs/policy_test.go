package ntfs

import (
	"testing"
	"testing/quick"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

func ironStack(t *testing.T) (*disk.Disk, *faultinject.Device, *iron.Recorder, *FS) {
	t.Helper()
	d, err := disk.New(8192, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fdev := faultinject.New(d, nil)
	if err := Mkfs(fdev); err != nil {
		t.Fatal(err)
	}
	fdev.SetResolver(NewResolver(d))
	rec := iron.NewRecorder()
	fs := New(fdev, rec)
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	return d, fdev, rec, fs
}

// countRetries counts RRetry events in the recorder.
func countRetries(rec *iron.Recorder) int {
	n := 0
	for _, e := range rec.Events() {
		if e.Recovery == iron.RRetry {
			n++
		}
	}
	return n
}

// TestReadRetryBudgetIsSeven: a sticky read fault on one MFT block draws
// exactly 7 retries (8 attempts) before the error propagates — §5.4's
// headline number.
func TestReadRetryBudgetIsSeven(t *testing.T) {
	_, fdev, rec, fs := ironStack(t)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.DropCaches()
	rec.Reset()
	fdev.Arm(&faultinject.Fault{Class: iron.ReadFailure, Target: BTMFT, Sticky: true})
	if err := fs.Open("/f"); err == nil {
		t.Fatal("open succeeded under a sticky MFT read fault")
	}
	if got := countRetries(rec); got != readRetries {
		t.Errorf("retries = %d, want %d", got, readRetries)
	}
	if fired := fdev.Fired(); fired != readRetries+1 {
		t.Errorf("attempts = %d, want %d", fired, readRetries+1)
	}
}

// TestTransientFaultWithinBudgetSurvives: any fault shorter than the
// budget is absorbed with no error and no health change.
func TestTransientFaultWithinBudgetSurvives(t *testing.T) {
	f := func(raw uint8) bool {
		count := int(raw%uint8(readRetries)) + 1 // 1..7
		_, fdev, _, fs := ironStack(&testing.T{})
		if err := fs.Create("/f", 0o644); err != nil {
			return false
		}
		if err := fs.Sync(); err != nil {
			return false
		}
		fs.DropCaches()
		fdev.Arm(&faultinject.Fault{Class: iron.ReadFailure, Target: BTMFT, Count: count})
		if err := fs.Open("/f"); err != nil {
			return false
		}
		return fs.Health() == vfs.Healthy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestDataWriteErrorRecordedNotUsed: §5.4 — "when a data write fails, NTFS
// records the error code but does not use it". After 3 retries the write
// is silently lost.
func TestDataWriteErrorRecordedNotUsed(t *testing.T) {
	_, fdev, rec, fs := ironStack(t)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	// Establish the block on disk first so the gray-box resolver can
	// classify it as data before the fault is armed.
	if _, err := fs.Write("/f", 0, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fdev.Arm(&faultinject.Fault{Class: iron.WriteFailure, Target: BTData, Sticky: true})
	if _, err := fs.Write("/f", 0, []byte("doomed")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync surfaced the ignored data write error: %v", err)
	}
	if !rec.Detections().Has(iron.DErrorCode) {
		t.Error("error code not recorded")
	}
	if got := countRetries(rec); got != dataWriteRetry {
		t.Errorf("data write retries = %d, want %d", got, dataWriteRetry)
	}
	if fs.Health() != vfs.Healthy {
		t.Errorf("health = %v; the recorded-not-used bug leaves the volume running", fs.Health())
	}
}

// TestMetadataWriteFailureStopsVolume: MFT writes get 2 retries, then the
// volume degrades.
func TestMetadataWriteFailureStopsVolume(t *testing.T) {
	_, fdev, rec, fs := ironStack(t)
	fdev.Arm(&faultinject.Fault{Class: iron.WriteFailure, Target: BTMFT, Sticky: true})
	_ = fs.Create("/f", 0o644)
	err := fs.Sync()
	if err == nil && fs.Health() == vfs.Healthy {
		t.Fatal("metadata write failure neither errored nor degraded the volume")
	}
	if got := countRetries(rec); got < mftWriteRetries {
		t.Errorf("MFT write retries = %d, want >= %d", got, mftWriteRetries)
	}
	if !rec.Recoveries().Has(iron.RStop) {
		t.Error("RStop not recorded")
	}
}

func TestBootAndRecordRoundTrips(t *testing.T) {
	f := func(bc, ms, ml uint64) bool {
		b := boot{Magic: bootMagic, BlockCount: bc, MFTStart: ms, MFTLen: ml,
			MFTBmp: 9, VolBmpStart: 10, VolBmpLen: 2, LogStart: 100, LogLen: 28, Clean: 1}
		buf := make([]byte, BlockSize)
		b.marshal(buf)
		var out boot
		out.unmarshal(buf)
		return out == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}

	r := mftRecord{Magic: recMagic, Flags: flagInUse | flagDir, Attr: namei.Attr{Links: 2, Mode: 0o755,
		UID: 5, GID: 6, Size: 12345, Atime: 1, Mtime: 2, Ctime: 3}}
	r.Direct[3] = 333
	r.Ext[1] = 444
	buf := make([]byte, RecordSize)
	r.marshal(buf)
	var out mftRecord
	out.unmarshal(buf)
	if out != r {
		t.Fatalf("record round trip: %+v != %+v", out, r)
	}
}

// TestBootSanity: corrupt boot geometry refuses to mount.
func TestBootSanity(t *testing.T) {
	fs, d := newTestFS(t)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if err := d.ReadRaw(0, buf); err != nil {
		t.Fatal(err)
	}
	buf[8] = 0xFF // absurd block count
	buf[15] = 0xFF
	if err := d.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	rec := iron.NewRecorder()
	fs2 := New(d, rec)
	if err := fs2.Mount(); err == nil {
		t.Fatal("mounted a volume with corrupt boot geometry")
	}
	if !rec.Detections().Has(iron.DSanity) {
		t.Errorf("boot sanity check not recorded:\n%s", rec.Summary())
	}
}
