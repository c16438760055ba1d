package ixt3

import (
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/fstest"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// modelTarget binds ixt3, with every IRON mechanism on, into the shared
// fstest tables.
var modelTarget = fstest.ExploreTarget{Name: "ixt3",
	Mkfs: func(dev disk.Device) error { return Mkfs(dev, All()) },
	New:  func(dev disk.Device, rec *iron.Recorder) vfs.FileSystem { return New(dev, All(), rec) }}

// TestModelRandomOps is the live-model table: seeded random operations
// checked against the reference model after every op (fstest.CheckModel).
func TestModelRandomOps(t *testing.T) { fstest.CheckModel(t, modelTarget) }

// TestCrashConsistencySweep verifies that the IRON machinery (checksums,
// replica log, parity, transactional checksums) does not weaken ext3's
// crash guarantees (fstest.CheckCrashSweep).
func TestCrashConsistencySweep(t *testing.T) { fstest.CheckCrashSweep(t, modelTarget) }

func TestFeatureLabels(t *testing.T) {
	if got := (Features{}).Label(); got != "(ext3)" {
		t.Errorf("empty label = %q", got)
	}
	if got := All().Label(); got != "Mc Mr Dc Dp Tc" {
		t.Errorf("full label = %q", got)
	}
	if got := (Features{Dc: true, Tc: true}).Label(); got != "Dc Tc" {
		t.Errorf("partial label = %q", got)
	}
}
