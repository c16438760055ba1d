package jfs

import (
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/fstest"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// modelTarget binds jfs into the shared fstest tables.
var modelTarget = fstest.ExploreTarget{Name: "jfs", Mkfs: Mkfs,
	New: func(dev disk.Device, rec *iron.Recorder) vfs.FileSystem { return New(dev, rec) }}

// TestModelRandomOps is the live-model table: seeded random operations
// checked against the reference model after every op (fstest.CheckModel).
func TestModelRandomOps(t *testing.T) { fstest.CheckModel(t, modelTarget) }

// TestCrashConsistencySweep grades every prefix cut of the fsync workload
// with the expected-state oracle (fstest.CheckCrashSweep).
func TestCrashConsistencySweep(t *testing.T) { fstest.CheckCrashSweep(t, modelTarget) }
