package faultinject

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
)

func newStack(t *testing.T) (*disk.Disk, *Device) {
	t.Helper()
	d, err := disk.New(256, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, New(d, nil)
}

// typeMap resolves a few blocks to fixed types for targeting tests.
func typeMap(m map[int64]iron.BlockType) ResolverFunc {
	return func(b int64) iron.BlockType {
		if t, ok := m[b]; ok {
			return t
		}
		return iron.Unclassified
	}
}

func TestPassThrough(t *testing.T) {
	_, fd := newStack(t)
	w := make([]byte, 4096)
	w[0] = 0x42
	if err := fd.WriteBlock(9, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 4096)
	if err := fd.ReadBlock(9, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("pass-through mangled data")
	}
	if fd.Fired() != 0 {
		t.Fatal("fault fired with none armed")
	}
}

func TestStickyReadFailure(t *testing.T) {
	_, fd := newStack(t)
	fd.Arm(&Fault{Class: iron.ReadFailure, Sticky: true})
	buf := make([]byte, 4096)
	for i := 0; i < 5; i++ {
		if err := fd.ReadBlock(3, buf); !errors.Is(err, disk.ErrIO) {
			t.Fatalf("attempt %d: err = %v", i, err)
		}
	}
	if fd.Fired() != 5 {
		t.Fatalf("fired = %d", fd.Fired())
	}
	// Writes are unaffected by a read-failure fault.
	if err := fd.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
}

// TestTransientFiresExactlyCount: a transient fault fires exactly Count
// times and then disappears, for any Count — the retry-probe semantics.
func TestTransientFiresExactlyCount(t *testing.T) {
	f := func(raw uint8) bool {
		count := int(raw%7) + 1
		_, fd := newStack(t)
		fd.Arm(&Fault{Class: iron.ReadFailure, Count: count})
		buf := make([]byte, 4096)
		fails := 0
		for i := 0; i < 12; i++ {
			if err := fd.ReadBlock(1, buf); err != nil {
				fails++
			}
		}
		return fails == count && fd.Fired() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFailureDropsWrite(t *testing.T) {
	d, fd := newStack(t)
	good := make([]byte, 4096)
	good[0] = 0x11
	if err := fd.WriteBlock(7, good); err != nil {
		t.Fatal(err)
	}
	fd.Arm(&Fault{Class: iron.WriteFailure})
	bad := make([]byte, 4096)
	bad[0] = 0x22
	if err := fd.WriteBlock(7, bad); !errors.Is(err, disk.ErrIO) {
		t.Fatalf("write err = %v", err)
	}
	// The failed write must never reach the media.
	raw := make([]byte, 4096)
	if err := d.ReadRaw(7, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0x11 {
		t.Fatalf("failed write reached media: %#x", raw[0])
	}
}

func TestCorruptionIsSilentAndConfined(t *testing.T) {
	d, fd := newStack(t)
	w := make([]byte, 4096)
	for i := range w {
		w[i] = 0x5A
	}
	if err := fd.WriteBlock(4, w); err != nil {
		t.Fatal(err)
	}
	fd.Arm(&Fault{Class: iron.Corruption, Count: 1})
	r := make([]byte, 4096)
	if err := fd.ReadBlock(4, r); err != nil {
		t.Fatalf("corruption must be silent, got %v", err)
	}
	if bytes.Equal(w, r) {
		t.Fatal("corruption did not alter the data")
	}
	// The media itself is untouched; the next read is clean.
	raw := make([]byte, 4096)
	if err := d.ReadRaw(4, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, raw) {
		t.Fatal("corruption leaked to the media")
	}
	if err := fd.ReadBlock(4, r); err != nil || !bytes.Equal(w, r) {
		t.Fatal("transient corruption persisted")
	}
}

func TestCustomCorrupter(t *testing.T) {
	_, fd := newStack(t)
	w := make([]byte, 4096)
	if err := fd.WriteBlock(2, w); err != nil {
		t.Fatal(err)
	}
	fd.Arm(&Fault{
		Class: iron.Corruption,
		Corrupt: func(blk int64, data []byte) {
			data[0] = 0xEE // a "similar but wrong" single-field corruption
		},
	})
	r := make([]byte, 4096)
	if err := fd.ReadBlock(2, r); err != nil {
		t.Fatal(err)
	}
	if r[0] != 0xEE || r[1] != 0 {
		t.Fatalf("custom corrupter not applied precisely: %x %x", r[0], r[1])
	}
}

func TestTypeTargeting(t *testing.T) {
	_, fd := newStack(t)
	fd.SetResolver(typeMap(map[int64]iron.BlockType{10: "inode", 11: "data"}))
	fd.Arm(&Fault{Class: iron.ReadFailure, Target: "inode", Sticky: true})
	buf := make([]byte, 4096)
	if err := fd.ReadBlock(11, buf); err != nil {
		t.Fatalf("untargeted type failed: %v", err)
	}
	if err := fd.ReadBlock(10, buf); !errors.Is(err, disk.ErrIO) {
		t.Fatalf("targeted type did not fail: %v", err)
	}
}

func TestRangeTargeting(t *testing.T) {
	_, fd := newStack(t)
	fd.Arm(&Fault{Class: iron.ReadFailure, Range: BlockRange{Start: 100, End: 104}, Sticky: true})
	buf := make([]byte, 4096)
	for b := int64(98); b < 106; b++ {
		err := fd.ReadBlock(b, buf)
		inRange := b >= 100 && b < 104
		if inRange != (err != nil) {
			t.Errorf("block %d: err=%v, want fault=%v", b, err, inRange)
		}
	}
}

func TestTraceAndAccessCounts(t *testing.T) {
	_, fd := newStack(t)
	fd.SetResolver(typeMap(map[int64]iron.BlockType{5: "super"}))
	fd.SetTracing(true)
	buf := make([]byte, 4096)
	_ = fd.WriteBlock(5, buf)
	_ = fd.ReadBlock(5, buf)
	_ = fd.ReadBlock(6, buf)
	tr := fd.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace = %d entries", len(tr))
	}
	counts := fd.AccessCounts()
	if c := counts["super"]; c[disk.OpRead] != 1 || c[disk.OpWrite] != 1 {
		t.Fatalf("super counts = %v", c)
	}
	if c := counts[iron.Unclassified]; c[disk.OpRead] != 1 {
		t.Fatalf("unclassified counts = %v", c)
	}
	fd.ResetTrace()
	if len(fd.Trace()) != 0 || len(fd.AccessCounts()) != 0 {
		t.Fatal("trace not reset")
	}
}

// TestDefaultDeviceRetainsNoTrace pins the fault layer's memory bound: a
// default device keeps only the running per-(type, op) counts, however
// many I/Os pass, and those counts are what aggregating a retained trace
// gives.
func TestDefaultDeviceRetainsNoTrace(t *testing.T) {
	types := typeMap(map[int64]iron.BlockType{1: "inode", 2: "dir", 3: "inode"})
	_, fd := newStack(t)
	fd.SetResolver(types)
	_, traced := newStack(t)
	traced.SetResolver(types)
	traced.SetTracing(true)
	fd.Arm(&Fault{Class: iron.ReadFailure, Target: "dir", Sticky: true})
	traced.Arm(&Fault{Class: iron.ReadFailure, Target: "dir", Sticky: true})

	buf := make([]byte, 4096)
	for i := 0; i < 100000; i++ {
		for _, dev := range []*Device{fd, traced} {
			if i%3 == 0 {
				_ = dev.WriteBlock(int64(i%5), buf)
			} else {
				_ = dev.ReadBlock(int64(i%5), buf)
			}
		}
	}
	if n := len(fd.Trace()); n != 0 {
		t.Fatalf("default device retained %d trace entries", n)
	}
	want := map[iron.BlockType][2]int{}
	for _, e := range traced.Trace() {
		c := want[e.Type]
		c[e.Op]++
		want[e.Type] = c
	}
	if len(traced.Trace()) != 100000 || !reflect.DeepEqual(fd.AccessCounts(), want) ||
		!reflect.DeepEqual(traced.AccessCounts(), want) {
		t.Fatalf("AccessCounts = %v / %v, trace aggregates to %v", fd.AccessCounts(), traced.AccessCounts(), want)
	}
	traced.ResetTrace()
	if len(traced.Trace()) != 0 || len(traced.AccessCounts()) != 0 {
		t.Fatal("ResetTrace left entries or counts behind")
	}
}

func TestBatchPartialFailure(t *testing.T) {
	d, fd := newStack(t)
	fd.Arm(&Fault{Class: iron.WriteFailure, Range: BlockRange{Start: 21, End: 22}, Sticky: true})
	mk := func(b byte) []byte {
		x := make([]byte, 4096)
		x[0] = b
		return x
	}
	err := fd.WriteBatch([]disk.Request{
		{Block: 20, Data: mk(1)},
		{Block: 21, Data: mk(2)},
		{Block: 22, Data: mk(3)},
	})
	if !errors.Is(err, disk.ErrIO) {
		t.Fatalf("batch err = %v", err)
	}
	// The other writes in the batch still complete (queued semantics).
	raw := make([]byte, 4096)
	_ = d.ReadRaw(20, raw)
	if raw[0] != 1 {
		t.Error("pre-fault batch member lost")
	}
	_ = d.ReadRaw(22, raw)
	if raw[0] != 3 {
		t.Error("post-fault batch member lost")
	}
	_ = d.ReadRaw(21, raw)
	if raw[0] != 0 {
		t.Error("faulted write reached media")
	}
}

func TestDisarm(t *testing.T) {
	_, fd := newStack(t)
	fd.Arm(&Fault{Class: iron.ReadFailure, Sticky: true})
	fd.Disarm()
	buf := make([]byte, 4096)
	if err := fd.ReadBlock(0, buf); err != nil {
		t.Fatalf("fault survived disarm: %v", err)
	}
}

func TestCrashDevice(t *testing.T) {
	d, _ := disk.New(64, disk.DefaultGeometry(), nil)
	c := NewCrashDevice(d, 3)
	buf := make([]byte, 4096)
	for i := int64(0); i < 3; i++ {
		if err := c.WriteBlock(i, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := c.WriteBlock(3, buf); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write past limit = %v", err)
	}
	if !c.Crashed() || c.Written() != 3 {
		t.Fatalf("crashed=%v written=%d", c.Crashed(), c.Written())
	}
	if err := c.ReadBlock(0, buf); !errors.Is(err, ErrCrashed) {
		t.Errorf("read after crash = %v", err)
	}
	if err := c.Barrier(); !errors.Is(err, ErrCrashed) {
		t.Errorf("barrier after crash = %v", err)
	}
	// The concrete error carries the crash write index for debugging.
	var ce *CrashError
	if err := c.ReadBlock(0, buf); !errors.As(err, &ce) || ce.Write != 3 {
		t.Errorf("err = %v, want *CrashError{Write: 3}", err)
	}
}

func TestCrashDeviceMidBatch(t *testing.T) {
	d, _ := disk.New(64, disk.DefaultGeometry(), nil)
	c := NewCrashDevice(d, 2)
	mk := func(b byte) []byte {
		x := make([]byte, 4096)
		x[0] = b
		return x
	}
	err := c.WriteBatch([]disk.Request{
		{Block: 1, Data: mk(1)},
		{Block: 2, Data: mk(2)},
		{Block: 3, Data: mk(3)},
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("batch err = %v", err)
	}
	raw := make([]byte, 4096)
	_ = d.ReadRaw(1, raw)
	first := raw[0]
	_ = d.ReadRaw(3, raw)
	third := raw[0]
	if first != 1 || third != 0 {
		t.Fatalf("crash point not mid-batch: first=%d third=%d", first, third)
	}
}

func TestCrashDeviceNeverCrashes(t *testing.T) {
	d, _ := disk.New(64, disk.DefaultGeometry(), nil)
	c := NewCrashDevice(d, -1)
	buf := make([]byte, 4096)
	for i := int64(0); i < 20; i++ {
		if err := c.WriteBlock(i%8, buf); err != nil {
			t.Fatal(err)
		}
	}
	if c.Crashed() {
		t.Fatal("negative limit crashed")
	}
}
