package serve

import (
	"errors"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// newTestServer hosts one ext3 volume "vol" with a seeded file and one
// tenant per cfg entry. Fault injection is enabled on the volume.
func newTestServer(t *testing.T, tenants map[string]TenantConfig) (*Server, *fs.Volume) {
	t.Helper()
	s := New(disk.NewClock())
	v, err := s.AddVolume("vol", fs.MountOpts{FS: "ext3", Faults: true})
	if err != nil {
		t.Fatalf("AddVolume: %v", err)
	}
	for name, cfg := range tenants {
		if err := s.AddTenant(name, cfg); err != nil {
			t.Fatalf("AddTenant %s: %v", name, err)
		}
	}
	seedFile(t, v)
	return s, v
}

// seedFile creates /f with one block of data on the volume and syncs.
func seedFile(tb testing.TB, v *fs.Volume) {
	tb.Helper()
	if err := v.FS.Create("/f", 0o644); err != nil {
		tb.Fatalf("seed create: %v", err)
	}
	if _, err := v.FS.Write("/f", 0, make([]byte, 4096)); err != nil {
		tb.Fatalf("seed write: %v", err)
	}
	if err := v.FS.Sync(); err != nil {
		tb.Fatalf("seed sync: %v", err)
	}
}

func TestSubmitUnknownTenantAndVolume(t *testing.T) {
	s, _ := newTestServer(t, map[string]TenantConfig{"t": {}})
	if _, err := s.Submit(&Request{Volume: "vol", Tenant: "ghost", Op: OpStat, Path: "/f"}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: got %v, want ErrUnknownTenant", err)
	}
	if _, err := s.Submit(&Request{Volume: "ghost", Tenant: "t", Op: OpStat, Path: "/f"}); !errors.Is(err, ErrUnknownVolume) {
		t.Fatalf("unknown volume: got %v, want ErrUnknownVolume", err)
	}
}

func TestAdmissionThrottle(t *testing.T) {
	s, _ := newTestServer(t, map[string]TenantConfig{
		"t": {RateOps: 10, Burst: 2, QueueCap: 16},
	})
	req := func() *Request { return &Request{Volume: "vol", Tenant: "t", Op: OpStat, Path: "/f"} }
	// Burst of 2 admits, the third is over rate.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(req()); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(req()); !errors.Is(err, ErrThrottled) {
		t.Fatalf("over-rate submit: got %v, want ErrThrottled", err)
	}
	// 100ms at 10 ops/s refills one token.
	s.Clock().Advance(100 * disk.Millisecond)
	if _, err := s.Submit(req()); err != nil {
		t.Fatalf("post-refill submit: %v", err)
	}
	if _, err := s.Submit(req()); !errors.Is(err, ErrThrottled) {
		t.Fatalf("bucket should be empty again: got %v", err)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	s, _ := newTestServer(t, map[string]TenantConfig{"t": {QueueCap: 2}})
	req := func() *Request { return &Request{Volume: "vol", Tenant: "t", Op: OpStat, Path: "/f"} }
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(req()); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(req()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: got %v, want ErrQueueFull", err)
	}
	if _, ok := s.Dispatch(); !ok {
		t.Fatal("dispatch should pop one")
	}
	if _, err := s.Submit(req()); err != nil {
		t.Fatalf("submit after dispatch: %v", err)
	}
}

// forceReadOnly drives stock ext3 into its RStop remount: a one-shot
// metadata read failure (detected by error code) aborts the journal.
func forceReadOnly(t *testing.T, s *Server, v *fs.Volume) {
	t.Helper()
	if dc, ok := v.FS.(interface{ DropCaches() }); ok {
		dc.DropCaches()
	}
	v.Faults.Arm(&faultinject.Fault{Class: iron.ReadFailure, Target: "inode"})
	if _, err := s.Submit(&Request{Volume: "vol", Tenant: "t", Op: OpStat, Path: "/f"}); err != nil {
		t.Fatalf("trigger submit: %v", err)
	}
	s.Drain()
	if h, _ := s.VolumeHealth("vol"); h != vfs.ReadOnly {
		t.Fatalf("volume health = %v, want ReadOnly", h)
	}
}

func TestRoutingReadOnly(t *testing.T) {
	s, v := newTestServer(t, map[string]TenantConfig{"t": {QueueCap: 16}})
	forceReadOnly(t, s, v)
	// Every mutating verb is refused with the typed sentinel, wrapped in
	// a RouteError naming the volume.
	for _, op := range []Op{OpWrite, OpCreate, OpMkdir, OpRename, OpUnlink} {
		_, err := s.Submit(&Request{Volume: "vol", Tenant: "t", Op: op, Path: "/f", Path2: "/g", Data: []byte("x")})
		if !errors.Is(err, ErrVolumeReadOnly) {
			t.Fatalf("%v on read-only volume: got %v, want ErrVolumeReadOnly", op, err)
		}
		var re *RouteError
		if !errors.As(err, &re) || re.Volume != "vol" || re.State != vfs.ReadOnly {
			t.Fatalf("%v: want RouteError{vol, ReadOnly}, got %#v", op, err)
		}
	}
	// Reads still flow.
	resp, err := s.Submit(&Request{Volume: "vol", Tenant: "t", Op: OpRead, Path: "/f", Size: 4096})
	if err != nil {
		t.Fatalf("read submit on read-only volume: %v", err)
	}
	s.Drain()
	if resp.Err != nil || resp.N != 4096 {
		t.Fatalf("read on read-only volume: n=%d err=%v", resp.N, resp.Err)
	}
}

func TestRoutingPanickedDrains(t *testing.T) {
	// ReiserFS at queue depth 1 panics synchronously on a metadata write
	// failure; a deeper write cache would defer the error to the barrier.
	s := New(disk.NewClock())
	v, err := s.AddVolume("vol", fs.MountOpts{FS: "reiserfs", Faults: true})
	if err != nil {
		t.Fatalf("AddVolume: %v", err)
	}
	if err := s.AddTenant("t", TenantConfig{QueueCap: 16}); err != nil {
		t.Fatalf("AddTenant: %v", err)
	}
	// Queue the trigger (create+sync hits the journal) plus bystanders
	// behind it, then dispatch: the panic must drain the bystanders with
	// ErrVolumeUnavailable instead of executing them.
	v.Faults.Arm(&faultinject.Fault{Class: iron.WriteFailure, Sticky: true})
	trigger, err := s.Submit(&Request{Volume: "vol", Tenant: "t", Op: OpCreate, Path: "/boom"})
	if err != nil {
		t.Fatalf("trigger submit: %v", err)
	}
	syncReq, err := s.Submit(&Request{Volume: "vol", Tenant: "t", Op: OpSync})
	if err != nil {
		t.Fatalf("sync submit: %v", err)
	}
	bystander, err := s.Submit(&Request{Volume: "vol", Tenant: "t", Op: OpStat, Path: "/"})
	if err != nil {
		t.Fatalf("bystander submit: %v", err)
	}
	s.Drain()
	if h, _ := s.VolumeHealth("vol"); h != vfs.Panicked {
		t.Fatalf("health = %v, want Panicked (trigger err=%v sync err=%v)",
			h, trigger.Err, syncReq.Err)
	}
	if !errors.Is(bystander.Err, ErrVolumeUnavailable) {
		t.Fatalf("queued bystander after panic: got %v, want ErrVolumeUnavailable", bystander.Err)
	}
	// New submissions are refused at admission, typed.
	_, err = s.Submit(&Request{Volume: "vol", Tenant: "t", Op: OpStat, Path: "/"})
	if !errors.Is(err, ErrVolumeUnavailable) {
		t.Fatalf("submit to panicked volume: got %v, want ErrVolumeUnavailable", err)
	}
	var re *RouteError
	if !errors.As(err, &re) || re.State != vfs.Panicked {
		t.Fatalf("want RouteError{Panicked}, got %#v", err)
	}
}

// TestSFQWeightedShare saturates two tenants' queues and checks the
// dispatcher splits service in weight proportion over any window.
func TestSFQWeightedShare(t *testing.T) {
	s, _ := newTestServer(t, map[string]TenantConfig{
		"heavy": {Weight: 4, QueueCap: 256},
		"light": {Weight: 1, QueueCap: 256},
	})
	for i := 0; i < 200; i++ {
		for _, tn := range []string{"heavy", "light"} {
			if _, err := s.Submit(&Request{Volume: "vol", Tenant: tn, Op: OpStat, Path: "/f"}); err != nil {
				t.Fatalf("submit %s: %v", tn, err)
			}
		}
	}
	counts := map[string]int{}
	for i := 0; i < 100; i++ {
		resp, ok := s.Dispatch()
		if !ok {
			t.Fatal("dispatch ran dry with full queues")
		}
		counts[resp.Tenant]++
	}
	// 4:1 weights over 100 dispatches: exactly 80/20 under integer SFQ.
	if counts["heavy"] != 80 || counts["light"] != 20 {
		t.Fatalf("dispatch split heavy=%d light=%d, want 80/20", counts["heavy"], counts["light"])
	}
}
