package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// refNext is the dispatcher this package had before the ready-heap: walk
// every tenant, sort the names of those with queued work, and scan for the
// minimum (start tag, admission sequence). It is the order the heap must
// reproduce request for request.
func refNext(s *Server) *pending {
	names := make([]string, 0, len(s.tenants))
	for name, t := range s.tenants {
		if t.queue.n > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	var best *pending
	for _, name := range names {
		p := s.tenants[name].queue.front()
		if best == nil || p.start < best.start ||
			(p.start == best.start && p.seq < best.seq) {
			best = p
		}
	}
	return best
}

// dispatchChecked dispatches once and fails the test unless the request
// that ran is the one the reference scan picks.
func dispatchChecked(t *testing.T, s *Server) (*Response, bool) {
	t.Helper()
	want := refNext(s)
	resp, ok := s.Dispatch()
	switch {
	case want == nil && ok:
		t.Fatalf("dispatched %+v with every queue empty", resp)
	case want != nil && !ok:
		t.Fatalf("dispatch ran dry; reference picks %s seq %d", want.resp.Tenant, want.seq)
	case want != nil && resp != &want.resp:
		t.Fatalf("dispatched %s (queued %v); reference picks %s seq %d start %d",
			resp.Tenant, resp.Queued, want.resp.Tenant, want.seq, want.start)
	}
	return resp, ok
}

// TestDispatchOrderMatchesReference drives a seeded stream of interleaved
// submissions and dispatches — weights 1/2/4, rate-capped and queue-capped
// tenants, fill and drain phases so tenants go idle and re-enter, a volume
// that remounts read-only and one that panics mid-stream — and checks every
// dispatch against the linear scan the heap replaced.
func TestDispatchOrderMatchesReference(t *testing.T) {
	for _, n := range []int{1, 3, 8, 64, 2048} {
		t.Run(fmt.Sprintf("tenants=%d", n), func(t *testing.T) {
			s := New(disk.NewClock())
			vols := map[string]*fs.Volume{}
			for id, o := range map[string]fs.MountOpts{
				"ok":   {FS: "ext3"},
				"ro":   {FS: "ext3", Faults: true},
				"boom": {FS: "reiserfs", Faults: true},
			} {
				v, err := s.AddVolume(id, o)
				if err != nil {
					t.Fatalf("AddVolume %s: %v", id, err)
				}
				seedFile(t, v)
				vols[id] = v
			}
			// Tenant 0 is uncapped: it carries the two fault triggers.
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("t%04d", i)
				cfg := TenantConfig{Weight: []int{1, 2, 4}[i%3], QueueCap: 8}
				if i%5 == 1 {
					cfg.RateOps, cfg.Burst = 200, 2
				}
				if i%7 == 2 {
					cfg.QueueCap = 2
				}
				if err := s.AddTenant(names[i], cfg); err != nil {
					t.Fatal(err)
				}
			}

			rng := rand.New(rand.NewSource(int64(0x1207 + n)))
			volIDs := []string{"ok", "ro", "boom"}
			var throttled, queueFull, routeRefused, refusedAtDispatch, dispatched, deepest int
			submit := func(req *Request) error {
				_, err := s.Submit(req)
				switch {
				case errors.Is(err, ErrThrottled):
					throttled++
				case errors.Is(err, ErrQueueFull):
					queueFull++
				case errors.Is(err, ErrVolumeReadOnly), errors.Is(err, ErrVolumeUnavailable):
					routeRefused++
				case err != nil:
					t.Fatalf("submit %+v: %v", req, err)
				}
				return err
			}
			dispatch := func() bool {
				deepest = max(deepest, len(s.ready))
				resp, ok := dispatchChecked(t, s)
				if ok {
					dispatched++
					var re *RouteError
					if errors.As(resp.Err, &re) {
						refusedAtDispatch++
					}
				}
				return ok
			}
			drain := func() {
				for dispatch() {
				}
			}
			// trigger arms a fault with every queue empty and queues reqs on
			// tenant 0, so they are the first to meet it, in this order.
			trigger := func(arm func(), reqs ...*Request) {
				drain()
				arm()
				for _, req := range reqs {
					req.Tenant = names[0]
					if err := submit(req); err != nil {
						t.Fatalf("trigger %v on %s refused: %v", req.Op, req.Volume, err)
					}
				}
			}
			randomReq := func() *Request {
				// Half the stream lands on a few tenants, so some queues run
				// deep while most hold a request or none.
				who := rng.Intn(n)
				if rng.Intn(2) == 0 {
					who = rng.Intn(min(n, 16))
				}
				req := &Request{
					Tenant: names[who], Volume: volIDs[rng.Intn(len(volIDs))],
					Op: OpStat, Path: "/f",
				}
				switch p := rng.Intn(10); {
				case p < 3:
					req.Op, req.Size = OpRead, 4096
				case p < 5:
					req.Op, req.Data = OpWrite, []byte("x")
				}
				return req
			}

			steps := 4000 + 4*n
			filling, phaseLeft := true, 0
			for step := 0; step < steps; step++ {
				switch step {
				case steps / 3:
					// A one-shot metadata read failure: ext3 aborts its journal
					// and remounts read-only when the stat reaches it; the write
					// queued behind the stat is then refused at dispatch, and
					// later writes at admission.
					trigger(func() {
						vols["ro"].FS.(interface{ DropCaches() }).DropCaches()
						vols["ro"].Faults.Arm(&faultinject.Fault{Class: iron.ReadFailure, Target: "inode"})
					},
						&Request{Volume: "ro", Op: OpStat, Path: "/f"},
						&Request{Volume: "ro", Op: OpWrite, Path: "/f", Data: []byte("x")})
				case 2 * steps / 3:
					// A sticky write failure: reiserfs panics on the create or
					// the sync, and the stats queued behind them drain refused.
					trigger(func() {
						vols["boom"].Faults.Arm(&faultinject.Fault{Class: iron.WriteFailure, Sticky: true})
					},
						&Request{Volume: "boom", Op: OpCreate, Path: "/boom"},
						&Request{Volume: "boom", Op: OpSync},
						&Request{Volume: "boom", Op: OpStat, Path: "/f"},
						&Request{Volume: "boom", Op: OpStat, Path: "/f"})
				}
				if phaseLeft == 0 {
					// Fill phases build a backlog across many tenants; drain
					// phases empty queues so their tenants re-enter from idle.
					filling, phaseLeft = !filling, 1+rng.Intn(2*n+16)
					s.Clock().Advance(disk.Duration(rng.Intn(20)) * disk.Millisecond)
				}
				phaseLeft--
				if rng.Intn(10) < 7 == filling {
					submit(randomReq())
				} else {
					dispatch()
				}
				if step%1000 == 999 {
					drain()
				}
			}
			drain()
			if s.Pending() != 0 || len(s.ready) != 0 {
				t.Fatalf("after the drain: Pending() = %d, %d tenants still in the ready heap", s.Pending(), len(s.ready))
			}

			// The stream must have reached every path it claims to cover.
			if h, _ := s.VolumeHealth("ro"); h != vfs.ReadOnly {
				t.Errorf("volume ro ended %v, want ReadOnly", h)
			}
			if h, _ := s.VolumeHealth("boom"); h != vfs.Panicked {
				t.Errorf("volume boom ended %v, want Panicked", h)
			}
			if routeRefused == 0 || refusedAtDispatch < 3 || queueFull == 0 || (n >= 3 && throttled == 0) {
				t.Errorf("stream too tame: throttled %d, queue-full %d, refused at admission %d, at dispatch %d",
					throttled, queueFull, routeRefused, refusedAtDispatch)
			}
			t.Logf("%d dispatched, up to %d tenants ready; throttled %d, queue-full %d, refused at admission %d, at dispatch %d",
				dispatched, deepest, throttled, queueFull, routeRefused, refusedAtDispatch)
		})
	}
}

// TestConcurrentSubmitDispatch runs submitters and dispatchers side by side:
// the ready heap, the rings, the read buffer and the lazily resolved metric
// handles are all guarded by Server.mu alone, which is what -race checks
// here. Every admitted request must be dispatched exactly once.
func TestConcurrentSubmitDispatch(t *testing.T) {
	s, _ := newTestServer(t, map[string]TenantConfig{
		"a": {Weight: 1, QueueCap: 1 << 12}, "b": {Weight: 2, QueueCap: 1 << 12},
		"c": {Weight: 4, QueueCap: 1 << 12}, "d": {Weight: 1, QueueCap: 1 << 12},
	})
	const perTenant = 500
	var submitters, dispatchers sync.WaitGroup
	var served atomic.Int64
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		dispatchers.Add(1)
		go func() {
			defer dispatchers.Done()
			for {
				if _, ok := s.Dispatch(); ok {
					served.Add(1)
					continue
				}
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < perTenant; i++ {
				req := &Request{Volume: "vol", Tenant: name, Op: OpStat, Path: "/f"}
				if i%2 == 0 {
					req.Op, req.Size = OpRead, 4096
				}
				if _, err := s.Submit(req); err != nil {
					t.Errorf("submit %s: %v", name, err)
					return
				}
			}
		}()
	}
	submitters.Wait()
	close(stop)
	dispatchers.Wait()
	s.Drain()
	if s.Pending() != 0 {
		t.Fatalf("%d requests still pending after the drain (%d served concurrently)", s.Pending(), served.Load())
	}
	if h := s.TenantHistogram("c"); h.Count() != perTenant {
		t.Fatalf("tenant c: %d requests completed, want %d", h.Count(), perTenant)
	}
}

// statServer is a server in steady state for the cost tests: one ext3
// volume, n tenants with one stat queued each. cycle dispatches the next
// request and resubmits for the tenant it belonged to, so every queue stays
// at one request and the ready heap at n tenants for as long as it is called.
type statServer struct {
	s    *Server
	reqs map[string]*Request
}

func newStatServer(tb testing.TB, n int) *statServer {
	tb.Helper()
	ss := &statServer{s: New(disk.NewClock()), reqs: make(map[string]*Request, n)}
	v, err := ss.s.AddVolume("vol", fs.MountOpts{FS: "ext3"})
	if err != nil {
		tb.Fatalf("AddVolume: %v", err)
	}
	seedFile(tb, v)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%05d", i)
		if err := ss.s.AddTenant(name, TenantConfig{Weight: 1 + i%4}); err != nil {
			tb.Fatal(err)
		}
		ss.reqs[name] = &Request{Volume: "vol", Tenant: name, Op: OpStat, Path: "/f"}
	}
	// Grow the first tenant's ring to its queue cap, so a run of
	// submissions to it alone measures admission and not the ring.
	hot := ss.reqs["t00000"]
	for i := 0; i < 64; i++ {
		ss.submit(tb, hot)
	}
	ss.s.Drain()
	for _, req := range ss.reqs {
		ss.submit(tb, req)
	}
	// One lap, so every tenant's handles and histogram buckets exist.
	for i := 0; i < n; i++ {
		ss.cycle(tb)
	}
	return ss
}

func (ss *statServer) submit(tb testing.TB, req *Request) {
	if _, err := ss.s.Submit(req); err != nil {
		tb.Fatalf("submit %s: %v", req.Tenant, err)
	}
}

func (ss *statServer) cycle(tb testing.TB) {
	resp, ok := ss.s.Dispatch()
	if !ok || resp.Err != nil {
		tb.Fatalf("dispatch: ok=%v resp=%+v", ok, resp)
	}
	ss.submit(tb, ss.reqs[resp.Tenant])
}

// TestServeAllocsIndependentOfTenants pins the serving tier's own cost per
// request: with every tenant backlogged, a dispatch and a submission
// allocate the same at 16 registered tenants as at 4096, and admission is
// one allocation, the one that holds the request's state and its Response.
func TestServeAllocsIndependentOfTenants(t *testing.T) {
	perCycle := map[int]float64{}
	for _, n := range []int{16, 4096} {
		ss := newStatServer(t, n)
		perCycle[n] = testing.AllocsPerRun(200, func() { ss.cycle(t) })
		hot := ss.reqs["t00000"]
		if got := testing.AllocsPerRun(50, func() { ss.submit(t, hot) }); got > 1 {
			t.Errorf("%d tenants: Submit allocates %v times, want at most 1", n, got)
		}
	}
	if perCycle[16] != perCycle[4096] {
		t.Errorf("allocations per dispatch+submit: %v at 16 tenants, %v at 4096; want equal",
			perCycle[16], perCycle[4096])
	}
	t.Logf("allocations per dispatch+submit of a stat: %v", perCycle[16])
}

// BenchmarkDispatch prices one dispatch plus the resubmission that keeps the
// backlog level, with every tenant queued: the serving tier's own cost per
// request as the tenant count grows (docs/PERF.md, "Serve layer cost").
func BenchmarkDispatch(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("tenants=%d", n), func(b *testing.B) {
			ss := newStatServer(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ss.cycle(b)
			}
		})
	}
}
