package main

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"ironfs/internal/disk"
	"ironfs/internal/fs"
	"ironfs/internal/sched"
	"ironfs/internal/serve"
	"ironfs/internal/stat"
	"ironfs/internal/vfs"
)

// serve_tenants shape. One serve.Server, volumes cycling through the five
// file systems, a tenant population three quarters open-loop Poisson and
// one quarter closed-loop with a window of two. The aggregate offered rate
// is fixed at three multiples of serveNominalRate; the population, the op
// mix and every arrival gap come from the seed.
const (
	serveVolumes      = 16
	serveTenants      = 1024
	serveVolumeBlocks = 4096 // 16 MiB per volume; 16 volumes share one clock
	serveFileBlocks   = 4    // each tenant's file
	serveQueueCap     = 16
	serveWindow       = 2
	// serveNominalRate is the 1x aggregate offered rate, ops per simulated
	// second, summed over all tenants. The three rates are 60, 120 and 240
	// ops/s: the sixteen volumes share one simulated clock, so the fleet
	// has about one disk arm's worth of service to give.
	serveNominalRate = 120.0
	serveHorizon     = 180 * disk.Second
	// serveSLO is the latency limit on the 99th percentile. One request in
	// twenty is an fsync and an unloaded fsync costs this disk model about
	// 130 ms, so no rate could meet a limit much below that; 400 ms sits
	// between what 1x and 2x deliver.
	serveSLO = 400 * disk.Millisecond
)

// serveRates are the fixed multiples of the nominal rate.
var serveRates = []float64{0.5, 1, 2}

// Op mix, in percent: 60 read, 20 write, 10 stat, 5 create, 5 fsync.
var serveMix = []struct {
	op  serve.Op
	pct int
}{{serve.OpRead, 60}, {serve.OpWrite, 20}, {serve.OpStat, 10}, {serve.OpCreate, 5}, {serve.OpFsync, 5}}

// serveReq is one generated request, before it is bound to a rate.
type serveReq struct {
	req     serve.Request
	block   int     // file block a read or write addresses
	payload int     // a write's payload, as an index into the workload's
	gap     float64 // open loop: unit-rate exponential gap before this arrival
	// cpu is the tenant's own time digesting the reply, as in the client
	// workloads: part of the latency, off the shared clock.
	cpu disk.Duration
}

type serveTenant struct {
	name, volume, file string
	cfg                serve.TenantConfig
	closed             bool
	rate               float64 // nominal ops per simulated second at 1x
	reqs               []serveReq
}

// serveVolume is one hosted volume: its ID, file system and populated image.
type serveVolume struct {
	id, fs string
	image  []byte
}

type serveWorkload struct {
	vols    []serveVolume
	tenants []serveTenant
	index   map[string]int
	initial []byte   // every tenant file's content after set-up
	payload [][]byte // write payloads, one block each
	// others caches the 0.5x and 2x outcomes: they are deterministic and
	// only sim_slo_rate_ops reads them, so they run once, unmeasured.
	others map[float64]serveOutcome
}

// serveOutcome is what one rate's run means for the served-under-SLO rate.
type serveOutcome struct {
	p99WithFailures int64 // failures count as missing the limit
	pendingHalf     int
	pendingEnd      int
}

func (o serveOutcome) meetsSLO(tenants int) bool {
	// A backlog that is not growing: no more queued at the horizon than at
	// half of it, give or take one request per 64 tenants.
	return o.p99WithFailures <= int64(serveSLO) && o.pendingEnd <= o.pendingHalf+tenants/64
}

func setupServeTenants(seed int64, quick bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &serveWorkload{index: map[string]int{}}
	nVols, nTenants := size(quick, serveVolumes, 5), size(quick, serveTenants, 80)
	w.initial = make([]byte, serveFileBlocks*blockSize)
	fillBlock(rng, w.initial)
	for i := 0; i < 8; i++ {
		b := make([]byte, blockSize)
		fillBlock(rng, b)
		w.payload = append(w.payload, b)
	}

	// Weighted per-tenant rates that sum to the nominal aggregate.
	perTenant := serveNominalRate / float64(serveTenants)
	maxReqs := func(rate float64) int {
		return int(rate*serveRates[len(serveRates)-1]*serveHorizon.Seconds()*2) + 8
	}
	for i := 0; i < nTenants; i++ {
		t := serveTenant{
			name:   fmt.Sprintf("t%04d", i),
			volume: fmt.Sprintf("vol-%02d", i%nVols),
			closed: i%4 == 3,
			rate:   perTenant * (0.5 + rng.Float64()),
			cfg:    serve.TenantConfig{Weight: []int{1, 2, 4}[i%3], QueueCap: serveQueueCap},
		}
		t.file = "/" + t.name
		// One tenant in ten is rate-capped, all of them closed-loop: the
		// cap sits at 1.5x what the tenant's window can offer at 1x, so
		// admission is exercised at every rate but refuses only at 2x.
		if m := i % 20; m == 3 || m == 7 {
			t.cfg.RateOps = 1.5 * t.rate
			t.cfg.Burst = 2 * serveWindow
		}
		creates := 0
		for k := 0; k < maxReqs(t.rate); k++ {
			r := serveReq{block: rng.Intn(serveFileBlocks), payload: k % len(w.payload), gap: rng.ExpFloat64()}
			r.req = serve.Request{Volume: t.volume, Tenant: t.name, Path: t.file}
			p := rng.Intn(100)
			for _, m := range serveMix {
				if p < m.pct {
					r.req.Op = m.op
					break
				}
				p -= m.pct
			}
			r.cpu = jitter(rng, readCPU)
			switch r.req.Op {
			case serve.OpRead:
				r.req.Off, r.req.Size = int64(r.block)*blockSize, blockSize
			case serve.OpWrite:
				r.req.Off, r.req.Data = int64(r.block)*blockSize, w.payload[r.payload]
				r.cpu = jitter(rng, mutateCPU)
			case serve.OpCreate:
				r.req.Path = fmt.Sprintf("%s_c%d", t.file, creates)
				creates++
				r.cpu = jitter(rng, mutateCPU)
			case serve.OpFsync:
				r.cpu = jitter(rng, mutateCPU)
			}
			t.reqs = append(t.reqs, r)
		}
		w.index[t.name] = i
		w.tenants = append(w.tenants, t)
	}

	for v := 0; v < nVols; v++ {
		name := fsNames[v%len(fsNames)]
		img, err := buildImage(towerSpec{fs: name, blocks: serveVolumeBlocks}, func(t *tower) error {
			for i := v; i < nTenants; i += nVols {
				p := w.tenants[i].file
				if err := t.fs.Create(p, 0o644); err != nil {
					return err
				}
				if _, err := t.fs.Write(p, 0, w.initial); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		w.vols = append(w.vols, serveVolume{fmt.Sprintf("vol-%02d", v), name, img})
	}
	return w, nil
}

// arrival is a tenant's next due submission.
type arrival struct {
	at     disk.Duration
	tenant int32
}

// arrivals is a min-heap on (due instant, tenant index).
type arrivals []arrival

func (h arrivals) Len() int { return len(h) }
func (h arrivals) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].tenant < h[j].tenant
}
func (h arrivals) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arrivals) Push(x any)   { *h = append(*h, x.(arrival)) }
func (h *arrivals) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// serveRun is the state of one rate's run.
type serveRun struct {
	w    *serveWorkload
	s    *serve.Server
	vols []*fs.Volume
	mult float64
	rec  *spanRec

	due  arrivals
	next []int        // per tenant: index of its next request
	dues [][]serveDue // per tenant: admitted, uncompleted requests, oldest first
	seq  []int        // per tenant: files created so far
	// model is each tenant file's expected content, as block → payload
	// index (-1 is the set-up content).
	model [][serveFileBlocks]int

	submitted, failed, completed int64
	userBytes                    int64
	lat, queueWait, exec, late   []int64
	pendingHalf, pendingEnd      int
}

// serveDue is an admitted request's due instant and CPU charge.
type serveDue struct{ at, cpu disk.Duration }

// think is a closed-loop tenant's pause between a completion and its next
// submission: the gap that offers its share of the rate through a window
// of two.
func (r *serveRun) think(t *serveTenant) disk.Duration {
	return disk.Duration(float64(serveWindow) / (t.rate * r.mult) * float64(disk.Second))
}

// submit issues tenant ti's next request, which was due at `at`. The
// requests were built during set-up; the server only reads them.
func (r *serveRun) submit(ti int32, at disk.Duration) {
	t := &r.w.tenants[ti]
	g := &t.reqs[r.next[ti]]
	r.next[ti]++
	r.submitted++
	r.late = append(r.late, int64(r.s.Clock().Now()-at))
	i := r.rec.begin(lServe, vSubmit)
	_, err := r.s.Submit(&g.req)
	r.rec.end(i)
	if err != nil {
		// Refused: a failed op that also misses any latency limit. A
		// closed-loop tenant tries again after its think time.
		r.failed++
		if t.closed {
			heap.Push(&r.due, arrival{r.s.Clock().Now() + r.think(t), ti})
		}
		return
	}
	if g.req.Op == serve.OpWrite {
		r.model[ti][g.block] = g.payload
		r.userBytes += blockSize
	}
	r.dues[ti] = append(r.dues[ti], serveDue{at, g.cpu})
}

// complete accounts one dispatched response. Tenant queues are FIFO, so the
// response belongs to the tenant's oldest outstanding request.
func (r *serveRun) complete(resp *serve.Response) {
	ti := int32(r.w.index[resp.Tenant])
	t := &r.w.tenants[ti]
	due := r.dues[ti][0]
	r.dues[ti] = r.dues[ti][1:]
	ok := resp.Err == nil
	switch resp.Op {
	case serve.OpRead, serve.OpWrite:
		ok = ok && resp.N == blockSize
	case serve.OpStat:
		ok = ok && resp.Info.Size == serveFileBlocks*blockSize
	}
	if ok {
		r.completed++
		r.lat = append(r.lat, int64(resp.Done+due.cpu-due.at))
	} else {
		r.failed++
	}
	r.queueWait = append(r.queueWait, int64(resp.Started-resp.Queued))
	r.exec = append(r.exec, int64(resp.Done-resp.Started))
	if t.closed {
		heap.Push(&r.due, arrival{resp.Done + due.cpu + r.think(t), ti})
	}
}

// loop is the discrete-event driver: submit everything that is due, then
// dispatch one request; when nothing is queued, jump the clock to the next
// arrival. Past the horizon it stops submitting and drains.
func (r *serveRun) loop(start disk.Duration) {
	clk := r.s.Clock()
	horizon, half := start+serveHorizon, start+serveHorizon/2
	halfSeen, endSeen := false, false
	for {
		now := clk.Now()
		if !halfSeen && now >= half {
			r.pendingHalf, halfSeen = r.s.Pending(), true
		}
		if !endSeen && now >= horizon {
			r.pendingEnd, endSeen = r.s.Pending(), true
		}
		for len(r.due) > 0 && r.due[0].at <= now && r.due[0].at < horizon {
			a := heap.Pop(&r.due).(arrival)
			t := &r.w.tenants[a.tenant]
			if r.next[a.tenant] == len(t.reqs) {
				continue // stream used up: set-up generates twice the expected count
			}
			r.submit(a.tenant, a.at)
			if !t.closed && r.next[a.tenant] < len(t.reqs) {
				gap := t.reqs[r.next[a.tenant]].gap / (t.rate * r.mult)
				heap.Push(&r.due, arrival{a.at + max(disk.Duration(gap*float64(disk.Second)), disk.Microsecond), a.tenant})
			}
		}
		i := r.rec.begin(lServe, vDispatch)
		resp, ok := r.s.Dispatch()
		r.rec.end(i)
		if ok {
			r.complete(resp)
			continue
		}
		if len(r.due) == 0 || r.due[0].at >= horizon {
			break
		}
		clk.Advance(r.due[0].at - now)
	}
}

// run builds a server from the snapshots and drives one rate through it.
func (w *serveWorkload) run(mult float64, rec *spanRec, reg *stat.Registry, res *repResult, counts *layerCounts) (*serveRun, error) {
	clk := disk.NewClock()
	r := &serveRun{w: w, s: serve.New(clk), mult: mult, rec: rec}
	if rec == nil {
		r.rec = &spanRec{} // recording off: begin and end are no-ops
	} else {
		rec.clk = clk
	}
	for _, v := range w.vols {
		vol, err := r.s.AddVolume(v.id, fs.MountOpts{
			FS: v.fs, Opts: mountOptions(v.fs), Blocks: serveVolumeBlocks, Image: v.image,
			QueueDepth: queueDepth, SchedPolicy: sched.PolicyAdaptive, ReadAhead: readAhead,
		})
		if err != nil {
			return nil, err
		}
		r.vols = append(r.vols, vol)
	}
	// Warm every volume's cache with its tenants' files, untimed: a
	// long-running server has them resident, and the horizon is too short
	// to amortise a cold start.
	buf := make([]byte, serveFileBlocks*blockSize)
	for i := range w.tenants {
		if _, err := r.vols[i%len(r.vols)].FS.Read(w.tenants[i].file, 0, buf); err != nil {
			return nil, fmt.Errorf("warm %s: %w", w.tenants[i].file, err)
		}
	}
	n := len(w.tenants)
	r.next = make([]int, n)
	expect := int(serveNominalRate * mult * serveHorizon.Seconds() * 1.25)
	r.lat, r.queueWait = make([]int64, 0, expect), make([]int64, 0, expect)
	r.exec, r.late = make([]int64, 0, expect), make([]int64, 0, expect)
	r.dues = make([][]serveDue, n)
	r.model = make([][serveFileBlocks]int, n)
	start := clk.Now()
	for i := range w.tenants {
		t := &w.tenants[i]
		if err := r.s.AddTenant(t.name, t.cfg); err != nil {
			return nil, err
		}
		for b := range r.model[i] {
			r.model[i][b] = -1
		}
		// First arrivals: an open-loop tenant's first gap, a closed-loop
		// tenant's window staggered over one think time.
		if t.closed {
			for k := 0; k < serveWindow; k++ {
				r.due = append(r.due, arrival{start + r.think(t)*disk.Duration(k)/serveWindow, int32(i)})
			}
		} else {
			gap := t.reqs[0].gap / (t.rate * mult)
			r.due = append(r.due, arrival{start + disk.Duration(gap*float64(disk.Second)), int32(i)})
		}
	}
	heap.Init(&r.due)

	reg.Reset()
	marks := make([]devMark, len(r.vols))
	for v, vol := range r.vols {
		marks[v] = markDevices(vol.Disk, vol.Sched)
	}
	cost, err := measure(func() error {
		if rec != nil {
			rec.on = true
			defer func(root int32) { rec.end(root); rec.on = false }(rec.begin(lBench, vRep))
		}
		r.loop(start)
		for _, vol := range r.vols {
			if err := vol.FS.Sync(); err != nil {
				return err
			}
			if err := vol.Sched.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for v, vol := range r.vols {
		counts.addDevices(vol.Disk, vol.Sched, marks[v])
	}
	counts.addRegistry(reg)
	counts.simTime += clk.Now() - start
	res.cost.add(cost)
	return r, w.verify(r, res)
}

// verify checks every tenant file against the model, then that every
// volume is healthy, unmounts and passes its consistency oracle.
func (w *serveWorkload) verify(r *serveRun, res *repResult) error {
	buf := make([]byte, blockSize)
	for i := range w.tenants {
		t := &w.tenants[i]
		vol := r.vols[i%len(r.vols)]
		for b, p := range r.model[i] {
			want := w.initial[b*blockSize : (b+1)*blockSize]
			if p >= 0 {
				want = w.payload[p]
			}
			n, err := vol.FS.Read(t.file, int64(b)*blockSize, buf)
			if err != nil {
				return fmt.Errorf("verify %s: %w", t.file, err)
			}
			if !bytes.Equal(buf[:n], want) {
				res.wrong++
				res.problem("%s block %d differs from the generator's model", t.file, b)
			}
		}
	}
	for v, vol := range r.vols {
		if st := vol.Health(); st != vfs.Healthy {
			res.problem("%s (%s) ended %s", w.vols[v].id, vol.Name, st)
		}
	}
	if err := r.s.Unmount(); err != nil {
		return err
	}
	for v, vol := range r.vols {
		if err := fs.Check(vol.Name, vol.Disk, vol.Opts); err != nil {
			res.problem("check %s (%s): %v", w.vols[v].id, vol.Name, err)
		}
	}
	return nil
}

func (r *serveRun) outcome() serveOutcome {
	all := make([]int64, 0, int(r.submitted))
	all = append(all, r.lat...)
	for int64(len(all)) < r.submitted {
		all = append(all, math.MaxInt64)
	}
	return serveOutcome{p99WithFailures: quantile(all, 0.99), pendingHalf: r.pendingHalf, pendingEnd: r.pendingEnd}
}

func (w *serveWorkload) rep(rec *spanRec) (*repResult, error) {
	reg := stat.NewRegistry()
	defer stat.SetDefault(stat.SetDefault(reg))
	res := newRepResult()
	if w.others == nil {
		w.others = map[float64]serveOutcome{}
		for _, mult := range serveRates {
			if mult == 1 {
				continue
			}
			// Only the verdict and any correctness problem of these runs
			// are kept; their counts and host cost are not this rate's.
			side := newRepResult()
			r, err := w.run(mult, nil, reg, side, newLayerCounts())
			if err != nil {
				return nil, fmt.Errorf("rate %gx: %w", mult, err)
			}
			w.others[mult] = r.outcome()
			res.wrong += side.wrong
			res.failed += side.failed
			res.problems = append(res.problems, side.problems...)
		}
	}
	counts := newLayerCounts()
	r, err := w.run(1, rec, reg, res, counts)
	if err != nil {
		return nil, err
	}
	res.ops, res.failed = r.submitted, res.failed+r.failed
	res.sim["sim_ops_per_s"] = float64(r.completed) / counts.simTime.Seconds()
	res.sim["sim_p50_us"] = us(quantile(r.lat, 0.50))
	res.sim["sim_p99_us"] = us(quantile(r.lat, 0.99))
	res.sim["sim_write_amp"] = ratio(float64(counts.disk.BytesWritten), float64(r.userBytes))

	slo := 0.0
	for _, mult := range serveRates {
		o := w.others[mult]
		if mult == 1 {
			o = r.outcome()
		}
		if o.meetsSLO(len(w.tenants)) {
			slo = mult * serveNominalRate * float64(len(w.tenants)) / serveTenants
		}
	}
	res.sim["sim_slo_rate_ops"] = slo
	res.sim["serve.submitted"] = float64(r.submitted)
	res.sim["serve.admitted"] = counts.sum("serve_admitted")
	res.sim["serve.throttled"] = counts.sum("serve_rejects{reason=throttled")
	res.sim["serve.queue_full"] = counts.sum("serve_rejects{reason=queue-full")
	res.sim["serve.route_refused"] = counts.sum("serve_rejects{reason=health")
	res.sim["serve.sim_queue_wait_p50_us"] = us(quantile(r.queueWait, 0.50))
	res.sim["serve.sim_queue_wait_p99_us"] = us(quantile(r.queueWait, 0.99))
	res.sim["serve.sim_exec_p50_us"] = us(quantile(r.exec, 0.50))
	res.sim["serve.sim_exec_p99_us"] = us(quantile(r.exec, 0.99))
	res.sim["serve.gen_late_p99_us"] = us(quantile(r.late, 0.99))
	counts.emit(res.sim, r.submitted)
	return res, nil
}
