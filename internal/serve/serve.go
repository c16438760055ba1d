// Package serve is the multi-tenant volume server: many independently
// mounted volumes (any registered file system, each on its own simulated
// disk tower) behind one request API, with per-tenant admission control
// and weighted fair dispatch above the per-volume C-LOOK schedulers.
//
// The paper's failure-policy taxonomy (§3) decides what a file system
// does when its disk fails partially; the serving tier decides what the
// *service* does when one of its volumes has done so. Routing consults
// each volume's live health state: a ReadOnly volume keeps serving reads
// while writes fail with a typed error (ext3's remount-ro made visible
// at the API edge), and a Panicked volume drains — queued requests
// complete with ErrVolumeUnavailable and new ones are refused at
// admission, so one tenant's dead volume never wedges another's queue.
//
// Scheduling is start-time fair queueing (SFQ) over integer tags: a
// request's start tag is max(server virtual time, its tenant's last
// finish tag) and its finish tag adds tagScale/weight, so a tenant with
// weight w receives a w-proportional share of dispatch slots while idle
// tenants build no credit. All tag arithmetic is integral and requests
// dispatch in (start tag, admission sequence) order — the sequence is
// unique, so the order is total — which makes dispatch order, and
// therefore every latency in the simulation, a pure function of the
// submitted workload. The determinism gates in CI (byte-identical
// ironload JSON across runs) rest on that.
//
// The dispatcher is a binary min-heap of the tenants that have queued
// work, keyed on their head request (queue.go): a dispatch costs
// O(log tenants), and the serving tier's own work per request — one
// allocation at admission, metrics through handles resolved once —
// does not grow with the number of registered tenants.
package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"ironfs/internal/disk"
	"ironfs/internal/fs"
	"ironfs/internal/stat"
	"ironfs/internal/vfs"
)

// Op enumerates the request verbs the serving tier exposes. They map
// one-to-one onto the vfs.FileSystem calls a network file service would
// proxy; everything else (links, chmod, readdir) stays harness-local.
type Op int

const (
	OpOpen Op = iota
	OpRead
	OpWrite
	OpCreate
	OpMkdir
	OpRename
	OpUnlink
	OpFsync
	OpSync
	OpStat
)

var opNames = [...]string{
	OpOpen: "open", OpRead: "read", OpWrite: "write", OpCreate: "create",
	OpMkdir: "mkdir", OpRename: "rename", OpUnlink: "unlink",
	OpFsync: "fsync", OpSync: "sync", OpStat: "stat",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// mutates reports whether the op is rejected outright on a ReadOnly
// volume. Fsync and Sync pass through: flushing a read-only volume is
// the file system's own policy call (ext3 treats it as a no-op on clean
// state), not the router's.
func (o Op) mutates() bool {
	switch o {
	case OpWrite, OpCreate, OpMkdir, OpRename, OpUnlink:
		return true
	}
	return false
}

// Request is one tenant operation against one volume.
type Request struct {
	// Volume and Tenant route and account the request. Both must have
	// been registered (AddVolume / AddTenant).
	Volume string
	Tenant string
	Op     Op
	// Path is the primary operand; Path2 is Rename's destination.
	Path  string
	Path2 string
	// Off and Data parameterize Write; Off and Size parameterize Read.
	Off  int64
	Data []byte
	Size int
}

// Response reports one completed (or refused) request.
type Response struct {
	// Tenant, Volume, Op echo the request for attribution.
	Tenant string
	Volume string
	Op     Op
	// N is the byte count moved by Read/Write.
	N int
	// Info is Stat's result.
	Info vfs.FileInfo
	// Err is the operation's outcome: nil, a vfs error from the file
	// system, or a *RouteError from the serving tier itself.
	Err error
	// Queued, Started, Done are virtual timestamps: admission,
	// dispatch, completion. Done-Queued is the latency tenants see.
	Queued  disk.Duration
	Started disk.Duration
	Done    disk.Duration
}

// TenantConfig is one tenant's admission and scheduling contract.
type TenantConfig struct {
	// Weight is the tenant's dispatch share (SFQ weight, >= 1).
	Weight int
	// RateOps caps sustained admission in operations per virtual
	// second (token bucket). 0 = unlimited.
	RateOps float64
	// Burst is the bucket depth: how many ops may arrive back-to-back
	// before RateOps throttles. 0 with RateOps > 0 defaults to 1.
	Burst int
	// QueueCap bounds the tenant's pending queue; a full queue refuses
	// new work with ErrQueueFull rather than growing without bound.
	// 0 defaults to 64.
	QueueCap int
}

// Typed refusal errors. RouteError wraps the volume-health ones with the
// volume's identity and cause so callers can distinguish "your volume
// remounted read-only" from "you are over your rate".
var (
	ErrUnknownVolume     = errors.New("serve: unknown volume")
	ErrUnknownTenant     = errors.New("serve: unknown tenant")
	ErrThrottled         = errors.New("serve: tenant over admission rate")
	ErrQueueFull         = errors.New("serve: tenant queue full")
	ErrVolumeReadOnly    = errors.New("serve: volume is read-only")
	ErrVolumeUnavailable = errors.New("serve: volume unavailable")
)

// RouteError is a health-routing refusal: the request was well-formed
// but its volume's failure policy has taken writes (or everything) away.
type RouteError struct {
	// Volume is the refusing volume's ID.
	Volume string
	// State is the volume health that triggered the refusal.
	State vfs.HealthState
	// Cause is the volume's last health-transition cause, when known
	// (e.g. "journal write failure").
	Cause string
	// Err is the sentinel: ErrVolumeReadOnly or ErrVolumeUnavailable.
	Err error
}

func (e *RouteError) Error() string {
	if e.Cause != "" {
		return fmt.Sprintf("%v (volume %s is %s: %s)", e.Err, e.Volume, e.State, e.Cause)
	}
	return fmt.Sprintf("%v (volume %s is %s)", e.Err, e.Volume, e.State)
}

func (e *RouteError) Unwrap() error { return e.Err }

// tagScale is the SFQ tag increment for weight 1. Integral tag
// arithmetic keeps dispatch order exact: weight w advances a tenant's
// finish tag by tagScale/w per request, so over any interval tenants
// accumulate dispatches in proportion to their weights with no
// floating-point drift.
const tagScale = 1 << 16

// pending is one admitted request. It embeds the Response Submit hands
// out, so admission is a single allocation.
type pending struct {
	resp  Response
	req   *Request
	vol   *volume
	start int64 // SFQ start tag
	seq   uint64
}

type tenant struct {
	name   string
	cfg    TenantConfig
	queue  ring
	finish int64 // finish tag of the last admitted request
	// Token bucket state, refilled lazily on the virtual clock.
	tokens   float64
	lastFill disk.Duration
	// lat is the tenant's exact end-to-end latency histogram, kept
	// outside the metrics registry so thousands of tenants don't bloat
	// its key space.
	lat *stat.Histogram
	// admitted is serve_admitted{tenant}, resolved at first admission.
	admitted *stat.Counter
}

// outcome labels serve_requests.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeError
	outcomeRefused
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "error", "refused"}

type volume struct {
	id  string
	vol *fs.Volume
	// draining latches once the volume is observed Panicked: queued
	// requests complete with ErrVolumeUnavailable and admission
	// refuses new ones, per the drain contract.
	draining bool
	scrub    *scrubState
	// Per-request metric handles, each resolved at its first use: the
	// registry's key set stays exactly the metrics that were recorded,
	// and the request path skips its key rendering and lock.
	requests [numOutcomes]*stat.Counter // serve_requests{volume,outcome}
	latency  *stat.Histogram            // serve_latency{volume}
}

// Server hosts volumes and dispatches tenant requests. All methods are
// safe for concurrent use; the single server lock is the outermost lock
// in the stack (rank 5), taken before any per-FS lock (rank 10) that an
// executing request acquires.
type Server struct {
	//iron:lockorder 5 server lock is outermost: dispatch executes FS ops (rank 10) while holding it
	mu      sync.Mutex
	clk     *disk.Clock
	volumes map[string]*volume
	vols    []*volume // the same volumes, sorted by id
	tenants map[string]*tenant
	// ready is a binary min-heap of the tenants with queued work, ordered
	// by their head request's (start tag, admission sequence); queued
	// counts the requests those tenants hold.
	ready  []*tenant
	queued int
	vtime  int64 // SFQ virtual time: start tag of the last dispatch
	seq    uint64
	reg    *stat.Registry
	// counts holds the serve_rejects{reason} and serve_scrub_*{volume}
	// handles, each resolved at its first event.
	counts stat.Counters[[2]string]
	// readBuf receives OpRead's bytes: a Response carries only the
	// count, and requests execute one at a time under mu.
	readBuf []byte
}

// New creates a server around one shared virtual clock. Every hosted
// volume must be mounted on the same clock so cross-volume latencies
// are comparable.
func New(clk *disk.Clock) *Server {
	return &Server{
		clk:     clk,
		volumes: make(map[string]*volume),
		tenants: make(map[string]*tenant),
		reg:     stat.Default(),
	}
}

// Clock returns the server's shared virtual clock.
func (s *Server) Clock() *disk.Clock { return s.clk }

// AddVolume mounts a volume into the server under id. The MountOpts
// clock is forced to the server's shared clock; Label defaults to id.
func (s *Server) AddVolume(id string, o fs.MountOpts) (*fs.Volume, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.volumes[id]; dup {
		return nil, fmt.Errorf("serve: volume %s already hosted", id)
	}
	o.Clock = s.clk
	if o.Label == "" {
		o.Label = id
	}
	v, err := fs.MountVolume(o)
	if err != nil {
		return nil, err
	}
	hv := &volume{id: id, vol: v}
	s.volumes[id] = hv
	at := sort.Search(len(s.vols), func(i int) bool { return s.vols[i].id > id })
	s.vols = slices.Insert(s.vols, at, hv)
	s.reg.Gauge("serve_volumes").Set(int64(len(s.volumes)))
	return v, nil
}

// AddTenant registers a tenant. Zero-value fields take defaults:
// weight 1, unlimited rate, queue cap 64.
func (s *Server) AddTenant(name string, cfg TenantConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[name]; dup {
		return fmt.Errorf("serve: tenant %s already registered", name)
	}
	if cfg.Weight < 1 {
		cfg.Weight = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.RateOps > 0 && cfg.Burst <= 0 {
		cfg.Burst = 1
	}
	s.tenants[name] = &tenant{
		name:     name,
		cfg:      cfg,
		tokens:   float64(cfg.Burst),
		lastFill: s.clk.Now(),
		lat:      stat.NewHistogram(),
	}
	return nil
}

// VolumeHealth reports a hosted volume's live health state.
func (s *Server) VolumeHealth(id string) (vfs.HealthState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.volumes[id]
	if !ok {
		return vfs.Healthy, fmt.Errorf("%w: %s", ErrUnknownVolume, id)
	}
	return v.vol.Health(), nil
}

// TenantHistogram returns the tenant's exact end-to-end latency
// histogram (nanoseconds of virtual time), or nil if unknown.
func (s *Server) TenantHistogram(name string) *stat.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t.lat
	}
	return nil
}

// Submit runs admission control and, if the request is admitted,
// enqueues it for dispatch. Refusals return a typed error immediately:
// ErrUnknownTenant/ErrUnknownVolume, ErrThrottled (over rate),
// ErrQueueFull (queue cap), or a *RouteError when the volume's health
// already forbids the op. The returned Response is live — its fields
// are filled in when Dispatch executes the request.
func (s *Server) Submit(req *Request) (*Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clk.Now()
	t, ok := s.tenants[req.Tenant]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, req.Tenant)
	}
	v, ok := s.volumes[req.Volume]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVolume, req.Volume)
	}
	if err := s.route(v, req.Op); err != nil {
		s.count("serve_rejects", "reason", "health", 1)
		return nil, err
	}
	// Token bucket on virtual time: lazily refill, then spend.
	if t.cfg.RateOps > 0 {
		elapsed := float64(now-t.lastFill) / float64(disk.Second)
		t.tokens += elapsed * t.cfg.RateOps
		if limit := float64(t.cfg.Burst); t.tokens > limit {
			t.tokens = limit
		}
		t.lastFill = now
		if t.tokens < 1 {
			s.count("serve_rejects", "reason", "throttled", 1)
			return nil, fmt.Errorf("%w: %s", ErrThrottled, t.name)
		}
		t.tokens--
	}
	if t.queue.n >= t.cfg.QueueCap {
		s.count("serve_rejects", "reason", "queue-full", 1)
		return nil, fmt.Errorf("%w: %s", ErrQueueFull, t.name)
	}
	// SFQ tags: start at the later of server virtual time and the
	// tenant's own last finish, so an idle tenant re-enters at the
	// current virtual time instead of cashing in saved-up credit.
	start := t.finish
	if s.vtime > start {
		start = s.vtime
	}
	t.finish = start + tagScale/int64(t.cfg.Weight)
	p := &pending{
		resp:  Response{Tenant: req.Tenant, Volume: req.Volume, Op: req.Op, Queued: now},
		req:   req,
		vol:   v,
		start: start,
		seq:   s.seq,
	}
	s.seq++
	t.queue.push(p)
	s.queued++
	if t.queue.n == 1 {
		s.readyPush(t)
	}
	if t.admitted == nil {
		t.admitted = s.reg.Counter("serve_admitted", "tenant", t.name)
	}
	t.admitted.Inc()
	return &p.resp, nil
}

// count adds n to the counter name{label=value}. Caller holds s.mu.
func (s *Server) count(name, label, value string, n int64) {
	s.counts.Get([2]string{name, value}, s.reg, name, label, value).Add(n)
}

// route is the health check shared by admission and dispatch. Caller
// holds s.mu.
func (s *Server) route(v *volume, op Op) error {
	h := v.vol.Health()
	if h == vfs.Panicked {
		v.draining = true
	}
	if v.draining {
		return &RouteError{Volume: v.id, State: vfs.Panicked,
			Cause: v.vol.HealthCause(), Err: ErrVolumeUnavailable}
	}
	if h == vfs.ReadOnly && op.mutates() {
		return &RouteError{Volume: v.id, State: h,
			Cause: v.vol.HealthCause(), Err: ErrVolumeReadOnly}
	}
	return nil
}

// Pending reports the number of queued (admitted, undispatched)
// requests across all tenants.
func (s *Server) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Dispatch pops and executes the next request in weighted-fair order.
// It returns the executed request's response, or ok=false when every
// queue is empty. The response's Err distinguishes file-system errors
// and routing refusals discovered at execution time (a volume can go
// ReadOnly between admission and dispatch).
func (s *Server) Dispatch() (*Response, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ready) == 0 {
		return nil, false
	}
	t := s.ready[0]
	p := t.queue.pop()
	s.queued--
	s.readyFixRoot()
	// Advance virtual time to the dispatched start tag; tags only grow.
	if p.start > s.vtime {
		s.vtime = p.start
	}
	s.execute(p, t)
	return &p.resp, true
}

// execute runs one request against its volume. Caller holds s.mu; the
// per-FS lock (rank 10) nests inside, per the declared lock order.
func (s *Server) execute(p *pending, t *tenant) {
	req, resp, v := p.req, &p.resp, p.vol
	resp.Started = s.clk.Now()
	if err := s.route(v, req.Op); err != nil {
		resp.Err = err
		s.finish(p, t, outcomeRefused)
		return
	}
	fsys := v.vol.FS
	switch req.Op {
	case OpOpen:
		resp.Err = fsys.Open(req.Path)
	case OpRead:
		if cap(s.readBuf) < req.Size {
			s.readBuf = make([]byte, req.Size)
		}
		resp.N, resp.Err = fsys.Read(req.Path, req.Off, s.readBuf[:req.Size])
	case OpWrite:
		resp.N, resp.Err = fsys.Write(req.Path, req.Off, req.Data)
	case OpCreate:
		resp.Err = fsys.Create(req.Path, 0o644)
	case OpMkdir:
		resp.Err = fsys.Mkdir(req.Path, 0o755)
	case OpRename:
		resp.Err = fsys.Rename(req.Path, req.Path2)
	case OpUnlink:
		resp.Err = fsys.Unlink(req.Path)
	case OpFsync:
		resp.Err = fsys.Fsync(req.Path)
	case OpSync:
		resp.Err = fsys.Sync()
	case OpStat:
		resp.Info, resp.Err = fsys.Stat(req.Path)
	default:
		resp.Err = fmt.Errorf("serve: unknown op %v", req.Op)
	}
	o := outcomeOK
	if resp.Err != nil {
		o = outcomeError
	}
	s.finish(p, t, o)
}

// finish stamps completion and records latency. Caller holds s.mu.
func (s *Server) finish(p *pending, t *tenant, o outcome) {
	resp, v := &p.resp, p.vol
	resp.Done = s.clk.Now()
	lat := int64(resp.Done - resp.Queued)
	t.lat.Observe(lat)
	if v.requests[o] == nil {
		v.requests[o] = s.reg.Counter("serve_requests", "volume", v.id, "outcome", outcomeNames[o])
	}
	v.requests[o].Inc()
	if v.latency == nil {
		v.latency = s.reg.Histogram("serve_latency", "volume", v.id)
	}
	v.latency.Observe(lat)
}

// Drain dispatches until every tenant queue is empty.
func (s *Server) Drain() {
	for {
		if _, ok := s.Dispatch(); !ok {
			return
		}
	}
}

// Unmount unmounts every hosted volume that is still mountable and
// returns the first error. Panicked volumes are skipped — their file
// systems refuse everything by design.
func (s *Server) Unmount() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, v := range s.vols {
		if v.vol.Health() == vfs.Panicked {
			continue
		}
		if err := v.vol.Unmount(); err != nil && first == nil {
			first = fmt.Errorf("serve: unmount %s: %w", v.id, err)
		}
	}
	return first
}
