package disk

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ironfs/internal/stat"
	"ironfs/internal/trace"
)

// Geometry describes the simulated disk's mechanical characteristics. The
// defaults approximate the Western Digital WD1200BB (the 7200 RPM ATA drive
// used in the paper's evaluation), scaled down in capacity.
type Geometry struct {
	// BlockSize is the logical block size in bytes.
	BlockSize int
	// BlocksPerTrack is the number of logical blocks per track.
	BlocksPerTrack int64
	// RPM is the spindle speed in rotations per minute.
	RPM int
	// SeekMin is the single-track seek time.
	SeekMin Duration
	// SeekMax is the full-stroke seek time.
	SeekMax Duration
	// CmdOverhead is the per-command issue latency (controller, interrupt
	// and host turnaround). A batch pays it once; a synchronous write
	// issued after a barrier pays it again — and thereby misses its
	// rotational slot, which is exactly the cost transactional checksums
	// eliminate (§6.1).
	CmdOverhead Duration
}

// DefaultGeometry returns a WD1200BB-like geometry: 4 KiB blocks, 7200 RPM,
// 0.8 ms track-to-track and 16 ms full-stroke seeks, 128 blocks per track
// (~60 MB/s media rate).
func DefaultGeometry() Geometry {
	return Geometry{
		BlockSize:      4096,
		BlocksPerTrack: 128,
		RPM:            7200,
		SeekMin:        800 * Microsecond,
		SeekMax:        16 * Millisecond,
		CmdOverhead:    150 * Microsecond,
	}
}

// rotation returns the time of one full platter rotation.
func (g Geometry) rotation() Duration {
	return Duration(int64(60) * int64(Second) / int64(g.RPM))
}

// Disk is an in-memory simulated disk with a mechanical service-time model.
// It is safe for concurrent use; requests are serialized, which models a
// single-spindle device.
type Disk struct {
	geom   Geometry
	clock  *Clock
	tracks int64

	mu     sync.Mutex
	data   []byte
	closed bool
	// head position: current track, known from the last access.
	track int64
	// bufTrack is the track held in the drive's read buffer: modern
	// drives read whole tracks, so sequential single-block reads after
	// the first are served from the buffer at transfer cost alone.
	bufTrack int64
	stats    Stats
	// tr, when set, receives a mechanical-layer event per serviced I/O.
	// A nil tracer costs nothing on the hot path (the Table 6 bar).
	tr *trace.Tracer
	// st holds the live-metrics handles, resolved once at construction
	// from the process-wide registry (see internal/stat).
	st diskMetrics
	// gen counts media modifications (one per block written, one per
	// Restore); wlog[g%writeLogLen] is the block that write g landed on
	// and logFloor the oldest generation the ring can still answer for.
	gen      int64
	logFloor int64
	wlog     [writeLogLen]int64
}

// diskMetrics are the disk's live-metrics handles: exact service-time
// distributions per op type plus barrier/batch counts. Service time here
// includes command overhead, seek, rotation, and transfer — the full
// mechanical cost charged to the virtual clock.
type diskMetrics struct {
	readSvc  *stat.Histogram
	writeSvc *stat.Histogram
	barriers *stat.Counter
	batches  *stat.Counter
}

func newDiskMetrics() diskMetrics {
	return diskMetrics{
		readSvc:  stat.H("disk_svc_ns", "op", "read"),
		writeSvc: stat.H("disk_svc_ns", "op", "write"),
		barriers: stat.C("disk_ops_total", "op", "barrier"),
		batches:  stat.C("disk_ops_total", "op", "batch"),
	}
}

// New returns a simulated disk of the given number of blocks using the
// supplied geometry and clock. A nil clock allocates a fresh one.
func New(numBlocks int64, geom Geometry, clock *Clock) (*Disk, error) {
	if numBlocks <= 0 {
		return nil, fmt.Errorf("disk: invalid size %d blocks", numBlocks)
	}
	if geom.BlockSize <= 0 || geom.BlocksPerTrack <= 0 || geom.RPM <= 0 {
		return nil, fmt.Errorf("disk: invalid geometry %+v", geom)
	}
	if clock == nil {
		clock = NewClock()
	}
	tracks := (numBlocks + geom.BlocksPerTrack - 1) / geom.BlocksPerTrack
	return &Disk{
		geom:     geom,
		clock:    clock,
		tracks:   tracks,
		bufTrack: -1,
		data:     make([]byte, numBlocks*int64(geom.BlockSize)),
		st:       newDiskMetrics(),
	}, nil
}

// Clock returns the simulated clock the disk advances.
func (d *Disk) Clock() *Clock { return d.clock }

// SetTracer attaches a tracer to the disk. Attach it before wrapping the
// disk in higher layers (fault injection, file systems): they discover the
// run's tracer from the device below them via trace.Of.
func (d *Disk) SetTracer(tr *trace.Tracer) {
	d.mu.Lock()
	d.tr = tr
	d.mu.Unlock()
}

// Tracer implements trace.Provider.
func (d *Disk) Tracer() *trace.Tracer {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tr
}

// Geometry returns the disk's geometry.
func (d *Disk) Geometry() Geometry { return d.geom }

// Stats returns a snapshot of the I/O statistics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// BlockSize implements Device.
func (d *Disk) BlockSize() int { return d.geom.BlockSize }

// NumBlocks implements Device.
func (d *Disk) NumBlocks() int64 { return int64(len(d.data)) / int64(d.geom.BlockSize) }

// Close implements Device.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// Barrier implements Device. The simulated disk is synchronous, so a
// barrier is a no-op beyond its effect on batching at higher layers.
func (d *Disk) Barrier() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	d.stats.Barriers++
	d.st.barriers.Inc()
	if d.tr.Enabled() {
		d.tr.Barrier(trace.LayerDisk, int64(d.clock.Now()), 0, 0)
	}
	return nil
}

func (d *Disk) check(n int64, buf []byte) error {
	if d.closed {
		return ErrClosed
	}
	if n < 0 || n >= d.NumBlocks() {
		return fmt.Errorf("%w: block %d of %d", ErrOutOfRange, n, d.NumBlocks())
	}
	if len(buf) != d.geom.BlockSize {
		return fmt.Errorf("%w: got %d want %d", ErrBadSize, len(buf), d.geom.BlockSize)
	}
	return nil
}

// serviceLocked computes and charges the mechanical service time for an
// access to block n, updating head state. Caller holds d.mu.
func (d *Disk) serviceLocked(n int64) Duration {
	rot := d.geom.rotation()
	bpt := d.geom.BlocksPerTrack
	target := n / bpt

	// Seek: proportional to the square root of the distance, between the
	// single-track and full-stroke times.
	var seek Duration
	if dist := target - d.track; dist != 0 {
		if dist < 0 {
			dist = -dist
		}
		frac := math.Sqrt(float64(dist) / float64(max64(d.tracks-1, 1)))
		seek = d.geom.SeekMin + Duration(float64(d.geom.SeekMax-d.geom.SeekMin)*frac)
	}

	// Rotation: the platter angle is a pure function of simulated time,
	// so consecutive block numbers stream with no rotational wait while
	// an access issued "one block too late" pays almost a full turn.
	now := d.clock.Now() + seek
	slotTime := Duration(int64(rot) / bpt)
	slot := n % bpt
	angleNow := Duration(int64(now) % int64(rot))
	angleTarget := Duration(int64(slot) * int64(slotTime))
	wait := angleTarget - angleNow
	if wait < 0 {
		wait += rot
	}

	total := seek + wait + slotTime
	d.clock.Advance(total)
	d.track = target
	d.bufTrack = target
	d.stats.BusyTime += total
	return total
}

// serviceReadLocked is serviceLocked for reads: a hit in the drive's track
// buffer costs only the transfer time.
func (d *Disk) serviceReadLocked(n int64) Duration {
	target := n / d.geom.BlocksPerTrack
	if target == d.bufTrack {
		slotTime := Duration(int64(d.geom.rotation()) / d.geom.BlocksPerTrack)
		d.clock.Advance(slotTime)
		d.stats.BusyTime += slotTime
		return slotTime
	}
	return d.serviceLocked(n)
}

// ReadBlock implements Device.
func (d *Disk) ReadBlock(n int64, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(n, buf); err != nil {
		return err
	}
	start := d.clock.Now()
	d.clock.Advance(d.geom.CmdOverhead)
	d.serviceReadLocked(n)
	off := n * int64(d.geom.BlockSize)
	copy(buf, d.data[off:off+int64(d.geom.BlockSize)])
	d.stats.Reads++
	d.stats.BytesRead += int64(d.geom.BlockSize)
	d.st.readSvc.Observe(int64(d.clock.Now() - start))
	if d.tr.Enabled() {
		d.tr.IO(trace.LayerDisk, trace.KindRead, n, "", int64(start), int64(d.clock.Now()-start), nil)
	}
	return nil
}

// WriteBlock implements Device.
func (d *Disk) WriteBlock(n int64, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(n, buf); err != nil {
		return err
	}
	start := d.clock.Now()
	d.clock.Advance(d.geom.CmdOverhead)
	d.serviceLocked(n)
	off := n * int64(d.geom.BlockSize)
	copy(d.data[off:off+int64(d.geom.BlockSize)], buf)
	d.noteWriteLocked(n)
	d.stats.Writes++
	d.stats.BytesWritten += int64(d.geom.BlockSize)
	d.st.writeSvc.Observe(int64(d.clock.Now() - start))
	if d.tr.Enabled() {
		d.tr.IO(trace.LayerDisk, trace.KindWrite, n, "", int64(start), int64(d.clock.Now()-start), nil)
	}
	return nil
}

// WriteBatch implements Device. The batch is serviced in elevator (sorted)
// order, which lets contiguous runs stream at media rate.
func (d *Disk) WriteBatch(reqs []Request) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return reqs[order[a]].Block < reqs[order[b]].Block })
	if len(reqs) > 0 {
		// One command overhead covers the whole queued batch.
		if d.tr.Enabled() {
			d.tr.Batch(int64(d.clock.Now()), len(reqs))
		}
		d.st.batches.Inc()
		d.clock.Advance(d.geom.CmdOverhead)
	}
	for _, i := range order {
		r := reqs[i]
		if err := d.check(r.Block, r.Data); err != nil {
			return err
		}
		start := d.clock.Now()
		d.serviceLocked(r.Block)
		off := r.Block * int64(d.geom.BlockSize)
		copy(d.data[off:off+int64(d.geom.BlockSize)], r.Data)
		d.noteWriteLocked(r.Block)
		d.stats.Writes++
		d.stats.BytesWritten += int64(d.geom.BlockSize)
		d.st.writeSvc.Observe(int64(d.clock.Now() - start))
		if d.tr.Enabled() {
			d.tr.IO(trace.LayerDisk, trace.KindWrite, r.Block, "", int64(start), int64(d.clock.Now()-start), nil)
		}
	}
	return nil
}

// ReadRaw copies block n into buf without advancing the clock or touching
// statistics. It is the "debug port" used by gray-box type resolvers and
// image inspectors, which must observe the media without perturbing the
// simulation or tripping armed faults.
func (d *Disk) ReadRaw(n int64, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n >= int64(len(d.data))/int64(d.geom.BlockSize) {
		return ErrOutOfRange
	}
	if len(buf) != d.geom.BlockSize {
		return ErrBadSize
	}
	off := n * int64(d.geom.BlockSize)
	copy(buf, d.data[off:off+int64(d.geom.BlockSize)])
	return nil
}

// writeLogLen is how many of the most recent writes the disk remembers by
// block number (WritesSince). Above the fault layer one or two writes land
// between consecutive classifications; a reader further behind than this
// (raw mkfs traffic, a replayed cache log) is told to start over.
const writeLogLen = 64

// noteWriteLocked logs a write to block n where it landed — below every
// wrapper, so misdirected writes and raw mkfs traffic are seen too.
func (d *Disk) noteWriteLocked(n int64) {
	d.wlog[d.gen%writeLogLen] = n
	d.gen++
}

// WritesSince appends to dst the block numbers written after generation
// since and returns them with the current generation. ok is false when
// the log cannot answer — since predates a Restore or lies more than the
// ring's length back — and the caller must assume any block changed.
// Gray-box resolvers use it to keep a classification map across writes
// that touched nothing the map was derived from.
func (d *Disk) WritesSince(since int64, dst []int64) (blocks []int64, gen int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if since < d.logFloor || d.gen-since > writeLogLen {
		return dst, d.gen, false
	}
	for g := since; g < d.gen; g++ {
		dst = append(dst, d.wlog[g%writeLogLen])
	}
	return dst, d.gen, true
}

// Snapshot returns a copy of the raw disk contents, for crash-consistency
// testing and image inspection.
func (d *Disk) Snapshot() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, len(d.data))
	copy(out, d.data)
	return out
}

// Restore overwrites the raw disk contents from a snapshot taken earlier.
// Every block may have changed, so the write log starts over.
func (d *Disk) Restore(img []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) != len(d.data) {
		return fmt.Errorf("disk: snapshot size %d != disk size %d", len(img), len(d.data))
	}
	copy(d.data, img)
	d.gen++
	d.logFloor = d.gen
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
