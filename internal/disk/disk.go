package disk

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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
	blocks int64
	tracks int64

	mu sync.Mutex
	// media holds the image one track at a time (BlocksPerTrack blocks;
	// the last track may be short). A nil track has never been written:
	// it reads as zeros, and its first write allocates it. A written
	// track marked shared also belongs to an Image, so the disk's first
	// write to it clones it. arena, once a Restore has set it, is the
	// whole image in one slice, and every track aliases it, so a restored
	// disk allocates nothing on a write.
	media  [][]byte
	shared []bool
	arena  []byte
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
	// readSvc, writeSvc, barriers and batches are the registry's handles,
	// resolved at construction and labelled by the trace kind of the
	// event each counts (note): disk_svc_ns{op=read|write}, the full
	// mechanical cost charged to the clock, and
	// disk_ops_total{op=barrier|batch}.
	readSvc, writeSvc *stat.Histogram
	barriers, batches *stat.Counter
	// gen counts media modifications (one per block written, one per
	// Restore); wlog[g%writeLogLen] is the block that write g landed on
	// and logFloor the oldest generation the ring can still answer for.
	gen      int64
	logFloor int64
	wlog     [writeLogLen]int64
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
		blocks:   numBlocks,
		tracks:   tracks,
		bufTrack: -1,
		media:    make([][]byte, tracks),
		shared:   make([]bool, tracks),
		readSvc:  stat.H("disk_svc_ns", "op", trace.KindRead),
		writeSvc: stat.H("disk_svc_ns", "op", trace.KindWrite),
		barriers: stat.C("disk_ops_total", "op", trace.KindBarrier),
		batches:  stat.C("disk_ops_total", "op", trace.KindBatch),
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
func (d *Disk) NumBlocks() int64 { return d.blocks }

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
	d.note(trace.KindBarrier, trace.NoBlock, d.clock.Now())
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
	d.readLocked(n, buf)
	d.note(trace.KindRead, n, start)
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
	d.writeLocked(n, buf)
	d.note(trace.KindWrite, n, start)
	return nil
}

// WriteBatch implements Device. The batch is serviced in elevator (sorted)
// order, which lets contiguous runs stream at media rate. A batch already
// in strictly ascending order (every scheduler run is) is serviced as
// given, without allocating.
func (d *Disk) WriteBatch(reqs []Request) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if len(reqs) > 0 {
		// One command overhead covers the whole queued batch.
		d.note(trace.KindBatch, int64(len(reqs)), d.clock.Now())
		d.clock.Advance(d.geom.CmdOverhead)
	}
	for _, r := range ElevatorOrder(reqs) {
		if err := d.check(r.Block, r.Data); err != nil {
			return err
		}
		start := d.clock.Now()
		d.serviceLocked(r.Block)
		d.writeLocked(r.Block, r.Data)
		d.note(trace.KindWrite, r.Block, start)
	}
	return nil
}

// note records one serviced command in each of its sinks: the exact
// Stats, the registry and the trace. kind is the command's trace kind, n
// the block read or written (a batch's request count), start the time the
// command began; a barrier or a batch is stamped at start. A write is also
// logged where it landed (WritesSince). Caller holds d.mu.
func (d *Disk) note(kind string, n int64, start Duration) {
	svc := d.clock.Now() - start
	switch kind {
	case trace.KindRead:
		d.stats.Reads++
		d.stats.BytesRead += int64(d.geom.BlockSize)
		d.readSvc.Observe(int64(svc))
		d.tr.IO(trace.LayerDisk, kind, n, "", int64(start), int64(svc), nil)
	case trace.KindWrite:
		d.noteWriteLocked(n)
		d.stats.Writes++
		d.stats.BytesWritten += int64(d.geom.BlockSize)
		d.writeSvc.Observe(int64(svc))
		d.tr.IO(trace.LayerDisk, kind, n, "", int64(start), int64(svc), nil)
	case trace.KindBarrier:
		d.stats.Barriers++
		d.barriers.Inc()
		d.tr.Barrier(trace.LayerDisk, int64(start), 0, 0)
	case trace.KindBatch:
		d.batches.Inc()
		d.tr.Batch(int64(start), int(n))
	}
}

// ElevatorOrder returns reqs in the order a batch is serviced: ascending by
// block. A batch already strictly ascending is returned as is; any other
// is copied and sorted by sort.Slice over indices, so blocks named twice
// keep the order they have always been serviced in.
func ElevatorOrder(reqs []Request) []Request {
	if ascending(reqs) {
		return reqs
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return reqs[order[a]].Block < reqs[order[b]].Block })
	out := make([]Request, len(reqs))
	for k, i := range order {
		out[k] = reqs[i]
	}
	return out
}

// ascending reports whether reqs is in strictly ascending block order.
func ascending(reqs []Request) bool {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Block <= reqs[i-1].Block {
			return false
		}
	}
	return true
}

// ReadRaw copies block n into buf without advancing the clock or touching
// statistics. It is the "debug port" used by gray-box type resolvers and
// image inspectors, which must observe the media without perturbing the
// simulation or tripping armed faults.
func (d *Disk) ReadRaw(n int64, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n >= d.blocks {
		return ErrOutOfRange
	}
	if len(buf) != d.geom.BlockSize {
		return ErrBadSize
	}
	d.readLocked(n, buf)
	return nil
}

// WriteRaw is ReadRaw's counterpart: it copies buf onto block n without
// advancing the clock or touching statistics, and it trips no armed
// fault. The write is still logged for WritesSince. Crash harnesses use it
// to lay a crash state's writes onto a restored disk.
func (d *Disk) WriteRaw(n int64, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n >= d.blocks {
		return ErrOutOfRange
	}
	if len(buf) != d.geom.BlockSize {
		return ErrBadSize
	}
	d.writeLocked(n, buf)
	d.noteWriteLocked(n)
	return nil
}

// readLocked copies block n from the media into buf; a block on a track
// never written reads as zeros. Caller holds d.mu and has checked n.
func (d *Disk) readLocked(n int64, buf []byte) {
	t := d.media[n/d.geom.BlocksPerTrack]
	if t == nil {
		clear(buf)
		return
	}
	copy(buf, t[(n%d.geom.BlocksPerTrack)*int64(d.geom.BlockSize):])
}

// writeLocked copies data onto block n, allocating its track on the
// track's first write and cloning a shared track. Caller holds d.mu and
// has checked n.
func (d *Disk) writeLocked(n int64, data []byte) {
	i := n / d.geom.BlocksPerTrack
	switch {
	case d.media[i] == nil:
		d.media[i] = make([]byte, d.trackBytes(i))
	case d.shared[i]:
		d.media[i] = bytes.Clone(d.media[i])
		d.shared[i] = false
	}
	copy(d.media[i][(n%d.geom.BlocksPerTrack)*int64(d.geom.BlockSize):], data)
}

// trackBytes returns the size of track i: BlocksPerTrack blocks, fewer on
// a short last track.
func (d *Disk) trackBytes(i int64) int64 {
	return min(d.geom.BlocksPerTrack, d.blocks-i*d.geom.BlocksPerTrack) * int64(d.geom.BlockSize)
}

// writeLogLen is how many of the most recent writes the disk remembers by
// block number (WritesSince). Above the fault layer a whole run of a batch
// is classified before it lands, so up to a run's length of writes land
// between consecutive classifications (at most 111 in the fault_degraded
// benchmark); a reader further behind than this (raw mkfs traffic, a
// replayed cache log) is told to start over.
const writeLogLen = 1024

// noteWriteLocked logs a write to block n where it landed — below every
// wrapper, so misdirected writes and raw mkfs traffic are seen too.
func (d *Disk) noteWriteLocked(n int64) {
	d.wlog[d.gen%writeLogLen] = n
	d.gen++
}

// WritesSince appends to dst the block numbers written after generation
// since and returns them with the current generation. ok is false when
// the log cannot answer — since predates a restore or lies more than the
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

// Image is an immutable photograph of a disk's media: one slice per
// track, nil for a track that reads as zeros. Disks share its tracks
// instead of copying them, and a disk clones a shared track at its first
// write to it, so nothing changes an Image once it is taken.
type Image struct {
	tracks [][]byte
	size   int64
}

// Image returns the disk's current media and marks its tracks shared, so
// the disk's own next write to each clones it. Nothing is zeroed or
// copied but the track table.
func (d *Disk) Image() *Image {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, t := range d.media {
		d.shared[i] = t != nil
	}
	d.arena = nil // a write may now clone a track away from it
	return &Image{tracks: slices.Clone(d.media), size: d.blocks * int64(d.geom.BlockSize)}
}

// RestoreImage replaces the media with img's tracks, shared: the disk
// clones a track at its first write to it. Every block may have changed,
// so the write log starts over, as after Restore.
func (d *Disk) RestoreImage(img *Image) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size := d.blocks * int64(d.geom.BlockSize); img.size != size || len(img.tracks) != len(d.media) {
		return fmt.Errorf("disk: image size %d != disk size %d", img.size, size)
	}
	for i, t := range img.tracks {
		d.media[i], d.shared[i] = t, t != nil
	}
	d.arena = nil
	d.gen++
	d.logFloor = d.gen
	return nil
}

// Snapshot returns a copy of the raw disk contents: one clone of a disk
// restored by Restore, else the written tracks copied over zeros. Outside
// tests only bench/ uses Snapshot and Restore; the rest take an Image.
func (d *Disk) Snapshot() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.arena != nil {
		return bytes.Clone(d.arena)
	}
	out := make([]byte, d.blocks*int64(d.geom.BlockSize))
	stride := d.geom.BlocksPerTrack * int64(d.geom.BlockSize)
	for i, t := range d.media {
		copy(out[int64(i)*stride:], t)
	}
	return out
}

// Restore overwrites the raw disk contents from a snapshot taken earlier.
// The image, cloned in one pass, becomes the arena and every track
// aliases it: a restored disk is fully resident. Every block may have
// changed, so the write log starts over.
func (d *Disk) Restore(img []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size := d.blocks * int64(d.geom.BlockSize); int64(len(img)) != size {
		return fmt.Errorf("disk: snapshot size %d != disk size %d", len(img), size)
	}
	d.arena = bytes.Clone(img)
	clear(d.shared)
	stride := d.geom.BlocksPerTrack * int64(d.geom.BlockSize)
	for i := range d.media {
		lo := int64(i) * stride
		d.media[i] = d.arena[lo : lo+d.trackBytes(int64(i))]
	}
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
