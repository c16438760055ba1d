package bcache

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"ironfs/internal/disk"
)

// seqDev stamps every block it reads with the block number and a read
// sequence number, so no two reads leave the same bytes and a buffer that
// a later read reused shows. It allocates nothing and is safe for
// concurrent use.
type seqDev struct {
	raDev
	seq atomic.Uint64
}

func (d *seqDev) ReadBlock(n int64, buf []byte) error {
	binary.LittleEndian.PutUint64(buf, uint64(n))
	binary.LittleEndian.PutUint64(buf[8:], d.seq.Add(1))
	return nil
}

// held is a buffer a caller keeps, with the bytes it must keep.
type held struct {
	blk       int64
	buf, want []byte
}

func (h held) check(t *testing.T, when string) {
	t.Helper()
	if !bytes.Equal(h.buf, h.want) {
		t.Errorf("%s: the buffer held for block %d changed: % x, was % x", when, h.blk, h.buf[:16], h.want[:16])
	}
}

// readOne reads block b the way a file system's Read does: a miss is read
// into a buffer of the caller's, Put, and read ahead of.
func readOne(c *Cache, p *Prefetcher, dev disk.Device, b int64) {
	if c.Resident(b) {
		return
	}
	buf := make([]byte, dev.BlockSize())
	dev.ReadBlock(b, buf)
	c.Put(b, buf, false)
	p.ReadAhead(dev, b, nil)
}

// TestHeldBuffersKeepTheirBytes: the cache recycles only frames it owns
// and never handed out. A slice Get returned — of a block read ahead into
// a cache frame or of one a caller put — and a buffer a caller gave to Put
// keep their bytes while evictions, Drop, Reset, Put replacements and a
// stream of read-ahead fills go on around them.
func TestHeldBuffersKeepTheirBytes(t *testing.T) {
	c := NewSharded(16, 1)
	p := NewPrefetcher(c, 8)
	dev := &seqDev{raDev: raDev{blocks: 1 << 20}}
	var hold []held
	keep := func(blk int64, buf []byte) {
		hold = append(hold, held{blk, buf, bytes.Clone(buf)})
	}
	checkAll := func(when string) {
		t.Helper()
		for _, h := range hold {
			h.check(t, when)
		}
	}
	for lap := int64(0); lap < 4; lap++ {
		base := lap * 1000
		stream(c, p, dev, base, base+100)
		// The stream leaves read-ahead frames resident: hold a few.
		for b := base + 90; b < base+110; b++ {
			if got := c.Get(b); got != nil {
				keep(b, got)
			}
		}
		// A buffer given to Put, held by its giver.
		mine := bytes.Repeat([]byte{0xEE, byte(lap)}, dev.BlockSize()/2)
		c.Put(base+500, mine, false)
		keep(base+500, mine)
		stream(c, p, dev, base+200, base+300)
		checkAll("after evictions")
		// Put over a held block: the held buffer is the old one.
		for _, h := range hold {
			c.Put(h.blk, bytes.Repeat([]byte{0x11}, dev.BlockSize()), false)
			c.Drop(h.blk)
		}
		stream(c, p, dev, base+300, base+400)
		checkAll("after Put and Drop")
		c.Reset()
		stream(c, p, dev, base+400, base+500)
		checkAll("after Reset")
	}
	if len(hold) < 4*5 {
		t.Fatalf("held %d buffers; the streams left too few read-ahead blocks to hold", len(hold))
	}
}

// TestHeldBuffersRace runs streaming readers beside goroutines that hold
// Get slices of the blocks just read ahead of them, on a 16-block cache
// where every fill evicts. Run under -race: a held frame the cache
// recycled is written by a read-ahead read while its holder reads it.
func TestHeldBuffersRace(t *testing.T) {
	c := New(16)
	p := NewPrefetcher(c, 8)
	dev := &seqDev{raDev: raDev{blocks: 1 << 30}}
	const readers, span, laps, want = 4, 500, 20000, 64
	var front [readers]atomic.Int64
	var streamed, holders sync.WaitGroup
	var enough, stopped atomic.Bool
	var checked atomic.Int64
	for r := range int64(readers) {
		streamed.Add(1)
		go func() {
			defer streamed.Done()
			for lap := int64(0); lap < laps && !enough.Load(); lap++ {
				base := (lap*readers + r) * span
				for b := base; b < base+span; b++ {
					readOne(c, p, dev, b)
					front[r].Store(b)
				}
			}
		}()
	}
	for h := range readers {
		holders.Add(1)
		go func() {
			defer holders.Done()
			var hold []held
			for k, n := int64(0), 0; n < want && !stopped.Load(); k++ {
				b := front[h].Load() + 1 + k%8
				if got := c.Get(b); got != nil {
					hold = append(hold, held{b, got, bytes.Clone(got)})
				}
				if len(hold) == 8 {
					for _, x := range hold {
						x.check(t, "while streams run")
					}
					n += len(hold)
					checked.Add(int64(len(hold)))
					hold = hold[:0]
				}
			}
		}()
	}
	go func() {
		streamed.Wait()
		stopped.Store(true)
	}()
	holders.Wait()
	enough.Store(true)
	streamed.Wait()
	if checked.Load() < readers*want {
		t.Fatalf("holders checked %d held buffers, want %d", checked.Load(), readers*want)
	}
}
