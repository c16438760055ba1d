package disk_test

import (
	"bytes"
	"fmt"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/sched"
)

// TestDevicesKeepNoBuffer holds every disk.Device in the repository to the
// contract the frame pool rests on: a device keeps no buffer past the call.
// Each stack takes single writes and batches, in and out of block order,
// and every buffer is scribbled on the moment its call returns. The media,
// a read-back through the stack and a crash device's write log must hold
// exactly what was written. The scheduler over a crash device also checks
// the crash device's clones: the scheduler hands its drained buffers to
// the pool, and its later writes take them again.
func TestDevicesKeepNoBuffer(t *testing.T) {
	const blocks = 64
	stacks := []struct {
		name  string
		build func(d *disk.Disk) (disk.Device, *faultinject.CrashDevice)
	}{
		{"disk", func(d *disk.Disk) (disk.Device, *faultinject.CrashDevice) { return d, nil }},
		{"sched_depth1", func(d *disk.Disk) (disk.Device, *faultinject.CrashDevice) {
			return sched.New(d, sched.Config{QueueDepth: 1}), nil
		}},
		{"sched_depth32", func(d *disk.Disk) (disk.Device, *faultinject.CrashDevice) {
			return sched.New(d, sched.Config{QueueDepth: 32}), nil
		}},
		{"faultinject", func(d *disk.Disk) (disk.Device, *faultinject.CrashDevice) {
			return faultinject.New(d, nil), nil
		}},
		{"crash", func(d *disk.Disk) (disk.Device, *faultinject.CrashDevice) {
			c := faultinject.NewCrashDevice(d, -1)
			return c, c
		}},
		{"sched_depth32_over_crash", func(d *disk.Disk) (disk.Device, *faultinject.CrashDevice) {
			c := faultinject.NewCrashDevice(d, -1)
			return sched.New(c, sched.Config{QueueDepth: 32}), c
		}},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			raw, err := disk.New(blocks, disk.DefaultGeometry(), disk.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			dev, crash := st.build(raw)
			bs := dev.BlockSize()
			// versions holds every image written to each block, in order.
			versions := map[int64][][]byte{}
			image := func(round int, b int64) []byte {
				buf := bytes.Repeat([]byte(fmt.Sprintf("r%02db%02d;", round, b)), bs/7+1)[:bs]
				versions[b] = append(versions[b], bytes.Clone(buf))
				return buf
			}
			scribble := func(buf []byte) {
				for i := range buf {
					buf[i] = 0xEE
				}
			}
			for round := 0; round < 4; round++ {
				for b := int64(0); b < 16; b++ {
					buf := image(round, b)
					if err := dev.WriteBlock(b, buf); err != nil {
						t.Fatal(err)
					}
					scribble(buf)
				}
				// A batch in descending order, then one of adjacent blocks.
				for _, order := range [][]int64{{40, 33, 31, 20, 17}, {48, 49, 50, 51, 52, 53}} {
					reqs := make([]disk.Request, len(order))
					for i, b := range order {
						reqs[i] = disk.Request{Block: b, Data: image(round, b)}
					}
					if err := dev.WriteBatch(reqs); err != nil {
						t.Fatal(err)
					}
					for _, r := range reqs {
						scribble(r.Data)
					}
				}
			}
			if err := dev.Barrier(); err != nil {
				t.Fatal(err)
			}

			got := make([]byte, bs)
			for b, vs := range versions {
				want := vs[len(vs)-1]
				if err := raw.ReadBlock(b, got); err != nil || !bytes.Equal(got, want) {
					t.Errorf("block %d on the media: %q, %v; want %q", b, got[:8], err, want[:8])
				}
				if err := dev.ReadBlock(b, got); err != nil || !bytes.Equal(got, want) {
					t.Errorf("block %d read back: %q, %v; want %q", b, got[:8], err, want[:8])
				}
			}
			if crash == nil {
				return
			}
			// Every logged write is a version written to its block, and the
			// last logged for a block is the last version written.
			last := map[int64][]byte{}
			for _, w := range crash.Log() {
				found := false
				for _, v := range versions[w.Block] {
					found = found || bytes.Equal(w.Data, v)
				}
				if !found {
					t.Errorf("logged write %d to block %d holds %q, which was never written there", w.Seq, w.Block, w.Data[:8])
				}
				last[w.Block] = w.Data
			}
			for b, vs := range versions {
				if !bytes.Equal(last[b], vs[len(vs)-1]) {
					t.Errorf("the log's last write to block %d is not the last version written", b)
				}
			}
		})
	}
}
