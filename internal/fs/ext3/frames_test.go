package ext3

import (
	"bytes"
	"fmt"
	"testing"

	"ironfs/internal/stat"
)

// TestPendingFramesStayTheirs: a committed block waiting for the
// checkpoint keeps its frozen image in a frame of the running
// transaction's. A newer commit of the block supersedes its entry, and a
// committed revoke of it kills the entry; either hands the old frame back,
// and later freezes copy into it. The frame of an entry the checkpoint can
// still write must never be lent that way: after every commit, no two live
// entries share a frame and each still holds the bytes its commit froze.
// Files with a pointer block, unlinked a commit later, give revoke kills;
// the directory, inode table and bitmaps give supersessions, and the
// journal filling up gives checkpoints between commits.
func TestPendingFramesStayTheirs(t *testing.T) {
	for name, opts := range map[string]Options{
		"ext3": {},
		"ixt3": {MetaChecksum: true, DataChecksum: true, MetaReplica: true, DataParity: true, TxnChecksum: true, FixBugs: true},
	} {
		t.Run(name, func(t *testing.T) {
			reg := stat.NewRegistry()
			defer stat.SetDefault(stat.SetDefault(reg))
			fs, _ := newTestFS(t, opts)
			type key struct {
				home  int64
				frame *byte
			}
			frozen := map[key][]byte{}
			superseded, killed := 0, 0
			var checkpoints int64
			check := func(when string) {
				t.Helper()
				fs.mu.Lock()
				defer fs.mu.Unlock()
				if n := reg.Counter("fs_checkpoints_total", "fs", fs.variantName()).Value(); n != checkpoints {
					// A checkpoint wrote every entry home and freed its
					// frame; what is pending now was all frozen since.
					checkpoints = n
					clear(frozen)
				}
				live := map[key]bool{}
				owner := map[*byte]int64{}
				for _, e := range fs.pending.entries {
					if e.data == nil {
						continue
					}
					k := key{e.home, &e.data[0]}
					if other, ok := owner[k.frame]; ok {
						t.Fatalf("%s: blocks %d and %d share one frame", when, other, e.home)
					}
					owner[k.frame] = e.home
					live[k] = true
					if want, ok := frozen[k]; !ok {
						frozen[k] = bytes.Clone(e.data)
					} else if !bytes.Equal(e.data, want) {
						t.Fatalf("%s: the pending image of block %d changed after its commit", when, e.home)
					}
				}
				for k := range frozen {
					if !live[k] {
						delete(frozen, k)
					}
				}
			}
			countEnds := func() (homes map[int64]*byte, dead int) {
				fs.mu.Lock()
				defer fs.mu.Unlock()
				homes = map[int64]*byte{}
				for _, e := range fs.pending.entries {
					if e.data == nil {
						dead++
					} else {
						homes[e.home] = &e.data[0]
					}
				}
				return homes, dead
			}

			big := make([]byte, 14*BlockSize)
			for i := 0; i < 24; i++ {
				path := fmt.Sprintf("/f%d", i)
				if err := fs.Create(path, 0o644); err != nil {
					t.Fatal(err)
				}
				data := big[:BlockSize]
				if i%2 == 0 {
					data = big // past the direct pointers: a pointer block
				}
				if _, err := fs.Write(path, 0, data); err != nil {
					t.Fatal(err)
				}
				if i > 0 {
					if err := fs.Unlink(fmt.Sprintf("/f%d", i-1)); err != nil {
						t.Fatal(err)
					}
				}
				before, deadBefore := countEnds()
				commitWithoutCheckpoint(t, fs)
				after, dead := countEnds()
				killed += dead - deadBefore
				for home, f := range after {
					if g, ok := before[home]; ok && g != f {
						superseded++
					}
				}
				check(fmt.Sprintf("commit %d", i+1))
			}
			if superseded == 0 || killed == 0 {
				t.Fatalf("%d supersessions, %d revoke kills; want both", superseded, killed)
			}
			fs.mu.Lock()
			err := fs.checkpointLocked()
			fs.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Unmount(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
