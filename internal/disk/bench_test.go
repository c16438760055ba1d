package disk

import "testing"

const benchBlocks = 16384 // 64 MiB, a bench volume

// restoredDisk returns a benchBlocks disk restored from a zero image, the
// state every benchmark repetition's measured phase starts from: fully
// resident, so no read or write below touches a never-written track.
func restoredDisk(b *testing.B) *Disk {
	d, err := New(benchBlocks, DefaultGeometry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Restore(make([]byte, benchBlocks*4096)); err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkReadBlockSequential(b *testing.B) {
	d := restoredDisk(b)
	buf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ReadBlock(int64(i)%benchBlocks, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBlockRandom(b *testing.B) {
	d := restoredDisk(b)
	buf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ReadBlock(int64(i*2053)%benchBlocks, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteBatch64(b *testing.B) {
	d := restoredDisk(b)
	buf := make([]byte, 4096)
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Block: int64(512 + i), Data: buf}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteBatch(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNew prices a fresh volume: its track table, no media.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(benchBlocks, DefaultGeometry(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot photographs a fresh disk with one written track
// (zeros plus that track) and a restored one (one clone of the arena).
func BenchmarkSnapshot(b *testing.B) {
	fresh, err := New(benchBlocks, DefaultGeometry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := fresh.WriteBlock(0, make([]byte, 4096)); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		d    *Disk
	}{{"fresh", fresh}, {"restored", restoredDisk(b)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.d.Snapshot()
			}
		})
	}
}

// BenchmarkImage photographs a restored disk as an Image: its track
// table, no media.
func BenchmarkImage(b *testing.B) {
	d := restoredDisk(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Image()
	}
}

// BenchmarkRestoreImage restores a disk from an Image of a restored one:
// the tracks are shared, so nothing is copied or allocated.
func BenchmarkRestoreImage(b *testing.B) {
	img := restoredDisk(b).Image()
	d, err := New(benchBlocks, DefaultGeometry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.RestoreImage(img); err != nil {
			b.Fatal(err)
		}
	}
}
