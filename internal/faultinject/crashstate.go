package faultinject

import (
	"fmt"
	"math/rand"
	"sort"

	"ironfs/internal/disk"
)

// Crash-state enumeration over a CrashDevice's write log.

// EnumPolicy bounds and seeds the crash-state enumeration, following the
// bounded black-box approach of B3 (Mohan et al., OSDI '18): exhaust all
// subsets of small reordering windows, sample larger ones deterministically.
type EnumPolicy struct {
	// Window is the cache capacity in blocks: at most this many trailing
	// writes of the open epoch are still volatile at a crash; older
	// same-epoch writes have been evicted to media. Max 63 (subset masks
	// are uint64). Default 16.
	Window int
	// MaxExhaustive is the largest pending-set size for which all 2^n
	// subsets are enumerated. Above it, Samples seeded random subsets are
	// drawn instead (plus the canonical none/all/drop-one states, which
	// are always included). Default 4.
	MaxExhaustive int
	// Samples is the number of sampled subsets above MaxExhaustive.
	// Default 8.
	Samples int
	// Seed drives the subset sampler. Default DefaultSeed. The same seed
	// always yields the same crash states.
	Seed int64
	// Torn adds, for every non-empty subset, a twin state in which the
	// newest surviving write is torn: only its first TornBytes land.
	Torn bool
	// TornBytes is the size of the partial write in a torn state
	// (default 512 — one legacy sector of a 4 KiB block).
	TornBytes int
}

func (p EnumPolicy) withDefaults() EnumPolicy {
	if p.Window == 0 {
		p.Window = 16
	}
	if p.Window > 63 {
		p.Window = 63
	}
	if p.MaxExhaustive == 0 {
		p.MaxExhaustive = 4
	}
	if p.Samples == 0 {
		p.Samples = 8
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	if p.TornBytes == 0 {
		p.TornBytes = 512
	}
	return p
}

// CrashState names one post-crash media image: the crash strikes just
// after the write log[Point] is issued; of the pending window ending at
// Point, exactly the writes selected by Mask survive. If Torn is set, the
// newest surviving write lands partially (first TornBytes bytes only).
type CrashState struct {
	// Point indexes the write log entry after which the crash strikes.
	Point int
	// Mask selects surviving writes: bit i covers the i-th entry of the
	// pending window (oldest first).
	Mask uint64
	// Torn tears the newest surviving write.
	Torn bool
	// Sealed, when SealedKnown is set, is the number of sealed epochs at
	// the crash instant: every logged write with Epoch < Sealed is durable
	// regardless of Mask, and the pending window covers only trailing
	// writes with Epoch >= Sealed. When SealedKnown is false the open
	// epoch is inferred as log[Point].Epoch (the legacy mid-epoch model).
	Sealed      int
	SealedKnown bool
}

// String renders a state compactly for logs: "p42 m=1011 torn" (with an
// " s=N" sealed-epoch suffix for sealed-aware states).
func (s CrashState) String() string {
	seal := ""
	if s.SealedKnown {
		seal = fmt.Sprintf(" s=%d", s.Sealed)
	}
	t := ""
	if s.Torn {
		t = " torn"
	}
	return fmt.Sprintf("p%d m=%b%s%s", s.Point, s.Mask, seal, t)
}

// pendingStartSealed returns the log index of the first volatile write
// for a crash at point: writes with Epoch < sealed are durable, so the
// pending window is the trailing run of writes at or after epoch `sealed`,
// capped at `window` (earlier ones were evicted to media as the cache
// filled). It may return point+1 (empty window) when log[point] itself is
// already sealed — the post-fsync-return crash where nothing is volatile.
func pendingStartSealed(log []WriteRecord, point, window, sealed int) int {
	first := point + 1
	for first > 0 && log[first-1].Epoch >= sealed {
		first--
	}
	if point+1-first > window {
		first = point + 1 - window
	}
	return first
}

// EpochSeals returns, for each epoch present in the log, the index of its
// final write — the persistence points where a barrier (or end-of-workload)
// seals an epoch. Crashing at seal index i with the legacy enumeration
// explores every ordering of that epoch's in-cache writes; prefix masks
// double as crashes earlier inside the epoch.
func EpochSeals(log []WriteRecord) []int {
	var seals []int
	for i := range log {
		if i+1 == len(log) || log[i+1].Epoch != log[i].Epoch {
			seals = append(seals, i)
		}
	}
	return seals
}

// EnumerateCrashStates returns the crash states to test for a crash at
// log[point], deterministically for a fixed policy. The canonical states —
// nothing survives (prefix cut), everything survives, and each drop-one —
// are always present; small windows are exhausted, large ones sampled.
func EnumerateCrashStates(log []WriteRecord, point int, p EnumPolicy) []CrashState {
	if point < 0 || point >= len(log) {
		return nil
	}
	return enumerateStates(log, point, log[point].Epoch, false, p)
}

// EnumerateCrashStatesSealed is EnumerateCrashStates with the sealed-epoch
// count at the crash instant made explicit, for crash points where the
// caller knows how many barriers had completed — e.g. "just after fsync
// returned". With every write at or before point already sealed the pending
// window is empty and the single returned state is the fully-durable image;
// a non-empty window here means writes the file system claimed durable were
// still volatile, and its subsets are enumerated exactly like open-epoch
// tails.
func EnumerateCrashStatesSealed(log []WriteRecord, point, sealed int, p EnumPolicy) []CrashState {
	if point < 0 || point >= len(log) {
		return nil
	}
	return enumerateStates(log, point, sealed, true, p)
}

// PrefixCut is the crash state in which exactly the first k logged writes
// reached the media, in issue order and none torn: the image a CrashDevice
// with limit k leaves on a rerun of the same workload. PrefixCut(log, 0) is
// the base image itself.
func PrefixCut(log []WriteRecord, k int) CrashState {
	if k <= 0 {
		return CrashState{Point: -1}
	}
	return CrashState{Point: k - 1, Sealed: log[k-1].Epoch + 1, SealedKnown: true}
}

func enumerateStates(log []WriteRecord, point, sealed int, stamp bool, p EnumPolicy) []CrashState {
	p = p.withDefaults()
	first := pendingStartSealed(log, point, p.Window, sealed)
	n := point + 1 - first

	full := uint64(1)<<n - 1
	seen := map[uint64]bool{}
	var masks []uint64
	add := func(m uint64) {
		if !seen[m] {
			seen[m] = true
			masks = append(masks, m)
		}
	}

	if n <= p.MaxExhaustive {
		for m := uint64(0); m <= full; m++ {
			add(m)
		}
	} else {
		add(0)
		add(full)
		for i := 0; i < n; i++ {
			add(full &^ (uint64(1) << i))
		}
		// Seeded sampling, derived from both the global seed and the
		// crash point so distinct points draw distinct subsets.
		rng := rand.New(rand.NewSource(p.Seed ^ int64(point)*0x5851f42d4c957f2d))
		for i := 0; i < p.Samples; i++ {
			add(rng.Uint64() & full)
		}
	}
	sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })

	out := make([]CrashState, 0, 2*len(masks))
	for _, m := range masks {
		st := CrashState{Point: point, Mask: m}
		if stamp {
			st.Sealed, st.SealedKnown = sealed, true
		}
		out = append(out, st)
		if p.Torn && m != 0 {
			torn := st
			torn.Torn = true
			out = append(out, torn)
		}
	}
	return out
}

// ApplyCrashState writes crash state s onto d, a disk restored to the
// media image from before the workload: all durable writes, plus the
// surviving subset of the pending window, in issue order so that later
// writes to the same block win. A torn write overlays its first TornBytes
// on the block's old contents. The writes go through d's raw port, so
// they cost no simulated time. A write the disk refuses (a log from a
// larger volume) is returned, wrapping the disk's error.
func ApplyCrashState(d *disk.Disk, log []WriteRecord, s CrashState, p EnumPolicy) error {
	p = p.withDefaults()
	if s.Point < 0 || s.Point >= len(log) {
		return nil
	}
	sealed := log[s.Point].Epoch
	if s.SealedKnown {
		sealed = s.Sealed
	}
	first := pendingStartSealed(log, s.Point, p.Window, sealed)
	// Newest surviving pending write, for tearing.
	newest := -1
	for i := first; i <= s.Point; i++ {
		if s.Mask&(uint64(1)<<(i-first)) != 0 {
			newest = i
		}
	}
	// The durable prefix (sealed epochs plus the evicted head of the open
	// one), then the surviving pending writes.
	for i := 0; i <= s.Point; i++ {
		if i >= first && s.Mask&(uint64(1)<<(i-first)) == 0 {
			continue
		}
		r := log[i]
		data, err := r.Data, error(nil)
		if s.Torn && i == newest && p.TornBytes < len(data) {
			data = make([]byte, len(r.Data))
			err = d.ReadRaw(r.Block, data)
			copy(data, r.Data[:p.TornBytes])
		}
		if err == nil {
			err = d.WriteRaw(r.Block, data)
		}
		if err != nil {
			return fmt.Errorf("faultinject: crash state %s: write %d to block %d: %w", s, r.Seq, r.Block, err)
		}
	}
	return nil
}
