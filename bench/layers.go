package main

import (
	"strings"

	"ironfs/internal/disk"
	"ironfs/internal/sched"
	"ironfs/internal/stat"
)

// layerCounts accumulates the per-layer counts of a repetition's measured
// phases. Every field is a count the stack made on the simulated clock, so
// all of them must repeat exactly from one repetition to the next.
type layerCounts struct {
	disk      disk.Stats
	sched     sched.Stats
	simTime   disk.Duration // simulated time the measured phases covered
	counters  map[string]int64
	queueWait *stat.Histogram
	fsyncWait *stat.Histogram
	txnBlocks *stat.Histogram
}

func newLayerCounts() *layerCounts {
	return &layerCounts{
		counters:  map[string]int64{},
		queueWait: stat.NewHistogram(),
		fsyncWait: stat.NewHistogram(),
		txnBlocks: stat.NewHistogram(),
	}
}

// devMark is the state of one volume's cumulative device counters when a
// measured phase begins.
type devMark struct {
	disk  disk.Stats
	sched sched.Stats
}

func markDevices(d *disk.Disk, s *sched.Scheduler) devMark {
	return devMark{disk: d.Stats(), sched: s.Stats()}
}

// addDevices folds in what one volume's disk and scheduler did since m.
func (a *layerCounts) addDevices(d *disk.Disk, s *sched.Scheduler, m devMark) {
	dd := d.Stats().Sub(m.disk)
	a.disk.Reads += dd.Reads
	a.disk.Writes += dd.Writes
	a.disk.Barriers += dd.Barriers
	a.disk.BytesRead += dd.BytesRead
	a.disk.BytesWritten += dd.BytesWritten
	a.disk.BusyTime += dd.BusyTime
	ss := s.Stats()
	a.sched.Enqueued += ss.Enqueued - m.sched.Enqueued
	a.sched.Absorbed += ss.Absorbed - m.sched.Absorbed
	a.sched.Coalesced += ss.Coalesced - m.sched.Coalesced
	a.sched.Dispatched += ss.Dispatched - m.sched.Dispatched
	a.sched.Batches += ss.Batches - m.sched.Batches
	a.sched.Drains += ss.Drains - m.sched.Drains
	a.sched.ReadFlushes += ss.ReadFlushes - m.sched.ReadFlushes
}

// addRegistry folds the registry's counters and the wait histograms in.
func (a *layerCounts) addRegistry(reg *stat.Registry) {
	for _, c := range reg.Snapshot().Counters {
		a.counters[c.Key] += c.Value
	}
	a.queueWait.Merge(reg.Histogram("sched_queue_wait_ns"))
	for _, name := range fsNames {
		a.fsyncWait.Merge(reg.Histogram("fs_fsync_wait_ns", "fs", name))
		a.txnBlocks.Merge(reg.Histogram("fs_txn_blocks", "fs", name))
	}
}

// sum adds up every counter whose key starts with prefix.
func (a *layerCounts) sum(prefix string) float64 {
	var n int64
	for k, v := range a.counters {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return float64(n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// emit writes the count-derived per-layer metrics into out.
func (a *layerCounts) emit(out map[string]float64, ops int64) {
	out["disk.reads"] = float64(a.disk.Reads)
	out["disk.writes"] = float64(a.disk.Writes)
	out["disk.barriers"] = float64(a.disk.Barriers)
	out["disk.bytes_read"] = float64(a.disk.BytesRead)
	out["disk.bytes_written"] = float64(a.disk.BytesWritten)
	out["disk.ios_per_op"] = ratio(float64(a.disk.Reads+a.disk.Writes), float64(ops))
	out["disk.sim_busy_share"] = ratio(float64(a.disk.BusyTime), float64(a.simTime))

	out["faultinject.fired"] = a.sum("fault_fired_total")
	out["iron.detects"] = a.sum("iron_detect_total")
	out["iron.recovers"] = a.sum("iron_recover_total")
	out["iron.recover_share"] = ratio(out["iron.recovers"], out["faultinject.fired"])

	out["sched.enqueued"] = float64(a.sched.Enqueued)
	out["sched.absorbed"] = float64(a.sched.Absorbed)
	out["sched.coalesced"] = float64(a.sched.Coalesced)
	out["sched.dispatched"] = float64(a.sched.Dispatched)
	out["sched.batches"] = float64(a.sched.Batches)
	out["sched.drains"] = float64(a.sched.Drains)
	out["sched.read_flushes"] = float64(a.sched.ReadFlushes)
	out["sched.merge_share"] = ratio(float64(a.sched.Absorbed+a.sched.Coalesced), float64(a.sched.Enqueued))
	qw := a.queueWait.Quantiles(0.50, 0.99)
	out["sched.sim_queue_wait_p50_us"] = us(qw[0])
	out["sched.sim_queue_wait_p99_us"] = us(qw[1])

	hits, misses := a.sum("bcache_ops_total{op=hit"), a.sum("bcache_ops_total{op=miss")
	out["bcache.hits"] = hits
	out["bcache.misses"] = misses
	out["bcache.evicts"] = a.sum("bcache_ops_total{op=evict")
	out["bcache.hit_share"] = ratio(hits, hits+misses)

	commits := a.sum("fs_commits_total")
	out["fs.commits"] = commits
	out["fs.checkpoints"] = a.sum("fs_checkpoints_total")
	out["fs.replays"] = a.sum("fs_replays_total")
	out["fs.txn_blocks_p50"] = float64(a.txnBlocks.Quantile(0.50))
	out["fs.fsyncs_per_commit"] = ratio(float64(a.fsyncWait.Count()), commits)
	fw := a.fsyncWait.Quantiles(0.50, 0.99)
	out["fs.sim_fsync_wait_p50_us"] = us(fw[0])
	out["fs.sim_fsync_wait_p99_us"] = us(fw[1])
}
