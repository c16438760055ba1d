#!/usr/bin/env sh
# Pre-merge gate, in order: formatting, vet, build, race-enabled tests
# (with internal/fingerprint's wall time); the cost benchmarks — resolver,
# fault layer, dispatch, lookups, tree edits, cache and scheduler, journal
# freeze, CommitLoop, checksum — with their allocation counts; the bench/
# module's own vet and tests; ironvet (the multi-pass crash-consistency
# analyzer suite; see docs/ANALYSIS.md) twice, compared, and its drop
# table against docs/ANALYSIS.md; the ironhunt quick gate; the fsck lock
# (mid-repair crash hunt, parallel check and repair) and the BENCH_2.json
# pin; the ironstat double runs; and the BENCH_5.json sweep and
# BENCH_4.json ironload pins.
# ironvet analyzes the whole module: errprop and lockcheck guard error
# propagation and lock/I-O discipline, txcheck pins metadata writes to the
# journal machinery, degradecheck forbids success-before-commit-check
# shapes, lockorder guards the sanctioned lock-acquisition order, and
# tracecheck keeps phase functions observable. The suite is run twice and
# the outputs compared: a nondeterministic analyzer would make the
# self-check gate flaky, so determinism is itself a gate. Run from
# anywhere inside the repository.
#
# `check.sh lock <rev>` is a different job, for a refactor that must not
# move behaviour: it builds the commands at <rev> and in the working tree
# and requires every artefact below, and each command's exit code, to be
# byte-identical between the two. The default run does not include it.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = lock ]; then
	rev=${2:?usage: check.sh lock <rev>}
	lock=$(mktemp -d)
	trap 'rm -rf "$lock"' EXIT
	mkdir "$lock/src" "$lock/rev" "$lock/tree"
	# The tree at <rev>, without registering a worktree in .git.
	git archive "$rev" | tar -x -C "$lock/src"
	for side in rev tree; do
		src=.
		[ "$side" = rev ] && src="$lock/src"
		for c in ironhunt ironcrash ironstat ironload ironfsck ironbench ironfp; do
			(cd "$src" && go build -o "$lock/$side/$c" "./cmd/$c")
		done
		# The artefacts: every seeded harness whose whole output is a
		# function of what the file systems do to the disk. Exit codes are
		# part of the verdict (the hunts and the check exit 1 on findings).
		(
			cd "$lock/$side"
			run() { out=$1; shift; code=0; "$@" > "$out" || code=$?; echo "$code" > "$out.exit"; }
			run hunt-quick-all.json ./ironhunt -quick -fs all -json
			run hunt-jfs.json ./ironhunt -fs jfs -json
			run hunt-fsck.json ./ironhunt -fsck -json
			# The structural crash matrix, cut and graded from the crash
			# device's write log, bare and under a depth-32 scheduler.
			run crash-all.txt ./ironcrash -fs all
			run crash-d32.txt ./ironcrash -fs all -depth 32
			# The scheduler's trace events (enqueue, coalesce, dispatch,
			# drain), every file system's commit detail and the replay
			# and mount phases, byte for byte.
			run crash-d32-mkfiles.txt ./ironcrash -fs all -workload mkfiles -depth 32 -short -trace crash-d32-mkfiles.ndjson
			# The sched_* metrics and all five file systems' fs_* at
			# queue depth 32.
			run stat-multi-all.json ./ironstat -mode multi -fs all -json
			run stat-fp-ext3-read.json ./ironstat -mode fp -fs ext3 -fault read -json
			# The one artefact that sees jfs's recovery I/O: a sticky write
			# fault meets every home block the replay brings home.
			run stat-fp-jfs-write.json ./ironstat -mode fp -fs jfs -fault write -json
			# The one artefact that sees ixt3's write path: where parity,
			# checksum and replica blocks are allocated and what that reads.
			run stat-fp-ixt3-read.json ./ironstat -mode fp -fs ixt3 -fault read -json
			# The one artefact that sees ntfs's commit and checkpoint path:
			# when its restart area, log and home blocks are written, and in
			# which drains.
			run stat-fp-ntfs-write.json ./ironstat -mode fp -fs ntfs -fault write -json
			run load.json ./ironload -json
			run fsck-repair.txt ./ironfsck -parallel 1 -trace fsck-repair.ndjson repair
			run fsck-check.json ./ironfsck -parallel 7 -json check
			run sweep.json ./ironbench -sweep -quick -sweepclients 64 -json
			# Figure 2/3 byte for byte: every file system's detection and
			# recovery matrices, Table 5 and the robustness count.
			run fp-all.txt ./ironfp -fs all -fault all -summary -robust
			# The transient study: one-shot read faults that a retry
			# policy absorbs, counted per file system (about 5 s).
			run fp-transient.txt ./ironfp -fs all -transient
			rm ironhunt ironcrash ironstat ironload ironfsck ironbench ironfp
		)
	done
	moved=0
	for f in "$lock"/rev/*; do
		cmp "$f" "$lock/tree/$(basename "$f")" || moved=1
	done
	if [ "$moved" -ne 0 ]; then
		echo "check: behaviour moved against $rev" >&2
		exit 1
	fi
	echo "check: every lock artefact identical to $rev"
	exit 0
fi

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "check: gofmt wants to rewrite:" >&2
	echo "$fmt" >&2
	exit 1
fi

vetdir=$(mktemp -d)
trap 'rm -rf "$vetdir"' EXIT

go vet ./...
go build ./...
# On two cores the whole gate takes ~8 min, most of it this run:
# internal/fs is its longest package under -race (~4 min), and
# internal/fingerprint takes ~1 min (~4.5 min while every fingerprint
# cell restored a flat copy of the whole volume). Every I/O fingerprint
# issues goes through the fault layer: print its wall time so a change to
# that layer's cost shows in the log.
{ go test -race ./... || touch "$vetdir/test.failed"; } | tee "$vetdir/test.log"
[ ! -e "$vetdir/test.failed" ]
awk '$2=="ironfs/internal/fingerprint" { print "check: internal/fingerprint test wall time " $3 }' "$vetdir/test.log"

# The gray-box resolver's cost benchmarks and a fault-free 32-block run
# through the fault layer (docs/PERF.md, "Fault layer cost"), 100
# iterations each with -benchmem, so the refresh path's 0 allocs/op and
# the cost of the one-root re-walk after an inode-table write show in
# every run.
go test -run '^$' -bench 'Classify|FaultWriteBatch' -benchtime 100x -benchmem ./internal/fs/...
# Likewise the serving tier's dispatch cost at 64, 1024 and 16384
# backlogged tenants (docs/PERF.md, "Serve layer cost").
go test -run '^$' -bench Dispatch -benchtime 1x ./internal/serve
# And a path lookup on each file system plus reiser's tree descent
# (docs/PERF.md, "File-system lookup cost"), reiser's tree edits
# (docs/PERF.md, "ReiserFS tree edits"), an insert into a full cache
# shard and a read-ahead firing into one (docs/PERF.md, "Read path
# allocations"), a queued write with its share of the drains, a 72-block
# journal freeze that copies into recycled frames and slices, one
# committed create / write / fsync / unlink on each file system (bytes per
# committed operation), one demand miss without read-ahead on each
# (bytes per miss: well under one 4 KiB buffer) and one 5-byte overwrite of
# a block cycled out of the cache on each (bytes per read-for-modify: well
# under one 4 KiB buffer), one mount, cold read of 256 blocks and unmount
# on each (frames/op 0: a remount reads into the frames the process's pool
# got back at the last unmount), with their allocation counts
# (0 for the insert, the firing, the write, the freeze and the miss), and
# the disk's media cost
# (docs/PERF.md, "Disk media cost"): reads and a 64-block batch on a
# restored 64 MiB disk (0 allocs), a fresh volume (its track table, a few
# KiB, not 64 MiB), a flat snapshot of a fresh and a restored one (one
# 64 MiB image each), an Image of a restored one (its track table) and a
# restore from an Image (0 allocs: the tracks are shared): 100
# iterations, so a first call's warm-up does not stand in for the steady
# state.
go test -run '^$' -bench 'PathLookup|TreeLookup|TreeInsert|CreateTailFile|CommitLoop|DemandMiss|PartialOverwrite|RemountColdRead' -benchmem -benchtime 100x ./internal/fs/...
go test -run '^$' -bench 'FullShardInsert|ReadAheadSteady|EnqueueDrain|Freeze' -benchmem -benchtime 100x ./internal/bcache ./internal/sched ./internal/journal
go test -run '^$' -bench 'ReadBlock|WriteBatch|New|Snapshot|Image' -benchmem -benchtime 100x ./internal/disk
# And ixt3's block checksum over one 4 KiB block (docs/PERF.md,
# "Redundancy path cost").
go test -run '^$' -bench CksumBlock -benchtime 1x ./internal/fs/ext3

# bench/ is its own module (BENCHMARK.json's benchmark carries its own
# build file), so the root ./... patterns above never see it: a refactor of
# what it imports can break the benchmark's build unnoticed. Vet and test
# it where it lives.
(cd bench && go vet . && go test .)

# ironvet self-check: findings gate the merge, then two more runs must
# produce byte-identical JSON.
go build -o "$vetdir/ironvet" ./cmd/ironvet
"$vetdir/ironvet" ./...
"$vetdir/ironvet" -json ./... > "$vetdir/vet1.json"
"$vetdir/ironvet" -json ./... > "$vetdir/vet2.json"
cmp "$vetdir/vet1.json" "$vetdir/vet2.json" || {
	echo "check: ironvet output is nondeterministic between identical runs" >&2
	exit 1
}
# docs/ANALYSIS.md's "Current deliberate drops" block is ironvet -policies
# output: the fenced block under that heading must match a fresh run.
"$vetdir/ironvet" -policies > "$vetdir/policies.txt"
awk '/^## Current deliberate drops/ { s = 1 } s && /^```/ { if (f) exit; f = 1; next } f' \
	docs/ANALYSIS.md > "$vetdir/policies.doc"
cmp "$vetdir/policies.doc" "$vetdir/policies.txt" || {
	echo "check: docs/ANALYSIS.md's deliberate-drop table is not ironvet -policies output; regenerate it" >&2
	exit 1
}

# ironhunt quick gate (docs/HUNT.md): at the fixed default seed the
# bounded corpus must hunt ixt3 clean, flag ext3-nobarrier through the
# expected-state oracle (exit 1 = bugs found), and two runs must emit
# byte-identical JSON.
go build -o "$vetdir/ironhunt" ./cmd/ironhunt
"$vetdir/ironhunt" -quick -fs ixt3 > /dev/null || {
	echo "check: ironhunt found violations on ixt3" >&2
	exit 1
}
code=0
"$vetdir/ironhunt" -quick -fs ext3-nobarrier -json > "$vetdir/hunt1.json" || code=$?
if [ "$code" -ne 1 ]; then
	echo "check: ironhunt did not flag ext3-nobarrier (exit $code)" >&2
	exit 1
fi
"$vetdir/ironhunt" -quick -fs ext3-nobarrier -json > "$vetdir/hunt2.json" || true
cmp "$vetdir/hunt1.json" "$vetdir/hunt2.json" || {
	echo "check: ironhunt output is nondeterministic between identical runs" >&2
	exit 1
}

# fsck gate (docs/FSCK.md): the check-and-repair skeleton is locked by
# what it does to the disk. Crashing each file system's repair at every
# device write must leave fsck idempotent (exit 0) and two runs must emit
# byte-identical JSON — the crash points are the repair's write sequence;
# the 7-worker check of the damaged images must find the damage (exit 1)
# with each of the five problem lists identical to its serial scan's; and
# the repair must bring all five volumes back to clean (exit 0). The
# committed serial-versus-parallel check timings are BENCH_2.json, and a
# fresh run must reproduce them byte for byte: every parallel stage reads
# its blocks in serially first, so the parallel disk time is the serial
# one. The 2x speedup floor is TestFsckBenchMatchesPin's, in the race run
# above.
"$vetdir/ironhunt" -fsck -json > "$vetdir/fsckhunt1.json"
"$vetdir/ironhunt" -fsck -json > "$vetdir/fsckhunt2.json"
cmp "$vetdir/fsckhunt1.json" "$vetdir/fsckhunt2.json" || {
	echo "check: ironhunt -fsck output is nondeterministic between identical runs" >&2
	exit 1
}
go build -o "$vetdir/ironfsck" ./cmd/ironfsck
code=0
"$vetdir/ironfsck" -parallel 7 check > "$vetdir/fsck-check.txt" || code=$?
if [ "$code" -ne 1 ] || [ "$(grep -c 'identical to serial' "$vetdir/fsck-check.txt")" -ne 5 ]; then
	echo "check: ironfsck -parallel 7 check: exit $code, want 1 with five lists identical to serial" >&2
	cat "$vetdir/fsck-check.txt" >&2
	exit 1
fi
"$vetdir/ironfsck" -parallel 4 repair > /dev/null || {
	echo "check: ironfsck repair left a volume damaged" >&2
	exit 1
}
go build -o "$vetdir/ironbench" ./cmd/ironbench
"$vetdir/ironbench" -fsck -json > "$vetdir/fsck-bench.json"
cmp "$vetdir/fsck-bench.json" BENCH_2.json || {
	echo "check: BENCH_2.json is stale; regenerate it with: go run ./cmd/ironbench -fsck -json > BENCH_2.json" >&2
	exit 1
}

# ironstat gate (docs/OBSERVABILITY.md): the live-metrics snapshot of a
# fault campaign must be byte-identical across two identical runs — every
# counter and exact-quantile histogram derives from the simulated clock
# and the seeded fault RNG, so divergence is nondeterminism leaking into
# the stack. The fp mode also self-checks that the iron-taxonomy counters
# reconcile with the fingerprint matrices before it exits 0.
go build -o "$vetdir/ironstat" ./cmd/ironstat
"$vetdir/ironstat" -mode fp -fs ext3 -fault read -json -out "$vetdir/stat1.json"
"$vetdir/ironstat" -mode fp -fs ext3 -fault read -json -out "$vetdir/stat2.json"
"$vetdir/ironstat" -diff "$vetdir/stat1.json" "$vetdir/stat2.json" > /dev/null || {
	echo "check: ironstat snapshots differ between identical runs" >&2
	exit 1
}

# Multi-client sweep gate (docs/PERF.md): the committed full ladder is
# BENCH_5.json, and a fresh full sweep (about 13 s) must reproduce it byte
# for byte — the virtual-time dispatcher is deterministic, so any drift is
# a behavioural change. The floors and the quantile-order check are
# TestSweepSpeedupGate's, and the in-process double run is
# TestSweepDeterministic's, both in the race run above.
"$vetdir/ironbench" -sweep -json > "$vetdir/sweep-full.json"
cmp "$vetdir/sweep-full.json" BENCH_5.json || {
	echo "check: BENCH_5.json is stale; regenerate it with: go run ./cmd/ironbench -sweep -json > BENCH_5.json" >&2
	exit 1
}

# ironload quick gate (docs/SERVE.md): the serving-tier scenarios —
# weighted fairness beside a 10:1 flood, read-only routing with typed
# refusals, online repair under its I/O-share cap, and the mixed-tenant
# scale sweep — must hold their self-asserted bounds (exit 0) and two
# runs must emit byte-identical JSON. The committed full-size pin is
# BENCH_4.json, and a fresh full-size run (about half a second) must
# reproduce it byte for byte: a PR that moves a served latency
# regenerates the pin or fails here.
go build -o "$vetdir/ironload" ./cmd/ironload
"$vetdir/ironload" -quick -json -out "$vetdir/load1.json"
"$vetdir/ironload" -quick -json -out "$vetdir/load2.json"
cmp "$vetdir/load1.json" "$vetdir/load2.json" || {
	echo "check: ironload output is nondeterministic between identical runs" >&2
	exit 1
}
"$vetdir/ironload" -json -out "$vetdir/load-full.json"
cmp "$vetdir/load-full.json" BENCH_4.json || {
	echo "check: BENCH_4.json is stale; regenerate it with: go run ./cmd/ironload -json -out BENCH_4.json" >&2
	exit 1
}

echo "check: all gates passed"
