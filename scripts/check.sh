#!/usr/bin/env sh
# Pre-merge gate: formatting, vet, build, race-enabled tests, the resolver,
# dispatch, lookup and checksum cost benchmarks, the bench/ module's own vet
# and tests, the fsck lock, the committed ironload pin, and ironvet (the
# multi-pass crash-consistency analyzer suite; see docs/ANALYSIS.md).
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
		for c in ironhunt ironstat ironload ironfsck ironbench; do
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
			run stat-fp-ext3-read.json ./ironstat -mode fp -fs ext3 -fault read -json
			# The one artefact that sees jfs's recovery I/O: a sticky write
			# fault meets every home block the replay brings home.
			run stat-fp-jfs-write.json ./ironstat -mode fp -fs jfs -fault write -json
			run load.json ./ironload -json
			run fsck-repair.txt ./ironfsck -parallel 1 -trace fsck-repair.ndjson repair
			run fsck-check.json ./ironfsck -parallel 7 -json check
			run sweep.json ./ironbench -sweep -quick -sweepclients 64 -json
			rm ironhunt ironstat ironload ironfsck ironbench
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
# internal/fingerprint is most of this run and every I/O it issues goes
# through the fault layer: print its wall time so a change to that layer's
# cost shows in the log.
{ go test -race ./... || touch "$vetdir/test.failed"; } | tee "$vetdir/test.log"
[ ! -e "$vetdir/test.failed" ]
awk '$2=="ironfs/internal/fingerprint" { print "check: internal/fingerprint test wall time " $3 }' "$vetdir/test.log"

# The gray-box resolver's cost benchmarks (docs/PERF.md, "Fault layer
# cost"), one iteration each so they cannot rot.
go test -run '^$' -bench 'Classify' -benchtime 1x ./internal/fs/...
# Likewise the serving tier's dispatch cost at 64, 1024 and 16384
# backlogged tenants (docs/PERF.md, "Serve layer cost").
go test -run '^$' -bench Dispatch -benchtime 1x ./internal/serve
# And a path lookup on each file system plus reiser's tree descent
# (docs/PERF.md, "File-system lookup cost").
go test -run '^$' -bench 'PathLookup|TreeLookup' -benchtime 1x ./internal/fs/...
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
# BENCH_2.json pin is held by TestFsckBenchMatchesPin in the race run
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

# High-client sweep gate (docs/PERF.md): the deterministic virtual-time
# sweep at 64 clients (quick mode) must serialize byte-identically across
# two runs — the property that lets BENCH_5.json pin exact p50/p99/p999.
# The reiserfs createheavy >= 2.5x floor and the quantile-order check are
# TestSweepSpeedupGate's, in the race run above.
go build -o "$vetdir/ironbench" ./cmd/ironbench
"$vetdir/ironbench" -sweep -quick -sweepclients 64 -json > "$vetdir/sweep1.json"
"$vetdir/ironbench" -sweep -quick -sweepclients 64 -json > "$vetdir/sweep2.json"
cmp "$vetdir/sweep1.json" "$vetdir/sweep2.json" || {
	echo "check: sweep output is nondeterministic between identical runs" >&2
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
