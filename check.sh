#!/bin/sh
# Pre-PR gate: formatting, build, vet, tests, the benchmark smoke, race
# detector on the concurrency-sensitive packages, and the project lint
# rules. Run from the repo root before sending a PR; CI runs the same
# sequence.
set -eu

echo '== gofmt -l .'
# Formatting is part of the gate: any file gofmt would rewrite fails it.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need gofmt -w:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

echo '== go test ./...'
go test ./...

echo '== go test -fuzz FuzzRelocate (10 s)'
# A short fuzz budget on bitstream relocation: the batched-CRC relocator
# must match its word-by-word reference on arbitrary streams, refuse the
# same corrupt ones, and invert under the opposite shift. The seed
# corpus lives in internal/bitstream/testdata/fuzz/FuzzRelocate. Streams
# are kilobytes long, so minimising a new interesting input is capped at
# 1 s; uncapped, it would take the whole budget.
go test -run '^$' -fuzz FuzzRelocate -fuzztime 10s -fuzzminimizetime 1s ./internal/bitstream

echo '== go -C bench test ./...'
# The benchmark (bench/run.sh, declared by BENCHMARK.json) is the one
# performance harness. It is a module of its own, so the root go test
# never reaches it. Its test is the scale-100 smoke: every workload's
# output checks, sim_digest repeatability, and metric names against
# BENCHMARK.json.
go -C bench test ./...

echo '== go test -race ./internal/sim/ ./internal/trace/ ./internal/runner/ ./internal/sched/ ./internal/fault/ ./internal/cluster/'
go test -race ./internal/sim/ ./internal/trace/ ./internal/runner/ ./internal/sched/ ./internal/fault/ ./internal/cluster/

echo '== rvcap-lint ./...'
go run ./cmd/rvcap-lint ./...

echo '== cycle equivalence: legacy heap vs calendar queue'
# Every regenerated table, sweep and trace hash must be byte-identical
# between the two event-queue implementations; a single displaced event
# anywhere shows up here.
go test -run TestCycleEquivalenceLegacyVsCalendar -count=1 .

echo '== rvcap-bench parallel determinism + -json smoke'
# The parallel experiment engine must be invisible in the results: the
# fig3 sweep rows (and the BENCH_*.json files built from them) have to
# be byte-identical for every worker count.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/rvcap-bench" ./cmd/rvcap-bench
"$tmp/rvcap-bench" -experiment fig3 -skip-hwicap -parallel 1 -json -outdir "$tmp/p1" > /dev/null
"$tmp/rvcap-bench" -experiment fig3 -skip-hwicap -parallel 4 -json -outdir "$tmp/p4" > /dev/null
cmp "$tmp/p1/BENCH_fig3.json" "$tmp/p4/BENCH_fig3.json"
"$tmp/rvcap-bench" -experiment fig4 -json -outdir "$tmp/smoke" > /dev/null
test -s "$tmp/smoke/BENCH_fig4.json"

echo '== rvcap-bench sched determinism'
# Same contract for the scheduling sweep: every scenario owns its
# kernel, so BENCH_sched.json must not depend on the worker count.
"$tmp/rvcap-bench" -experiment sched -parallel 1 -json -outdir "$tmp/s1" > /dev/null
"$tmp/rvcap-bench" -experiment sched -parallel 4 -json -outdir "$tmp/s4" > /dev/null
cmp "$tmp/s1/BENCH_sched.json" "$tmp/s4/BENCH_sched.json"

echo '== rvcap-bench faults determinism'
# The fault plan is a pure function of (seed, site, sequence number),
# so even the degraded-mode sweep must be byte-identical for every
# worker count.
"$tmp/rvcap-bench" -experiment faults -parallel 1 -json -outdir "$tmp/f1" > /dev/null
"$tmp/rvcap-bench" -experiment faults -parallel 4 -json -outdir "$tmp/f4" > /dev/null
cmp "$tmp/f1/BENCH_faults.json" "$tmp/f4/BENCH_faults.json"

echo '== rvcap-bench fleet determinism'
# The cluster dispatcher routes before any board runs and every board
# owns its kernel, so the fleet sweep must be byte-identical whether
# each cell's boards run serially or fanned across host workers.
"$tmp/rvcap-bench" -experiment fleet -parallel 1 -json -outdir "$tmp/fl1" > /dev/null
"$tmp/rvcap-bench" -experiment fleet -parallel 4 -json -outdir "$tmp/fl4" > /dev/null
cmp "$tmp/fl1/BENCH_fleet.json" "$tmp/fl4/BENCH_fleet.json"

echo '== benchcheck -claims (doc headline numbers vs committed JSON)'
# Every benchclaim-annotated number in the docs must match the committed
# benchmark JSON it cites, so perf prose cannot drift from measurements.
go run ./cmd/benchcheck -claims README.md -claims DESIGN.md

echo '== rvcap-bench amorphous determinism'
# The placement sweep replays seeded request streams against both
# partitioning models in independent cells, so its rows must not depend
# on the worker count. The sweep's headline claims (a mix fixed slots
# reject that amorphous serves with zero failures, and defrag passes
# that lower fragmentation) are asserted by TestAmorphousSweepLadder.
"$tmp/rvcap-bench" -experiment amorphous -parallel 1 -json -outdir "$tmp/a1" > /dev/null
"$tmp/rvcap-bench" -experiment amorphous -parallel 4 -json -outdir "$tmp/a4" > /dev/null
cmp "$tmp/a1/BENCH_amorphous.json" "$tmp/a4/BENCH_amorphous.json"

echo '== examples smoke'
# The examples are documentation that compiles; keep the canonical ones
# actually running end to end. quickstart writes its PGM artifacts into
# the working directory, so it runs from the scratch dir.
go build -o "$tmp/quickstart" ./examples/quickstart
(cd "$tmp" && ./quickstart > quickstart.out)
grep -q 'sobel' "$tmp/quickstart.out"
go run ./examples/multi-rp > "$tmp/multi-rp.out"
grep -q 'bit-exact' "$tmp/multi-rp.out"
go run ./examples/time-shared > "$tmp/time-shared.out"
grep -q 'policy=affinity' "$tmp/time-shared.out"
go run ./examples/fault-tolerant > "$tmp/fault-tolerant.out"
grep -q 'quarantined' "$tmp/fault-tolerant.out"
grep -q 'faults:' "$tmp/fault-tolerant.out"
go run ./examples/fleet > "$tmp/fleet.out"
grep -q 'policy=bitstream-locality' "$tmp/fleet.out"
grep -q 'cross-board-moves' "$tmp/fleet.out"
go run ./examples/amorphous > "$tmp/amorphous.out"
grep -q 'placement: policy=first-fit' "$tmp/amorphous.out"
grep -q 'defrag: 3 passes' "$tmp/amorphous.out"

echo 'check.sh: all gates passed'
