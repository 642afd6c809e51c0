#!/usr/bin/env bash
# Allocation gates. Allocation budgets are deterministic, so each
# benchmark in the table below must report exactly the expected number
# of result lines, every one at 0 allocs/op under -benchmem. A missing
# benchmark fails its gate, as does one that no longer compiles.
#
# Usage:  scripts/allocgate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Columns: package, -bench regex, -benchtime, expected result lines.
#  - sim kernel: zero-allocation steady-state ticker scheduling.
#  - load: the open-loop arrival re-arm loop, all five families.
#  - telemetry: recording a latency and rotating a window sit on every
#    driver's response path.
#  - tiers: load-balancer dispatch (one line per policy, three
#    policies), the guarded path with no fault active, the path with
#    the crash hazard and brownout controller armed, and a warm cache
#    hit.
#  - rubis: the read interactions through ExecuteInto on an attached
#    view, reading rows through the row cursor, and the write
#    interactions, building rows in each table's tuple buffer (the
#    pages and index nodes the growing tables take amortize below one
#    allocation per op).
#  - sysstat: one collection round over three targets with the full
#    182-metric catalog on, every 2 s of simulated time.
#  - root: attaching a recycled snapshot view, once per replication.
gates='
./internal/sim/       BenchmarkKernelTickerHeavy     200000x 1
./internal/load/      BenchmarkArrivalSchedule$      200000x 1
./internal/telemetry/ BenchmarkLatencyRecord$        200000x 1
./internal/telemetry/ BenchmarkWindowRotate$         200000x 1
./internal/tiers/     BenchmarkLBDispatch            200000x 3
./internal/tiers/     BenchmarkDispatchWithFaults$   200000x 1
./internal/tiers/     BenchmarkDispatchWithCascade$  200000x 1
./internal/tiers/     BenchmarkCacheHitDispatch$     200000x 1
./internal/rubis/     BenchmarkExecuteReads$         200000x 1
./internal/rubis/     BenchmarkExecuteWrites$        200000x 1
./internal/sysstat/   BenchmarkCollectorSample$      200000x 1
.                     BenchmarkSnapshotAttach$       200x    1
'

failed=0
while read -r pkg bench benchtime want; do
	[ -n "$pkg" ] || continue
	out="$(go test -run '^$' -bench "$bench" -benchtime "$benchtime" -benchmem "$pkg")"
	echo "$out"
	# Prints the number of result lines, then how many allocate.
	read -r lines bad < <(echo "$out" | awk '
		/^Benchmark/ {
			for (i = 3; i <= NF; i++)
				if ($i == "allocs/op") { n++; if ($(i-1) != "0") b++ }
		}
		END { print n+0, b+0 }')
	if [ "$lines" != "$want" ] || [ "$bad" != "0" ]; then
		echo "alloc gate $bench ($pkg): want $want result lines at 0 allocs/op, got $lines lines, $bad allocating" >&2
		failed=1
	fi
done <<<"$gates"
exit "$failed"
