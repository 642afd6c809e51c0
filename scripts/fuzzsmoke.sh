#!/usr/bin/env bash
# Fuzz smoke. Each fuzz target in the table below gets a short
# coverage-guided run; Go permits one -fuzz target per invocation, so
# the rows run one after another. A target the package no longer
# defines fails its row, as does a failing seed-corpus entry or a new
# crasher.
#
# Usage:  scripts/fuzzsmoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Columns: package, fuzz target.
targets='
./internal/faults/    FuzzScheduleRoundTrip
./internal/faults/    FuzzCorrelationValidate
./internal/cachetier/ FuzzCacheSpecRoundTrip
./internal/cachetier/ FuzzQueueSpecRoundTrip
'

failed=0
while read -r pkg target; do
	[ -n "$pkg" ] || continue
	list="$(go test -list "^${target}\$" "$pkg")"
	if ! grep -qx "$target" <<<"$list"; then
		echo "fuzz smoke: $pkg defines no $target" >&2
		failed=1
		continue
	fi
	if ! go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s "$pkg"; then
		echo "fuzz smoke: $target ($pkg) failed" >&2
		failed=1
	fi
done <<<"$targets"
exit "$failed"
