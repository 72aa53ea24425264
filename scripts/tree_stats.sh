#!/usr/bin/env bash
# The tree counters ROADMAP.md and CHANGES.md quote, from one place:
#
#   scripts/tree_stats.sh                  # the seven counters
#   scripts/tree_stats.sh internal/shard   # plus non-test lines per directory
#
# bench/ is its own module with its own budget and is never counted.
set -euo pipefail
cd "$(dirname "$0")/.."

src() { find "${1:-.}" -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*'; }
tests() { find . -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*'; }
# Test files that run on virtual time (internal/simtest) carry this tag; a
# time.Sleep in one is free and exact, so only the others' sleeps count.
bubble='^//go:build goexperiment.synctest'

echo "non-test Go lines outside bench/: $(src | xargs cat | wc -l)"
echo "time.Sleep calls in tests:        $(tests | xargs grep -L "$bubble" | xargs grep -o 'time\.Sleep(' | wc -l)"
echo "fuzz targets:                     $(tests | xargs grep -h '^func Fuzz' | wc -l)"
# Fields of curp.Options: names before the type on each field line of the
# struct ("WitnessSlots, WitnessWays int" is two).
echo "curp.Options fields:              $(awk '
	/^type Options struct/ { in_struct = 1; next }
	in_struct && /^}/      { exit }
	in_struct && $1 !~ /^\/\// && NF >= 2 { k = 1; while ($k ~ /,$/) k++; n += k }
	END { print n }' curp.go)"
echo "bubble tests:                     $(tests | xargs grep -l "$bubble" | xargs grep -h '^func TestBubble' | wc -l)"
# The fidelity ratchet (ROADMAP item 3): where the code cites the paper and
# where it admits a departure, in non-test files and in the bubble tests
# (the executable price list).
marked() { { src; tests | xargs grep -l "$bubble"; } | xargs grep -o "$1" | wc -l; }
echo "PAPER § markers:                  $(marked 'PAPER §')"
echo "DEVIATION: markers:               $(marked 'DEVIATION:')"
for dir in "$@"; do
	echo "non-test Go lines in $dir: $(src "./${dir#./}" | xargs cat | wc -l)"
done
