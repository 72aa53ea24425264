#!/usr/bin/env bash
# Fuzz smoke: run every fuzz target in the module for a short while.
#
#   scripts/fuzz_smoke.sh            # 10 s per target
#   FUZZTIME=30s scripts/fuzz_smoke.sh
#
# Targets are discovered with `go test -list`, so a new Fuzz* function joins
# the smoke run by existing. MIN_TARGETS is the number of targets the tree
# had when this script was last touched: finding fewer means the discovery
# broke (or a target was deleted), which must fail loudly rather than pass
# on an empty list. Raise it when you add a target.
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TARGETS=17
FUZZTIME="${FUZZTIME:-10s}"

# `go test -list` prints a package's matching names, then "ok <package> ...".
targets=()
names=()
while read -r first second _; do
	case "$first" in
	Fuzz*) names+=("$first") ;;
	ok)
		for n in ${names[@]+"${names[@]}"}; do targets+=("$second $n"); done
		names=()
		;;
	esac
done < <(go test -list '^Fuzz' ./...)

if ((${#targets[@]} < MIN_TARGETS)); then
	echo "FAIL fuzz smoke: found ${#targets[@]} fuzz targets, expected at least $MIN_TARGETS" >&2
	exit 1
fi

failed=0
summary=()
for t in "${targets[@]}"; do
	read -r pkg name <<<"$t"
	log="$(mktemp)"
	if go test -run '^$' -fuzz "^${name}\$" -fuzztime="$FUZZTIME" "$pkg" >"$log" 2>&1; then
		# The last progress line carries the totals: "fuzz: elapsed: 10s, execs: N (...), new interesting: M (total: T)".
		summary+=("ok    $pkg $name  $(grep -E '^fuzz: elapsed' "$log" | tail -1 | sed -E 's/^fuzz: elapsed: [^,]*, //')")
	else
		failed=1
		summary+=("FAIL  $pkg $name")
		cat "$log" >&2
	fi
	rm -f "$log"
done

printf '%s\n' "${summary[@]}"
if ((failed)); then
	echo "FAIL fuzz smoke" >&2
	exit 1
fi
echo "PASS fuzz smoke: ${#targets[@]} targets, $FUZZTIME each"
