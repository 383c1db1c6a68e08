#!/usr/bin/env bash
# flake-census.sh PKG N [test-binary flags] — count how often each test of
# one package fails.
#
# The package's test binary is built once and then run three ways: N
# times in fresh processes; once in one process with -test.count=N (a
# test that leaks state into its own repetition fails only there); and
# per test, each test alone in its own process with -test.run '^Name$'
# -test.count=N (a test that fails only beside its package's other tests
# passes there). The per-test mode runs every top-level test the first two
# modes ran, so it honours a -test.run filter too. Events come
# from `go tool test2json`, the converter behind `go test -json`. For every
# test that failed in any mode the census prints its failures out of
# the runs it got, and each distinct first failure line (the first
# file.go:NN: line the test logged, or its panic) with how often it was
# the first. Failures are reported, never retried. Flags after N go to the
# test binary (e.g. -test.run '^TestChaosSoak$'); GOFLAGS=-race builds a
# race binary.
#
# Exit status: 0 when no test failed in any mode, 1 otherwise.
#
#   bash scripts/flake-census.sh ./internal/rpc 50
#   make flake-census PKG=./internal/rpc N=50
set -euo pipefail

usage='usage: flake-census.sh PKG N [test-binary flags]'
pkg=${1:?$usage}
n=${2:?$usage}
shift 2
go=${GO:-go}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$go" test -c -o "$work/pkg.test" "$pkg"
# Tests run in their package directory, as under go test.
dir=$("$go" list -f '{{.Dir}}' "$pkg")

# run MODE COUNT FLAGS...: one process of the binary, its events appended
# to $work/MODE.json. A failing process is the point of the census, so
# its exit status is ignored.
run() {
	local mode=$1 count=$2
	shift 2
	(cd "$dir" && "$go" tool test2json -p "$pkg" "$work/pkg.test" \
		-test.v=test2json -test.count="$count" "$@") >>"$work/$mode.json" 2>&1 || true
}

for ((i = 0; i < n; i++)); do
	run fresh 1 "$@"
done
run count "$n" "$@"
# Top-level tests only: a subtest runs with its parent.
tests=$(sed -n 's/.*"Action":"run".*"Test":"\([^"/]*\)".*/\1/p' "$work/fresh.json" "$work/count.json" | sort -u)
for t in $tests; do
	run pertest "$n" "$@" -test.run "^$t\$"
done
touch "$work/pertest.json"

# Each event line is one JSON object: {"Action":…,"Package":…,"Test":…,
# "Output":…}. Output is the last field, so everything after its key up to
# the closing "} is the text. Events without a Test are the package's own
# (a binary that dies or times out); they count as the test "(package)".
awk -v n="$n" -v pkg="$pkg" '
function field(line, key,   s) {
	if (!match(line, "\"" key "\":\"[^\"]*\"")) return ""
	s = substr(line, RSTART + length(key) + 4, RLENGTH - length(key) - 5)
	return s
}
function text(line,   s) {
	if (!match(line, /"Output":".*"}$/)) return ""
	s = substr(line, RSTART + 10, RLENGTH - 12)
	gsub(/\\n$/, "", s); gsub(/\\t/, "    ", s); gsub(/\\"/, "\"", s)
	gsub(/\\u003c/, "<", s); gsub(/\\u003e/, ">", s); gsub(/\\u0026/, "\\&", s)
	gsub(/\\\\/, "\\", s)
	sub(/^ +/, "", s)
	return s
}
FNR == 1 { mode = FILENAME; sub(/.*\//, "", mode); sub(/\.json$/, "", mode) }
{
	act = field($0, "Action"); t = field($0, "Test")
	if (t == "") t = "(package)"
	if (act == "run") { first[t] = ""; next }
	if (act == "output") {
		s = text($0)
		if (first[t] == "" && (s ~ /^[^ ]+\.go:[0-9]+: / || s ~ /^panic: / || s ~ /^panic\(/ || s ~ /test timed out/))
			first[t] = s
		next
	}
	if (act != "pass" && act != "fail" && act != "skip") next
	if (t != "(package)") { ran[mode, t]++; seen[t] = 1 }
	if (act != "fail") next
	if (t == "(package)" && first[t] == "") next # the summary line of a failed test binary
	seen[t] = 1
	fails[mode, t]++
	key = mode SUBSEP t SUBSEP (first[t] == "" ? "(no file:line message)" : first[t])
	if (!(key in why)) order[++nwhy] = key
	why[key]++
	first[t] = ""
}
END {
	printf "flake census: %s, N=%d (fresh: %d processes; count: one process, -test.count=%d; pertest: one process per test, -test.count=%d)\n", pkg, n, n, n, n
	tests = 0; bad = 0
	for (t in seen) if (t != "(package)") tests++
	for (t in seen) {
		if (fails["fresh", t] + fails["count", t] + fails["pertest", t] == 0) continue
		bad++
		printf "%s: fresh %d/%d, count %d/%d, pertest %d/%d\n", t, fails["fresh", t], ran["fresh", t],
			fails["count", t], ran["count", t], fails["pertest", t], ran["pertest", t]
		for (i = 1; i <= nwhy; i++) {
			split(order[i], f, SUBSEP)
			if (f[2] == t) printf "    %s %dx: %s\n", f[1], why[order[i]], f[3]
		}
	}
	printf "%d of %d tests failed at least once\n", bad, tests
	exit bad > 0
}' "$work/fresh.json" "$work/count.json" "$work/pertest.json"
