#!/usr/bin/env bash
# master-smoke.sh — run cmd/s2c2-master end to end against real workers.
#
# Builds s2c2-master and s2c2-worker once, then runs three sessions on a
# loopback cluster of 4 workers, one of them a 5x straggler:
#
#   -mode float -iters 5            (logistic GD with an AR(1) speed tracker)
#   -mode exact -iters 5            (bit-exact GF(2^31-1) rounds, one job)
#   -mode exact -jobs 2 -iters 5    (two served jobs over the same workers)
#
# Each master listens on 127.0.0.1:0; the script reads the address it
# bound from its first line and dials the workers there, so no port is
# guessed. A session passes when the master exits 0 and its last line is
# the mode's final verdict. Every process the script starts is killed on
# exit, pass or fail.
#
#   bash scripts/master-smoke.sh
#   make master-smoke
set -euo pipefail

go=${GO:-go}
work=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do
		kill "$p" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

"$go" build -o "$work/" ./cmd/s2c2-master ./cmd/s2c2-worker

# session NAME WANT MASTER-FLAGS...: one master and its four workers; WANT
# is an extended regexp the master's last output line must match.
session() {
	local name=$1 want=$2
	shift 2
	local out="$work/$name.out"
	"$work/s2c2-master" -listen 127.0.0.1:0 -workers 4 -k 3 -samples 400 -features 40 "$@" >"$out" 2>&1 &
	local master=$!
	pids+=("$master")
	local addr=""
	for _ in $(seq 100); do
		addr=$(sed -n 's/^master listening on \([^ ,]*\).*/\1/p' "$out")
		[ -n "$addr" ] && break
		kill -0 "$master" 2>/dev/null || break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "master-smoke: $name: master printed no listen address" >&2
		cat "$out" >&2
		return 1
	fi
	local w slow
	for w in 0 1 2 3; do
		slow=1
		[ "$w" = 3 ] && slow=5
		"$work/s2c2-worker" -master "$addr" -slowdown "$slow" -per-row-delay 20us -max-fan 1 >/dev/null 2>&1 &
		pids+=("$!")
	done
	local status=0
	wait "$master" || status=$?
	local last
	last=$(tail -n 1 "$out")
	if [ "$status" -ne 0 ] || ! grep -Eq "$want" <<<"$last"; then
		echo "master-smoke: $name: exit $status, last line: $last" >&2
		cat "$out" >&2
		return 1
	fi
	echo "master-smoke: $name: $last"
}

session float '^final model: loss [0-9.]+ accuracy [0-9.]+$' -mode float -iters 5
session exact '^all 5 exact rounds decoded bit-identically to the local field compute$' -mode exact -iters 5
session exact-jobs2 '^served 2 jobs x 5 rounds in .* all bit-exact$' -mode exact -jobs 2 -iters 5
echo "master-smoke: all three sessions passed"
