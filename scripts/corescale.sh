#!/bin/sh
# corescale.sh — wall-clock scaling sweep and determinism gate for the
# live serve path.
#
# Runs the same open-loop spec at GOMAXPROCS 1, 2, and 4 and reports the
# harness throughput (ops per wall-clock second). Two gates ride on the
# sweep:
#
#   1. Identity gate (always on): the virtual-time results — per-step
#      counts, achieved QPS, latency percentiles, and the run report
#      minus its wall-clock submit_stalls — are the core-scaling control
#      and must be byte-identical across all three runs. The
#      canonicalised `.steps` array and `.result | del(.submit_stalls)`
#      are compared with cmp; any divergence exits non-zero with a diff.
#   2. Speedup gate (opt-in): when CORESCALE_MIN is set (CI sets 1.5 on
#      its 4-vCPU runners), ops/sec-wall at GOMAXPROCS=4 must be at
#      least CORESCALE_MIN times the GOMAXPROCS=1 run. Unset locally so
#      single-core containers can still run the identity gate.
#
# Requires jq; all field extraction fails loudly on missing or
# malformed output. Invoked by `make corescale`.
set -eu

command -v jq >/dev/null 2>&1 || {
	echo "corescale: jq is required (apt-get install jq)" >&2
	exit 1
}

spec=${SPEC:-specs/corescale.spec}
clients=${CLIENTS:-8}
shards=${SHARDS:-2}
volume=${VOLUME:-64}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/edcbench" ./cmd/edcbench

# field FILE JQ_EXPR — extract one scalar, failing loudly if the path is
# missing, null, or empty (a sed-style silent miss is exactly the bug
# this script used to have).
field() {
	v=$(jq -er "$2" "$1") || {
		echo "corescale: field $2 missing from $1" >&2
		exit 1
	}
	[ -n "$v" ] || {
		echo "corescale: field $2 empty in $1" >&2
		exit 1
	}
	printf '%s' "$v"
}

echo "spec=$spec clients=$clients shards=$shards volume=${volume}MiB cores=$(nproc)"
printf '%-10s  %-14s  %-10s  %s\n' "GOMAXPROCS" "ops/sec wall" "wall" "pool submitted/inline"
for procs in 1 2 4; do
	GOMAXPROCS=$procs "$tmp/edcbench" -serve -spec "$spec" \
		-clients "$clients" -shards "$shards" -volume "$volume" \
		-json >"$tmp/run-$procs.json"
	opsw=$(field "$tmp/run-$procs.json" '.ops_per_sec_wall')
	wall=$(field "$tmp/run-$procs.json" '.wall_ns')
	# The pool block is omitted when no jobs ran off-loop (GOMAXPROCS=1
	# keeps a single worker, so it is normally present at every width).
	pool=$(jq -r 'if .pool then "\(.pool.submitted)/\(.pool.inline)" else "-" end' "$tmp/run-$procs.json")
	# Virtual-time fingerprint: the canonicalised steps array and run
	# report. Everything the simulation computes — counts, achieved QPS,
	# percentiles, space and codec accounting — lives here; wall-clock
	# fields (submit_stalls among them) deliberately do not.
	jq -S '.steps, (.result | del(.submit_stalls))' "$tmp/run-$procs.json" >"$tmp/virt-$procs.json"
	case $opsw in
	0 | 0.0 | "") echo "corescale: zero ops/sec at GOMAXPROCS=$procs" >&2 && exit 1 ;;
	esac
	printf '%-10s  %-14s  %-10s  %s\n' "$procs" "$opsw" "$((wall / 1000000))ms" "$pool"
done

for procs in 2 4; do
	if ! cmp -s "$tmp/virt-1.json" "$tmp/virt-$procs.json"; then
		echo "corescale: virtual-time results differ between GOMAXPROCS=1 and GOMAXPROCS=$procs" >&2
		diff "$tmp/virt-1.json" "$tmp/virt-$procs.json" >&2 || true
		exit 1
	fi
done
echo "virtual-time results identical across GOMAXPROCS 1/2/4"

ops1=$(field "$tmp/run-1.json" '.ops_per_sec_wall')
ops4=$(field "$tmp/run-4.json" '.ops_per_sec_wall')
speedup=$(awk -v a="$ops4" -v b="$ops1" 'BEGIN { printf "%.2f", a / b }')
echo "speedup 4v1: ${speedup}x"

if [ -n "${CORESCALE_MIN:-}" ]; then
	awk -v s="$speedup" -v m="$CORESCALE_MIN" 'BEGIN { exit !(s >= m) }' || {
		echo "corescale: speedup ${speedup}x below required ${CORESCALE_MIN}x" >&2
		exit 1
	}
	echo "speedup gate passed (>= ${CORESCALE_MIN}x)"
fi
