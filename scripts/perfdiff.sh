#!/usr/bin/env bash
# perfdiff.sh — paired benchmark of this checkout against a parent
# revision, by the repository's own rule (perf/README.md, BENCHMARK.json).
#
#   scripts/perfdiff.sh <base-rev>        # or: make perfdiff BASE=<rev>
#
# Checks <base-rev> out into a temporary git worktree, then for every
# workload runs one parent/change pair per seed through each side's own
# perf/run.sh — ten seeds, the side that goes first alternating from
# pair to pair, plus one held-out seed kept out of the main table — and
# hands the two result files to `perf/run.sh compare`, which pairs them
# by workload and seed, prints each side's quartiles and the verdict per
# metric, and exits 1 on any "worse". The exact virtual-time metrics
# must match digit for digit; compare reports any pair where they do not.
#
# Run length, workloads and seeds are BENCHMARK.json's and the rule's,
# fixed here. About 25 minutes on a 2-4 core host.
set -euo pipefail

base=${1:?usage: scripts/perfdiff.sh <base-rev>}
secs=10
workloads="replay-fin1-write replay-usr0-bg serve-read-verify serve-hot-small"
seeds="1 2 3 4 5 6 7 8 9 10"
held=11

root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
parent="$tmp/parent"
cleanup() {
	git worktree remove --force "$parent" >/dev/null 2>&1 || true
	rm -rf "$tmp"
	git worktree prune
}
trap cleanup EXIT
git worktree add --detach "$parent" "$base" >/dev/null
echo "perfdiff: parent $(git -C "$parent" rev-parse --short HEAD), change $(git rev-parse --short HEAD)$(git diff --quiet || echo ' + uncommitted edits'), ${secs}s runs"

# run SIDE WORKLOAD SEED FILE — one run, its table suppressed; a failed
# run (non-zero exit: a check inside the harness failed) stops the sweep.
run() {
	local dir=$root
	[ "$1" = parent ] && dir=$parent
	(cd "$dir" && bash perf/run.sh --workload "$2" --seed "$3" --seconds "$secs" --trace 0 --out "$4" >/dev/null) || {
		echo "perfdiff: $1 failed on $2 seed $3" >&2
		exit 1
	}
}

pair=0
for w in $workloads; do
	for s in $seeds $held; do
		suffix=
		[ "$s" = "$held" ] && suffix=-heldout
		pair=$((pair + 1))
		if [ $((pair % 2)) -eq 1 ]; then
			order="parent change"
		else
			order="change parent"
		fi
		for side in $order; do
			run "$side" "$w" "$s" "$tmp/$side$suffix.jsonl"
		done
		echo "perfdiff: $w seed $s done ($order)"
	done
done

status=0
echo
echo "== seeds $seeds =="
bash perf/run.sh compare "$tmp/parent.jsonl" "$tmp/change.jsonl" || status=1
echo
echo "== held-out seed $held =="
bash perf/run.sh compare "$tmp/parent-heldout.jsonl" "$tmp/change-heldout.jsonl" || status=1
exit $status
