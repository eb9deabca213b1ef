#!/usr/bin/env bash
# tablediff.sh — every experiment table of this checkout against a base
# revision, byte for byte.
#
#   scripts/tablediff.sh <base-rev>            # or: make tablediff BASE=<rev>
#   FULL=1 scripts/tablediff.sh <base-rev>     # also at the default size
#
# Builds cmd/edcbench at <base-rev> (extracted with git archive into a
# temporary directory, so an interrupted run leaves no worktree behind)
# and at the work tree, runs every experiment ID on its own with
# -format csv at -requests 1500 and, with FULL=1, at the default size
# too, blanks fig2's measured C/D MB/s columns (wall-clock codec speed,
# different on every run) and diffs the two sides. Exits 1 on any
# difference. A few minutes at 1500 requests; FULL=1 adds tens of
# minutes. TMPDIR decides where the builds and outputs live.
set -euo pipefail

base=${1:?usage: scripts/tablediff.sh <base-rev>}
sizes=1500
[ "${FULL:-0}" = 1 ] && sizes="1500 0"

root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/edcbench-base" ./cmd/edcbench)
go build -o "$tmp/edcbench-change" ./cmd/edcbench
echo "tablediff: base $(git rev-parse --short "$base"), change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted edits'), sizes: $sizes"

# mask blanks the measured MB/s columns (4 and 5) of fig2's data rows;
# its header row and every other table pass through unchanged.
mask() {
	awk -F, -v OFS=, '
		/^# fig2:/ { fig2 = 1; row = 0; print; next }
		/^$/ { fig2 = 0 }
		fig2 && !/^#/ && row++ > 0 { $4 = ""; $5 = "" }
		{ print }'
}

ids=$("$tmp/edcbench-change" -list | awk '{print $1}')
status=0
if [ "$ids" != "$("$tmp/edcbench-base" -list | awk '{print $1}')" ]; then
	echo "tablediff: the experiment lists differ"
	status=1
fi
for n in $sizes; do
	label=requests=$n
	[ "$n" = 0 ] && label="the default size"
	for id in $ids; do
		for side in base change; do
			"$tmp/edcbench-$side" -experiment "$id" -requests "$n" -format csv | mask >"$tmp/$side.csv"
		done
		if diff -u "$tmp/base.csv" "$tmp/change.csv"; then
			echo "tablediff: $id at $label: same"
		else
			echo "tablediff: $id at $label: DIFFERS"
			status=1
		fi
	done
done
exit $status
