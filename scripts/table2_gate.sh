#!/usr/bin/env bash
# Table II gate at the 1:800 rung: runs `puffer experiments -table2 -scale
# 800 -parallel` and diffs its output against the checked-in table with the
# RT columns masked, so every HOF, VOF and WL cell, the WL averages and the
# pass counts must match exactly. A change that moves a cell regenerates
# results_table2.txt and says why.
#
# usage: scripts/table2_gate.sh [expected-table]   (default results_table2.txt)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
want=${1:-$root/results_table2.txt}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

(cd "$root" && go build -o "$tmp/puffer" ./cmd/puffer)
"$tmp/puffer" experiments -table2 -scale 800 -parallel >"$tmp/got.txt" 2>"$tmp/log.txt" ||
	{ cat "$tmp/log.txt"; exit 1; }

# An RT field is the last number of a " | " group: the one followed by
# " |" or by the end of the line.
mask() { sed -E 's/ +[0-9.]+( \||$)/ RT\1/g' "$1"; }
if ! diff <(mask "$want") <(mask "$tmp/got.txt"); then
	echo "table2_gate: Table II at 1:800 differs from $want (RT masked)" >&2
	exit 1
fi
echo "table2_gate: every HOF, VOF and WL cell matches $want"
