#!/usr/bin/env bash
# Alternating pairs of couchbench workloads: <base-ref> against this
# checkout as it stands (tracked and staged changes included; git add a
# new file first).
#
#   scripts/benchpairs.sh <base-ref> "<workload> [<workload> ...]" [pairs=10]    (SEED=42)
#
# The workloads of the quoted list run one after the other, each with
# its own table, so a no-gain change's control evidence (say
# "lib.kv-a wire.kv-a wire.kv-durable") comes from one command.
# Each side runs its own unchanged bench/run.sh from a git archive
# unpacked under .bench_build/pairs/: the base at base/<sha> (kept), the
# change at head/<sha> (git stash create, or HEAD on a clean tree;
# unpacked afresh each time). Both build alike, from paths of one
# length, into their own .bench_build/. Each goes first in half the
# pairs, in an order drawn from SEED, so no fixed pattern of places
# (b c c b ...) follows one side.
# For each of the four end-to-end metrics it prints both sides' median
# and quartiles and how many pairs the change won: a gain needs >= 9
# wins in 10 and medians further apart than the base's own
# interquartile range; a control must stay within the bound
# BENCHMARK.json gives it.
# <base-ref> HEAD on a clean tree is the A/A mode: both sides run the
# same code, so the table shows the workload's own noise, and a win
# count far from half is a harness fault, not a gain.
set -euo pipefail
if [ $# -lt 2 ]; then
	sed -n '2,25p' "$0" >&2
	exit 2
fi
base_ref=$1 workloads=$2 pairs=${3:-10} seed=${SEED:-42}
cd "$(dirname "${BASH_SOURCE[0]}")/.."
sha=$(git rev-parse --verify "$base_ref^{commit}")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
change_sha=$(git stash create)
change_sha=${change_sha:-$(git rev-parse HEAD)}
work="$PWD/.bench_build/pairs"
base="$work/base/$sha" change="$work/head/$change_sha"
if [ ! -d "$base" ]; then
	mkdir -p "$base"
	git archive "$sha" | tar -x -C "$base"
fi
rm -rf "$work/head"
mkdir -p "$change"
git archive "$change_sha" | tar -x -C "$change"

read -ra first <<<"$(python3 -c 'import random, sys
n = int(sys.argv[2]); order = [i % 2 for i in range(n)]
random.Random(int(sys.argv[1])).shuffle(order); print(*order)' "$seed" "$pairs")"

run() { # side dir
	local line
	line=$(bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
	echo "{\"side\":\"$1\",\"pair\":$i,\"result\":$line}" >>"$out"
	echo "pair $i $1: $line" >&2
}
for workload in $workloads; do
	out="$work/$workload-seed$seed.jsonl"
	: >"$out"
	for i in $(seq 1 "$pairs"); do
		if [ "${first[i - 1]}" -eq 0 ]; then
			run base "$base"
			run change "$change"
		else
			run change "$change"
			run base "$base"
		fi
	done
	python3 - "$out" "$sha" "$workload" "$seed" "$change_sha" <<'EOF'
import json, statistics, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
side = lambda s, m: [r["result"]["metrics"][m]["value"] for r in rows if r["side"] == s]
def quart(v):
    q = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else [v[0]] * 3
    return "%12.4f [%12.4f, %12.4f]" % (q[1], q[0], q[2])
print("%s seed %s: base %.12s against change %.12s, %d pairs" % (sys.argv[3], sys.argv[4], sys.argv[2], sys.argv[5], len(rows) // 2))
print("%-14s %-42s %-42s %s" % ("metric", "base median [q1, q3]", "change median [q1, q3]", "change wins"))
for m, dirn in better.items():
    b, c = side("base", m), side("change", m)
    wins = sum((y > x) if dirn == "higher" else (y < x) for x, y in zip(b, c))
    ties = sum(x == y for x, y in zip(b, c))
    print("%-14s %-42s %-42s %d/%d%s" % (m, quart(b), quart(c), wins, len(b), " (%d ties)" % ties if ties else ""))
for s in ("base", "change"):
    failed = sum(r["result"]["failed"] for r in rows if r["side"] == s)
    bad = sum(not r["result"]["correct"] for r in rows if r["side"] == s)
    print("%s: %d failed operations, %d runs that did not check out" % (s, failed, bad))
EOF
done
