#!/usr/bin/env bash
# One short couchbench run that fails unless the run checked out.
#
#   scripts/benchsmoke.sh <workload>
#
# Runs bench/run.sh --workload <workload> --seed 7 --seconds 4 --trace 0.
# couchbench exits 0 on a run whose checks failed and says so in its
# last line, {"correct":...,"failed":...}; this reads that line and
# fails on a failed operation or a wrong read-back.
set -euo pipefail
if [ $# -ne 1 ]; then
	sed -n '2,9p' "$0" >&2
	exit 2
fi
cd "$(dirname "${BASH_SOURCE[0]}")/.."
line=$(bash bench/run.sh --workload "$1" --seed 7 --seconds 4 --trace 0 | tee /dev/stderr | tail -n 1)
python3 - "$line" <<'PY'
import json, sys
r = json.loads(sys.argv[1])
if not r["correct"] or r["failed"]:
    sys.exit("couchbench: %d failed operations, correct=%s" % (r["failed"], r["correct"]))
PY
