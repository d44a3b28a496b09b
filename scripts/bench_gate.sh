#!/usr/bin/env bash
# The performance gate. Runs the repository benchmark's two fixed-work
# search workloads (bench/, BENCHMARK.json) on a parent revision and on
# this checkout, five alternating pairs on the same machine, and judges
# the change by BENCHMARK.json's bounds on the medians:
#
#   ./scripts/bench_gate.sh origin/main     # exit status 1 on a regression
#
# The parent is checked out in a temporary git worktree. Both result files
# (host record, one row per run) are left in .bench_build/gate/ as
# parent.json and change.json. Plan keys and allocations per evaluation
# are pinned by internal/opt/fixedwork_test.go, not here.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <parent-rev>" >&2
    exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
gate="$root/.bench_build/gate"
rm -rf "$gate"
mkdir -p "$gate"
git -C "$root" worktree add --detach "$gate/parent" "$1" >/dev/null
trap 'git -C "$root" worktree remove --force "$gate/parent"' EXIT

# side NAME CHECKOUT: one run of each workload, appended to NAME.json.
side() {
    for w in search-bert search-nasnet; do
        echo "== pair $pair: $1 $w"
        bash "$2/bench/run.sh" --workload "$w" --seconds 10 --trace 0 --out "$gate/$1.json"
    done
}
for pair in 1 2 3 4 5; do
    if [ $((pair % 2)) -eq 1 ]; then
        side parent "$gate/parent"
        side change "$root"
    else
        side change "$root"
        side parent "$gate/parent"
    fi
done
bash "$root/bench/run.sh" compare "$gate/parent.json" "$gate/change.json"
