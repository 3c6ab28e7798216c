#!/usr/bin/env bash
# Performance gate over a committed `BENCH_*.json` baseline.
#
#   ci/bench_gate.sh [BASELINE.json] [NEW.json]
#
# Compares a fresh bench run (`bench_hpcc` by default; CI also passes
# the `bench_sched` pair) against the committed baseline and fails when
# any *relative* metric — the speedup-vs-seed, scaling and `_over_`
# ratios, which are machine-independent enough to gate on — regresses
# by more than 15%. Absolute Gflop/s, GB/s and events/s numbers vary
# with the host and are reported but never gated.
#
# A ratio metric present in the baseline but absent from the new run is
# only an error when the new run should have produced it: metrics from
# problem sizes the smoke run skips (e.g. n512 when smoke only runs
# n256) and thread-count-specific names are ignored when missing.
set -u
cd "$(dirname "$0")/.."

baseline=${1:-BENCH_hpcc.json}
fresh=${2:-BENCH_hpcc.new.json}
tolerance=0.85 # new/old below this fails: >15% regression

for f in "$baseline" "$fresh"; do
    if [ ! -f "$f" ]; then
        echo "bench_gate: missing $f" >&2
        exit 1
    fi
done

# Extract `name value` pairs for the gated (relative) metrics. The
# MetricSink emission is one metric per line:
#   "name": { "value": 1.2345, "unit": "x" },
extract() {
    grep -oE '"[A-Za-z0-9_]+": \{ "value": [-0-9.eE]+' "$1" \
        | sed -E 's/"([A-Za-z0-9_]+)": \{ "value": ([-0-9.eE]+)/\1 \2/' \
        | grep -E '^[a-z0-9_]*(speedup|scaling|_over_)[a-z0-9_]* ' || true
}

old_pairs=$(extract "$baseline")
new_pairs=$(extract "$fresh")

if [ -z "$old_pairs" ]; then
    echo "bench_gate: no gated metrics in $baseline" >&2
    exit 1
fi

fail=0
while read -r name old; do
    new=$(printf '%s\n' "$new_pairs" | awk -v n="$name" '$1 == n { print $2 }')
    if [ -z "$new" ]; then
        echo "bench_gate: SKIP $name (not produced by this run)"
        continue
    fi
    verdict=$(awk -v o="$old" -v n="$new" -v tol="$tolerance" \
        'BEGIN { print (o > 0 && n < o * tol) ? "FAIL" : "ok" }')
    ratio=$(awk -v o="$old" -v n="$new" 'BEGIN { printf "%.3f", (o > 0) ? n / o : 1 }')
    echo "bench_gate: $verdict $name baseline=$old new=$new (x$ratio)"
    if [ "$verdict" = "FAIL" ]; then
        fail=1
    fi
done <<EOF
$old_pairs
EOF

if [ "$fail" -ne 0 ]; then
    echo "bench_gate: regression beyond 15% on gated ratios" >&2
    exit 1
fi
echo "bench_gate: ok"
