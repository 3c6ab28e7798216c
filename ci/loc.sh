#!/usr/bin/env bash
# Tracked Rust line counts, the number behind ROADMAP aim 2 ("net line
# count is a tracked metric"): per crate, lines under src/, the non-test
# share of those (everything outside a file's test module, as
# `ci/nontest.awk` reads it — the only lines that count as a reduction;
# `ci/arch_lint.sh` scans exactly these lines), and lines in the whole
# crate (src/ + tests/); then the umbrella package. The `benchmark`
# package — the repo's one measurement system — is printed below the
# total and outside it, so its size is tracked without moving the
# workspace series. From `git ls-files`, so build outputs and untracked
# scratch never count.
set -eu
cd "$(dirname "$0")/.."
files() { git ls-files -z -- "$@" | grep -z '\.rs$'; }
count() { files "$@" | xargs -0 -r cat | wc -l; }
nontest() { files "$@" | xargs -0 -r awk -f ci/nontest.awk | wc -l; }
total=0
row() { # name, src dir, every path of the package
    all=$(count "${@:3}")
    printf '%-12s %8d %8d %8d\n' "$1" "$(count "$2")" "$(nontest "$2")" "$all"
    total=$((total + all))
}
printf '%-12s %8s %8s %8s\n' crate src non-test all
for dir in crates/*/; do row "$(basename "$dir")" "${dir}src" "$dir"; done
row umbrella src src tests examples
printf '%-12s %8s %8s %8d\n' total "" "" "$total"
row benchmark benchmark/src benchmark
