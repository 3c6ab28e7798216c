#!/usr/bin/env bash
# The public surface of the workspace crates, measured against its readers.
# Run from anywhere:
#
#   ci/pub_surface.sh             # this repository
#   ci/pub_surface.sh --root DIR  # an arbitrary tree (arch_lint fixtures)
#
# A *public definition* is a non-test line (`ci/nontest.awk`) under
# `crates/*/src` that defines a `pub` fn, struct, enum, union, trait, type,
# const, static or mod; the vendored shim `crates/parking_lot` is not ours
# and is left out. Its *readers* are every
# Rust file outside its crate's `src/`: the other crates, each crate's own
# `tests/` (an integration test is a crate of its own), the umbrella's
# `src/`, `tests/` and `examples/`, and `benchmark/`. A name spelled
# anywhere in a reader, even in a comment, keeps every definition of that
# name public: the scan errs toward keeping too much public, never too
# little.
#
# A type no reader spells still stays public when a kept public signature
# hands it to another crate: a kept fn's parameters and return type, a
# kept struct's `pub` fields, a kept enum's variants, a kept trait's items,
# a kept alias, const or static. That is worked out to a fixed point, from
# the code alone.
#
# Prints three sections:
#   unused:          definitions no reader spells (narrow them to pub(crate));
#   benchmark-only:  definitions only `benchmark/` spells. They stay public
#                    while the frozen benchmark package calls them;
#   public definitions: N
set -eu

root=""
while [ $# -gt 0 ]; do
    case "$1" in
        --root)
            root=$2
            shift 2
            ;;
        *)
            echo "usage: pub_surface.sh [--root DIR]" >&2
            exit 2
            ;;
    esac
done
nontest=$(cd "$(dirname "$0")" && pwd)/nontest.awk
if [ -n "$root" ]; then
    cd "$root"
else
    cd "$(dirname "$0")/.."
fi

rust_files() {
    find "$@" -name target -prune -o -name '*.rs' -print0 2>/dev/null | sort -z
}

# Every identifier each reader spells, as `owner word`. A file under
# crates/X/src belongs to X; any other file is a reader named by its path
# up to the first directory below the crate or package.
readers=$(
    dirs=$(for d in crates src tests examples benchmark; do if [ -d "$d" ]; then echo "$d"; fi; done)
    # shellcheck disable=SC2086
    rust_files $dirs | xargs -0 -r awk '
        FNR == 1 {
            n = split(FILENAME, p, "/")
            if (p[1] == "crates" && p[3] == "src") owner = p[2]
            else if (p[1] == "crates") owner = p[1] "/" p[2] "/" p[3]
            else owner = p[1]
        }
        {
            line = $0
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                w = substr(line, RSTART, RLENGTH)
                key = owner " " w
                if (!(key in seen)) { seen[key] = 1; print key }
                line = substr(line, RSTART + RLENGTH)
            }
        }'
)

# Every public definition, as `id<TAB>crate<TAB>kind<TAB>name<TAB>signature`,
# where id is `file:line: text` and signature is what another crate
# receives through it.
defs=$(
    find crates -mindepth 1 -maxdepth 1 -type d 2>/dev/null | sort \
        | grep -vE '^crates/parking_lot$' | sed 's|$|/src|' \
        | while IFS= read -r d; do if [ -d "$d" ]; then rust_files "$d"; fi; done \
        | xargs -0 -r awk -f "$nontest" | awk '
        function flush() {
            if (id != "") print id "\t" crate "\t" kind "\t" name "\t" sig
            id = ""; sig = ""; open = 0
        }
        function braces(s,    t) {
            t = s; opens = gsub(/\{/, "", t)
            t = s; closes = gsub(/\}/, "", t)
            return opens - closes
        }
        {
            # file:line: text
            match($0, /^[^:]*:[0-9]+: /)
            file = substr($0, 1, RLENGTH - 2); sub(/:[0-9]+$/, "", file)
            text = substr($0, RLENGTH + 1)
            if (file != curfile) { flush(); curfile = file }
        }
        # Inside a definition whose signature spans lines.
        open == 1 {
            # fn: up to the body or the terminating semicolon.
            if (text ~ /\{/) { t = text; sub(/\{.*/, "", t); sig = sig " " t; flush() }
            else { sig = sig " " text; if (text ~ /;[ \t]*$/) flush() }
            next
        }
        open == 2 {
            # struct, enum, union, trait: to the closing brace.
            depth += braces(text)
            if (kind != "struct" || text ~ /^[ \t]*pub /) sig = sig " " text
            if (depth <= 0) flush()
            next
        }
        match(text, /^[ \t]*pub (const |async |unsafe |extern "[A-Za-z]+" )*(fn|struct|enum|union|trait|type|const|static|mod) +[A-Za-z_][A-Za-z0-9_]*/) {
            flush()
            head = substr(text, RSTART, RLENGTH)
            n = split(head, w, /[ \t]+/)
            name = w[n]; kind = w[n - 1]
            id = $0
            split(file, p, "/"); crate = p[2]
            rest = substr(text, RSTART + RLENGTH)
            if (kind == "mod") { flush(); next }
            if (kind == "fn") {
                if (rest ~ /\{/) { sub(/\{.*/, "", rest); sig = rest; flush() }
                else { sig = rest; if (rest ~ /;[ \t]*$/) flush(); else open = 1 }
                next
            }
            if (kind == "struct" || kind == "enum" || kind == "union" || kind == "trait") {
                depth = braces(rest); sig = rest
                if (depth > 0) open = 2; else flush()
                next
            }
            sig = rest; flush()
        }
        END { flush() }'
)

report=$(
    {
        printf '%s\n' "$readers"
        echo "@@defs"
        printf '%s\n' "$defs"
    } | awk -F'\t' '
        $0 == "@@defs" { indefs = 1; next }
        !indefs {
            split($0, r, " ")
            owners[r[2]] = owners[r[2]] " " r[1]
            next
        }
        $0 != "" {
            n++
            id[n] = $1; crate[n] = $2; kind[n] = $3; name[n] = $4; sig[n] = $5
        }
        END {
            for (i = 1; i <= n; i++) {
                outside = 0; other = 0
                k = split(owners[name[i]], o, " ")
                for (j = 1; j <= k; j++) {
                    if (o[j] == crate[i]) continue
                    outside = 1
                    if (o[j] != "benchmark") other = 1
                }
                kept[i] = outside
                benchonly[i] = outside && !other
            }
            # Types handed out through kept signatures, to a fixed point.
            do {
                changed = 0
                words = " "
                for (i = 1; i <= n; i++) if (kept[i]) {
                    s = sig[i]
                    while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
                        words = words substr(s, RSTART, RLENGTH) " "
                        s = substr(s, RSTART + RLENGTH)
                    }
                }
                for (i = 1; i <= n; i++) {
                    if (kept[i] || kind[i] !~ /^(struct|enum|union|trait|type)$/) continue
                    if (index(words, " " name[i] " ")) { kept[i] = 1; changed = 1 }
                }
            } while (changed)
            print "unused:"
            for (i = 1; i <= n; i++) if (!kept[i]) print "  " id[i]
            print "benchmark-only:"
            for (i = 1; i <= n; i++) if (benchonly[i]) print "  " id[i]
            print "public definitions: " n
        }'
)
printf '%s\n' "$report"
