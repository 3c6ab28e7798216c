# The non-test lines of the Rust files named, as `file:line: text`; with
# `-v pat=REGEX`, only those matching REGEX. The one statement of what
# `ci/loc.sh` counts and `ci/arch_lint.sh` scans.
#
# A file's test region is its test *module*: it starts at a column-0
# `#[cfg(test)]` whose item is a `mod` (any visibility; further attribute
# lines may sit between) and runs to the end of the file. A `#[cfg(test)]`
# on anything else — a `const`, a `thread_local!`, a helper `fn` — gates
# that item and nothing below it (`mailbox.rs` has one at line 68 of
# 1 100), so it is held back only until the next item line says which.
function emit(file, no, text) {
    if (text ~ pat) print file ":" no ": " text
}
function hold() {
    held++
    hfile[held] = FILENAME; hno[held] = FNR; htext[held] = $0
}
function release(    i) {
    for (i = 1; i <= held; i++) emit(hfile[i], hno[i], htext[i])
    held = 0
}
FNR == 1 { release(); intest = 0 }
intest { next }
held && /^#\[/ { hold(); next }
held && /^(pub(\([a-z]+\))? )?mod / { intest = 1; held = 0; next }
held { release() }
/^#\[cfg\(test\)\]/ { hold(); next }
{ emit(FILENAME, FNR, $0) }
END { release() }
