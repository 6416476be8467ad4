#!/usr/bin/env bash
# deadcheck.sh — the dead-function lint, run by `make doc`.
#
# Fails when a top-level func or method declared in non-test Go code
# under internal/, cmd/, examples/ or the repository root is named by no
# other non-test code: a production function that only tests reach (or
# nothing at all) is code to delete, with its tests pointed at the
# production path instead. perfbench/ counts as a caller, because the
# benchmark pins the APIs it calls, but its own functions are not
# checked.
#
# The match is by name, after comments are stripped: a declaration is
# live when its identifier occurs anywhere else in non-test code (a
# call, a method value, an interface it satisfies by name). Two
# declarations sharing a name are live together. main, init and the
# allowlist below are exempt.
#
# Run from the repo root; exits non-zero listing every dead function.

set -euo pipefail

TMP=$(mktemp -d /tmp/deadcheck.XXXXXX)
trap 'rm -rf "$TMP"' EXIT INT TERM

# allow lists declarations that are live without a caller in this
# repository, as <name> or <Receiver>.<name>:
#   - methods that satisfy a standard interface by name;
#   - ir.Builder's one-line opcode shorthands, a complete set whether or
#     not every opcode is built from Go code today;
#   - crosscheck's test oracles, whose callers are the package's tests
#     by design (the last four go when their samplers are deleted).
allow='
String Error Unwrap
Builder.*
CheckPruneSound CheckStratifySubset CheckStratifyUnbiased CheckAdaptiveUnbiased DerivePilotPlan
'

# strip writes a Go file with its comments removed; string, raw-string
# and rune literals are kept verbatim so a "//" inside one survives.
strip() {
    awk '
    BEGIN { block = 0 }
    {
        line = $0; out = ""; i = 1; n = length(line)
        while (i <= n) {
            c = substr(line, i, 1); c2 = substr(line, i, 2)
            if (block) {
                if (c2 == "*/") { block = 0; i += 2 } else i++
                continue
            }
            if (raw) {
                out = out c; i++
                if (c == "`") raw = 0
                continue
            }
            if (c2 == "//") break
            if (c2 == "/*") { block = 1; i += 2; continue }
            if (c == "`") { raw = 1; out = out c; i++; continue }
            if (c == "\"" || c == "'\''") {
                q = c; out = out c; i++
                while (i <= n) {
                    d = substr(line, i, 1); out = out d; i++
                    if (d == "\\") { out = out substr(line, i, 1); i++; continue }
                    if (d == q) break
                }
                continue
            }
            out = out c; i++
        }
        print out
    }' "$1"
}

files=$(git ls-files -co --exclude-standard -- '*.go' |
    grep -vE '_test\.go$|(^|/)testdata/' || true)
for f in $files; do
    [ -f "$f" ] || continue
    mkdir -p "$TMP/src/$(dirname "$f")"
    strip "$f" >"$TMP/src/$f"
done

# Every identifier occurrence in non-test code, perfbench included.
(cd "$TMP/src" && find . -name '*.go' -print0 | xargs -0 cat) |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c |
    awk '{print $2, $1}' >"$TMP/uses"

# Every checked declaration: file, line, receiver type (or -), name.
(cd "$TMP/src" && find . -name '*.go' ! -path './perfbench/*' -print0 |
    xargs -0 awk '
    /^func / {
        s = substr($0, 6); recv = "-"
        if (s ~ /^\(/) {
            r = substr(s, 2, index(s, ")") - 2)
            s = substr(s, index(s, ")") + 1); sub(/^ +/, "", s)
            nf = split(r, parts, " "); recv = parts[nf]
            sub(/^\*/, "", recv); sub(/\[.*$/, "", recv)
        }
        if (match(s, /^[A-Za-z_][A-Za-z0-9_]*/))
            print substr(FILENAME, 3), FNR, recv, substr(s, 1, RLENGTH)
    }') >"$TMP/decls"

awk -v allow="$allow" '
    BEGIN { n = split(allow, a, /[ \n]+/); for (i = 1; i <= n; i++) if (a[i] != "") ok[a[i]] = 1 }
    FNR == NR { uses[$1] = $2; next }
    { decls[$4]++; row[FNR] = $0; name[FNR] = $4; recv[FNR] = $3; rows = FNR }
    END {
        fail = 0
        for (i = 1; i <= rows; i++) {
            nm = name[i]
            if (nm == "main" || nm == "init" || ok[nm] || ok[recv[i] "." nm] || ok[recv[i] ".*"]) continue
            if (uses[nm] > decls[nm]) continue
            split(row[i], f, " ")
            what = (recv[i] == "-") ? nm : recv[i] "." nm
            printf "deadcheck: %s:%s: %s is named by no other non-test code\n", f[1], f[2], what > "/dev/stderr"
            fail = 1
        }
        exit fail
    }' "$TMP/uses" "$TMP/decls"
