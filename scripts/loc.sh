#!/usr/bin/env bash
# loc.sh — non-test Go line counts per package, run by `make loc`.
#
#   scripts/loc.sh [base-rev]
#
# Counts the lines of every Go file except *_test.go files, testdata
# directories and perfbench/, grouped by package directory, in the
# working tree (tracked and untracked-but-not-ignored files). With
# base-rev it also counts the same files at that revision and prints the
# net change per package and in total — the figure each change reports
# next to its benchmark numbers.
set -euo pipefail

base=${1:-}
cd "$(git rev-parse --show-toplevel)"

keep() { grep -E '\.go$' | grep -vE '_test\.go$|(^|/)testdata/|^perfbench/' || true; }

# count prints "<dir> <lines>" for every kept file of rev ("" = worktree).
count() {
    if [ -z "$1" ]; then
        git ls-files -co --exclude-standard | keep | while read -r f; do
            [ -f "$f" ] && printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
        done
    else
        git ls-tree -r --name-only "$1" | keep | while read -r f; do
            printf '%s %s\n' "$(dirname "$f")" "$(git show "$1:$f" | wc -l)"
        done
    fi
}

now=$(mktemp)
old=$(mktemp)
trap 'rm -f "$now" "$old"' EXIT
count "" >"$now"
if [ -n "$base" ]; then
    git rev-parse --verify -q "$base^{commit}" >/dev/null || { echo "loc: unknown revision $base" >&2; exit 2; }
    count "$base" >"$old"
fi

awk -v withbase="$base" '
    FNR == NR { cur[$1] += $2; dirs[$1] = 1; next }
    { prev[$1] += $2; dirs[$1] = 1 }
    END {
        n = 0
        for (d in dirs) list[++n] = d
        for (i = 2; i <= n; i++) for (j = i; j > 1 && list[j-1] > list[j]; j--) { t = list[j]; list[j] = list[j-1]; list[j-1] = t }
        if (withbase != "") printf "%-28s %8s %8s %8s\n", "package", "lines", "base", "net"
        else printf "%-28s %8s\n", "package", "lines"
        for (i = 1; i <= n; i++) {
            d = list[i]; c = cur[d] + 0; p = prev[d] + 0; tc += c; tp += p
            if (withbase != "") printf "%-28s %8d %8d %+8d\n", d, c, p, c - p
            else printf "%-28s %8d\n", d, c
        }
        if (withbase != "") printf "%-28s %8d %8d %+8d\n", "total", tc, tp, tc - tp
        else printf "%-28s %8d\n", "total", tc
    }' "$now" "$old"
