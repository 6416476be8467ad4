#!/usr/bin/env bash
# doccheck.sh — the documentation lint, run by `make doc`.
#
# Four checks:
#
#   1. Every Go package directory must contain at least one file opening
#      with a "// Package <name> ..." comment (or "// Command <name> ..."
#      for main packages), the form godoc and pkg.go.dev surface.
#   2. Every internal/ package's doc comment must cite the prose document
#      that specifies it — DESIGN.md, ANALYSIS.md or OBSERVABILITY.md —
#      so the reference docs and the code can be navigated in both
#      directions and a package can't silently drift out of the docs.
#   3. README.md's cmd/fi flag table must list exactly the flags the
#      binary actually defines (diffed against -h output), so the table
#      can never go stale against the CLI.
#   4. Every metric name passed as a string literal to .Counter(,
#      .Gauge( or .Histogram( in non-test Go code must appear in
#      OBSERVABILITY.md as a backticked name (or, for a literal prefix
#      completed at runtime such as "fi.outcome.", as `prefix<...>`),
#      and so must every span name passed as a literal to .Start(, so
#      no registered metric or emitted span ships undocumented.
#
# Run from the repo root; exits non-zero listing every violation.

set -euo pipefail

GO=${GO:-go}
TMP=$(mktemp -d /tmp/doccheck.XXXXXX)
trap 'rm -rf "$TMP"' EXIT INT TERM

fail=0

# 1+2: package doc presence, and doc-file citation for internal/.
for dir in $($GO list -f '{{.Dir}}' ./...); do
    docfile=$(grep -l -E '^// (Package|Command) ' "$dir"/*.go 2>/dev/null | head -1)
    if [ -z "$docfile" ]; then
        echo "doccheck: no package doc comment in $dir" >&2
        fail=1
        continue
    fi
    case "$dir" in
    */internal/*)
        # The doc comment is the leading // block of the doc file; it
        # must mention at least one of the reference documents.
        if ! awk '/^\/\//{c = c $0; next} {exit}
                  END{exit !(c ~ /DESIGN\.md|ANALYSIS\.md|OBSERVABILITY\.md/)}' "$docfile"; then
            echo "doccheck: package doc in $docfile cites none of DESIGN.md/ANALYSIS.md/OBSERVABILITY.md" >&2
            fail=1
        fi
        ;;
    esac
done

# 3: README's cmd/fi flag table vs. the binary's actual flag set.
# (-h exits 2 by flag-package convention; that is not a failure here.)
$GO build -o "$TMP/fi" ./cmd/fi
{ "$TMP/fi" -h 2>&1 || true; } | sed -n 's/^  -\([a-z-]*\).*/\1/p' | sort >"$TMP/cli.flags"
sed -n 's/^| `-\([a-z-]*\)[^`]*`.*/\1/p' README.md | sort >"$TMP/readme.flags"
if ! cmp -s "$TMP/cli.flags" "$TMP/readme.flags"; then
    echo "doccheck: README.md cmd/fi flag table is out of sync with the binary:" >&2
    diff "$TMP/readme.flags" "$TMP/cli.flags" >&2 || true
    echo "doccheck: (< only in README, > only in fi -h)" >&2
    fail=1
fi

# 4: every registered metric name is documented in OBSERVABILITY.md.
names=$(find . -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 grep -hoE '\.(Counter|Gauge|Histogram)\("[^"]+"' |
    sed -E 's/.*\("([^"]+)"/\1/' | sort -u)
for name in $names; do
    case "$name" in
    *.) want="\`$name<" ;;
    *) want="\`$name\`" ;;
    esac
    if ! grep -qF "$want" OBSERVABILITY.md; then
        echo "doccheck: metric $name is registered in code but not documented in OBSERVABILITY.md" >&2
        fail=1
    fi
done

# 4 (spans): every span name started in non-test code is documented.
spans=$(find . -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 grep -hoE '\.Start\("[^"]+"' |
    sed -E 's/.*\("([^"]+)"/\1/' | sort -u)
for name in $spans; do
    if ! grep -qF "\`$name\`" OBSERVABILITY.md; then
        echo "doccheck: span $name is started in code but not documented in OBSERVABILITY.md" >&2
        fail=1
    fi
done

exit $fail
