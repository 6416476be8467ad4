#!/usr/bin/env bash
# doccheck.sh — the documentation lint, run by `make doc`.
#
# Six checks:
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
#      no registered metric or emitted span ships undocumented. In the
#      other direction, every | `name` | counter|gauge|histogram|span
#      row of OBSERVABILITY.md must name a metric registered, or a span
#      started, that way (a `prefix<...>` row matches by prefix), so no
#      documented metric or span outlives the code that emitted it.
#   5. Every `cmd/experiments -run <names>` mention in README.md,
#      DESIGN.md, EXPERIMENTS.md and the verify skill notes must name
#      only experiments the binary registers (read from its -h output)
#      or "all", so no documented command runs a misspelt or retired
#      experiment.
#   6. Every `go run ./cmd/<name>` or `go run ./examples/<name>` command
#      in README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md and the verify
#      skill notes must name an existing directory, and every -flag that
#      follows it on the same line (up to a closing backtick or a #
#      comment) must be one the binary's -h output lists, so no
#      documented command runs a deleted binary or a misspelt flag.
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

# 4 (reverse): every documented metric or span row names one the code
# registers or starts.
for row in $(sed -nE 's/^\| `([^`]+)` \| (counter|gauge|histogram|span) .*/\1/p' OBSERVABILITY.md); do
    found=0
    for name in $names $spans; do
        case "$row" in
        *"<"*) case "$name" in "${row%%<*}"*) found=1 ;; esac ;;
        "$name") found=1 ;;
        esac
        [ $found -eq 0 ] || break
    done
    if [ $found -eq 0 ]; then
        echo "doccheck: OBSERVABILITY.md documents $row, which no non-test code registers or starts" >&2
        fail=1
    fi
done

# 5: documented cmd/experiments -run names vs. the binary's registry.
$GO build -o "$TMP/experiments" ./cmd/experiments
registered=$({ "$TMP/experiments" -h 2>&1 || true; } |
    sed -n "s/.*or 'all'): \([a-z0-9,]*\).*/\1/p" | tr ',' ' ')
if [ -z "$registered" ]; then
    echo "doccheck: could not read the experiment names from experiments -h" >&2
    fail=1
fi
for doc in README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; do
    [ -f "$doc" ] || continue
    for name in $(grep -oE 'cmd/experiments -run [A-Za-z0-9_,-]+' "$doc" |
        sed 's/.* -run //' | tr ',' '\n' | sort -u); do
        case " all $registered " in
        *" $name "*) ;;
        *)
            echo "doccheck: $doc runs cmd/experiments -run $name, which is not a registered experiment" >&2
            fail=1
            ;;
        esac
    done
done

# 6: documented go run commands vs. the directories and their -h flags.
for doc in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md .claude/skills/verify/SKILL.md; do
    [ -f "$doc" ] || continue
    while IFS= read -r cmd; do
        path=$(printf '%s\n' "$cmd" | sed -E 's|^go run \./([a-z]+/[A-Za-z0-9_-]+).*|\1|')
        if [ ! -d "$path" ]; then
            echo "doccheck: $doc runs ./$path, which does not exist" >&2
            fail=1
            continue
        fi
        flags=$(printf '%s\n' "$cmd" | { grep -oE '[[:space:]]-[a-z][a-z0-9-]*' || true; } | sed 's/^[[:space:]]-//' | sort -u)
        [ -n "$flags" ] || continue
        bin="$TMP/bin/$path"
        if [ ! -f "$bin.flags" ]; then
            mkdir -p "$(dirname "$bin")"
            $GO build -o "$bin" "./$path"
            { "$bin" -h 2>&1 || true; } | sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' >"$bin.flags"
        fi
        for flag in $flags; do
            if ! grep -qx -- "$flag" "$bin.flags"; then
                echo "doccheck: $doc runs ./$path with -$flag, which its -h does not list" >&2
                fail=1
            fi
        done
    done < <(grep -oE 'go run \./(cmd|examples)/[A-Za-z0-9_-]+[^`#]*' "$doc")
done

exit $fail
