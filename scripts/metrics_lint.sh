#!/bin/sh
# metrics_lint.sh — cross-check registered metric names against DESIGN.md §6.
#
# Two-way: every metric name literal in non-test Go code must appear in the
# §6 reference tables (no undocumented metrics), and every name documented
# there must still exist in code (no stale rows). A code literal ending in
# `_` (e.g. "refresh_canary_" + outcome + "_total") is a runtime-concatenated
# prefix: it is satisfied by any documented name starting with it, and it
# marks every documented name it prefixes as live.
#
# Run from the repository root (make metrics-lint). Exits non-zero listing
# the offending names.
set -eu
cd "$(dirname "$0")/.."

PREFIXES='machine|extract|wrapper|serve|cluster|refresh|obs|spanner'
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

# Code side: quoted metric-name literals in non-test sources. The pattern is
# anchored on the registry's naming convention (<subsystem>_<snake_case>), so
# ordinary strings never collide with it.
grep -rhoE "\"(${PREFIXES})_[a-z0-9_]+\"" \
    --include='*.go' --exclude='*_test.go' internal/ cmd/ examples/ |
    tr -d '"' | sort -u >"$TMP/code"

# Doc side: backticked names in the §6 table rows, label sets stripped.
awk '/^## 6\./{flag=1;next}/^## /{flag=0}flag' DESIGN.md |
    grep '^|' |
    grep -oE '`[a-z0-9_{}=",]+`' |
    tr -d '`' | sed 's/{[^}]*}//g' |
    grep -E "^(${PREFIXES})_[a-z0-9_]+$" | sort -u >"$TMP/doc"

fail=0

# Undocumented: code names with no doc row (exact match, or prefix literal
# matched by some documented name).
while IFS= read -r name; do
    case "$name" in
    *_)
        grep -q "^${name}" "$TMP/doc" || {
            echo "metrics-lint: undocumented metric prefix \`$name*\` (add a row to DESIGN.md §6)" >&2
            fail=1
        }
        ;;
    *)
        grep -qx "$name" "$TMP/doc" || {
            echo "metrics-lint: undocumented metric \`$name\` (add a row to DESIGN.md §6)" >&2
            fail=1
        }
        ;;
    esac
done <"$TMP/code"

# Stale: doc rows naming metrics no code registers (exact literal, or covered
# by a concatenated prefix literal).
while IFS= read -r name; do
    if grep -qx "$name" "$TMP/code"; then
        continue
    fi
    # A loop over the prefix literals, not a read of them: with none in
    # code, a read would see one empty prefix, which covers every name.
    covered=0
    for prefix in $(grep '_$' "$TMP/code" || true); do
        case "$name" in
        "${prefix}"*) covered=1 ;;
        esac
    done
    [ "$covered" = 1 ] || {
        echo "metrics-lint: stale doc row \`$name\` (no code registers it; update DESIGN.md §6)" >&2
        fail=1
    }
done <"$TMP/doc"

if [ "$fail" = 0 ]; then
    echo "metrics-lint: OK ($(wc -l <"$TMP/code" | tr -d ' ') code names, $(wc -l <"$TMP/doc" | tr -d ' ') doc rows)"
fi
exit "$fail"
