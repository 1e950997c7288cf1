#!/usr/bin/env bash
# Code size against a base revision: non-test, non-comment Go lines per
# package at <rev> and at HEAD (committed trees; the working tree is not
# read), then per file for every file whose count changed.
#
#   bash ci/loc.sh <rev>
#
# A line counts unless it is blank or a // comment line, the rule
# grep -vcE '^\s*(//|$)' applies; _test.go files and testdata/ are left
# out.
set -euo pipefail
if [ $# -ne 1 ]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
rev=$1
root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)

count() { # count <side> <rev>: "<side> <package> <file> <lines>" per counted Go file
  git -C "$root" ls-tree -r --name-only "$2" | grep '\.go$' | grep -v '_test\.go$' | grep -v '/testdata/' |
    while read -r f; do
      printf '%s %s %s %s\n' "$1" "$(dirname "$f")" "$f" "$(git -C "$root" show "$2:$f" | grep -vcE '^\s*(//|$)' || true)"
    done
}
data=$(count base "$rev"; count head HEAD)

table() { # table <field> <title> <all>: lines summed per key field, sorted, then a total
  printf '%-44s %7s %7s %7s\n' "$2" "$rev" HEAD delta
  awk -v f="$1" '{ n[$1, $f] += $4; keys[$f] = 1 }
    END { for (k in keys) printf "%-44s %7d %7d %+7d\n", k, n["base", k], n["head", k], n["head", k] - n["base", k] }' <<<"$data" |
    sort | awk -v all="$3" 'all || $4 != 0 { print } { a += $2; b += $3 } END { printf "%-44s %7d %7d %+7d\n", "total", a, b, b - a }'
}
table 2 package 1
echo
table 3 "changed file" 0
