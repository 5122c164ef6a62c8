#!/usr/bin/env bash
# Non-test lines of Rust per crate and in total. For each `.rs` file under
# `crates/`, outside `tests/` and `benches/`, count the lines before its
# first `#[cfg(test)]` at any indentation (a file without one counts whole).
#
#   scripts/loc.sh [--budget N]
#
# With `--budget N`, exit non-zero when the total is above N.
set -euo pipefail
cd "$(dirname "$0")/.."

budget=
case "${1-}" in
  --budget) budget=${2:?--budget needs a line count} ;;
  "") ;;
  *) echo "usage: $0 [--budget N]" >&2; exit 2 ;;
esac

total=0
for crate in crates/*/; do
  n=0
  while IFS= read -r -d '' f; do
    lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { c++ } END { print c + 0 }' "$f")
    n=$((n + lines))
  done < <(find "$crate" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -print0)
  printf '%-14s %6d\n' "$(basename "$crate")" "$n"
  total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
if [[ -n "$budget" ]] && ((total > budget)); then
  echo "non-test lines: $total, over the budget of $budget" >&2
  exit 1
fi
