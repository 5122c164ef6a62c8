#!/usr/bin/env bash
# Non-test lines of Rust per crate and in total. For each `.rs` file under
# `crates/`, outside `tests/` and `benches/`, count the lines before its
# first `#[cfg(test)]` at any indentation (a file without one counts whole).
# Prints only; no threshold.
set -euo pipefail
cd "$(dirname "$0")/.."

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
