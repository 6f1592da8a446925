#!/usr/bin/env bash
# Prints one field of a `ccsim_run --csv` file (a header line, then one
# row of values), looked up by its column header from
# src/runner/counters.def. Fails with a message naming the header when the
# file has no such column or no data row.
#
# Usage: tools/csv_column.sh FILE HEADER     e.g. tools/csv_column.sh r.csv tput
set -euo pipefail
awk -F, -v want="$2" '
  NR == 1 {
    for (i = 1; i <= NF; i++) if ($i == want) col = i
    if (!col) {
      print FILENAME ": no CSV column \"" want "\"" > "/dev/stderr"
      exit 1
    }
    next
  }
  { print $col; found = 1; exit }
  END {
    if (col && !found) {
      print FILENAME ": no CSV data row" > "/dev/stderr"
      exit 1
    }
  }' "$1"
