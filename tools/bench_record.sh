#!/usr/bin/env sh
# Appends one single-run bench result to a checked-in perf trajectory.
#
# A bench tool writes a single-run BENCH_<name>.json into its working
# directory (usually the build tree): one `"macro": {...}` line.  Producers
# today:
#   bench/protocol_hotpath.cpp       -> BENCH_protocol_hotpath.json
#   bench/fig09_scalability.cpp      -> BENCH_sim_scale.json (--peak)
# This script wraps such a run with a label, the date, and a machine tag,
# and appends it to the trajectory array in the matching repository-root
# BENCH_<name>.json — the files the README's trajectory tables are built
# from.
#
# Usage: tools/bench_record.sh <label> [results.json] [trajectory.json]
#   label            short description of what the run measures, e.g.
#                    "after: lane-major adaptation scan"
#   results.json     single-run output (default: ./BENCH_protocol_hotpath.json)
#   trajectory.json  checked-in file (default: <repo>/BENCH_protocol_hotpath.json)
set -eu

label=${1:?usage: tools/bench_record.sh <label> [results.json] [trajectory.json]}
src=${2:-BENCH_protocol_hotpath.json}
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
dst=${3:-"$repo_root/BENCH_protocol_hotpath.json"}

[ -f "$src" ] || { echo "bench_record.sh: no results file at $src" >&2; exit 1; }
[ -f "$dst" ] || { echo "bench_record.sh: no trajectory file at $dst" >&2; exit 1; }
if [ "$(cd "$(dirname -- "$src")" && pwd)/$(basename -- "$src")" = "$dst" ]; then
  echo "bench_record.sh: results file IS the trajectory file ($dst);" >&2
  echo "run the bench from the build tree, not the repo root" >&2
  exit 1
fi

# Machine tag: arch, core count, CPU model (best effort outside Linux).
cores=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo '?')
model=$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1)
[ -n "$model" ] || model=unknown-cpu
machine="$(uname -m), $cores core(s), $model"
recorded=$(date -u +%Y-%m-%d)

# Pull the macro line out of the single-run file (fixed format, written by
# the producers' write_json).  Older trajectory entries also carry a
# "micro" array; new entries carry none.
macro=$(sed -n 's/^  "macro": \(.*\),\{0,1\}$/\1/p' "$src" | sed 's/,$//')
[ -n "$macro" ] || { echo "bench_record.sh: no \"macro\" in $src" >&2; exit 1; }

entry=$(mktemp)
trap 'rm -f "$entry"' EXIT
{
  printf '    {\n'
  printf '      "label": "%s",\n' "$label"
  printf '      "recorded": "%s",\n' "$recorded"
  printf '      "machine": "%s",\n' "$machine"
  printf '      "macro": %s\n' "$macro"
  printf '    }\n'
} > "$entry"

# Splice the entry in before the trajectory array's closing bracket.
tmp=$(mktemp)
awk -v entry="$entry" '
  /^  \]$/ && !spliced {
    if (held) print "    },"  # close the previous entry with a comma
    held = 0
    while ((getline line < entry) > 0) print line
    close(entry)
    spliced = 1
    print
    next
  }
  # Hold back the previous entry-closing "    }" so it can gain a comma.
  /^    }$/ { held = 1; next }
  held { print "    }"; held = 0 }
  { print }
' "$dst" > "$tmp"
mv "$tmp" "$dst"

echo "recorded '$label' ($machine) into $dst"
