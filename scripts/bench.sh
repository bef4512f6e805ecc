#!/usr/bin/env bash
# bench.sh — run the perf-tracking benchmark families and emit a
# machine-readable trajectory point.
#
# Usage:
#   scripts/bench.sh                 # writes bench.out.json (untracked)
#   OUT=BENCH_PRn.json scripts/bench.sh
#                                    # custom output path, e.g. a new
#                                    # committed trajectory point
#   BASELINE=old.json scripts/bench.sh
#                                    # embed an earlier run for before/after
#   PATTERN='BenchmarkSolveCompiled' BENCHTIME=0.5s COUNT=3 scripts/bench.sh
#
# The output JSON carries the parsed per-benchmark numbers plus the raw
# `go test -bench` text (benchstat-compatible: save two runs' "raw"
# fields to files and feed them to benchstat for significance testing).
# BenchmarkStream* rows carry dbq/op — database queries per arrival —
# and BenchmarkCluster* rows carry xnode/arrival and xnode/batch —
# cross-node messages per session arrival / per scattered batch — in
# their extra metrics; the raw text preserves them.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-bench.out.json}"
PATTERN="${PATTERN:-BenchmarkFigure4List|BenchmarkAblationIndexes|BenchmarkParallelCoordinateMany|BenchmarkSolveCompiled|BenchmarkStream|BenchmarkServer|BenchmarkWAL|BenchmarkWire|BenchmarkCluster|BenchmarkAdmission}"
BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"
BASELINE="${BASELINE:-}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "running: go test -run '^\$' -bench '$PATTERN' -benchmem -benchtime $BENCHTIME -count $COUNT ./..." >&2
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./... 2>&1 \
  | grep -v '^\(?\|ok \)\s*entangled.*no test files' \
  | tee /dev/stderr >"$tmp" || { echo "bench run failed" >&2; exit 1; }

{
  echo '{'
  echo '  "schema": "entangled-bench/v1",'
  echo "  \"commit\": \"$(git rev-parse --short HEAD 2>/dev/null || echo unknown)\","
  echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"go\": \"$(go env GOVERSION)\","
  echo "  \"goos\": \"$(go env GOOS)\","
  echo "  \"goarch\": \"$(go env GOARCH)\","
  echo '  "benchmarks": ['
  awk '
    /^Benchmark/ {
      gsub(/\r/, "")
      name = $1; iters = $2; ns = $3
      bpo = "null"; apo = "null"
      for (i = 4; i <= NF; i++) {
        if ($i == "B/op") bpo = $(i-1)
        if ($i == "allocs/op") apo = $(i-1)
      }
      if (sep) printf ",\n"
      printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, iters, ns, bpo, apo
      sep = 1
    }
    END { print "" }
  ' "$tmp"
  echo '  ],'
  if [ -n "$BASELINE" ] && [ -f "$BASELINE" ]; then
    echo '  "baseline":'
    sed 's/^/    /' "$BASELINE"
    echo '  ,'
  fi
  awk '
    BEGIN { printf "  \"raw\": \"" }
    {
      gsub(/\\/, "\\\\"); gsub(/"/, "\\\""); gsub(/\t/, "\\t")
      printf "%s\\n", $0
    }
    END { print "\"" }
  ' "$tmp"
  echo '}'
} >"$OUT"

echo "wrote $OUT" >&2
