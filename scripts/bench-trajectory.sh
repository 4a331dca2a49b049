#!/bin/sh
# Turns two sets of `proteus-benchmark --json` records — the parent
# commit's runs and this change's — into the rows a PR appends to
# BENCH_trajectory.json: one per (workload, metric), both medians and
# both spreads (distance between the quartiles over the median, as
# `proteus-benchmark compare` and Python's statistics.quantiles(n=4)
# compute it). Untraced (`--trace 0`) records only.
#
#   scripts/bench-trajectory.sh PR HOST PARENT_COMMIT PARENT.jsonl COMMIT CHANGE.jsonl
#       prints the rows, one JSON object per line
#   scripts/bench-trajectory.sh --append ROWS_FILE
#       appends such rows to BENCH_trajectory.json in the working directory
#
# A PR's rows name their own commit by the placeholder `PR<n>` (it has
# no SHA until it is committed). The next PR's rows carry that SHA as
# their PARENT_COMMIT, so --append gives it to the rows of the latest
# earlier PR still marked by its placeholder (PR n-1, or an earlier one
# when the PRs between did not land), and warns on stderr about any
# older placeholder it leaves alone.
#
# HOST is `quiet` or `slow`: timings on this host are bimodal and a
# trajectory that mixes the two states without saying so reads as a
# regression (ROADMAP, "Conventions").
set -eu

if [ "${1:-}" = "--append" ]; then
    [ $# -eq 2 ] || { sed -n '2,23p' "$0" >&2; exit 2; }
    jq -c -n --slurpfile old BENCH_trajectory.json --slurpfile new "$2" '
      ($new[0] | {pr, parent}) as $n
      | ([$old[0][] | select(.commit == "PR\(.pr)" and .pr < $n.pr) | .pr] | max) as $prev
      | $old[0][]
      | if .pr == $prev and .commit == "PR\(.pr)" then .commit = $n.parent else . end' \
        > BENCH_trajectory.json.tmp
    jq -r 'select(.commit | test("^PR[0-9]+$")) | .commit' BENCH_trajectory.json.tmp |
        sort | uniq -c | while read -r rows placeholder; do
            echo "bench-trajectory: left $rows rows at the placeholder $placeholder" >&2
        done
    { cat BENCH_trajectory.json.tmp; jq -c . "$2"; } |
        sed -e '1s/^/[\n/' -e '$!s/$/,/' -e '$s/$/\n]/' > BENCH_trajectory.json
    rm BENCH_trajectory.json.tmp
    exit 0
fi

[ $# -eq 6 ] || { sed -n '2,23p' "$0" >&2; exit 2; }
case $2 in quiet | slow) ;; *) echo "HOST must be quiet or slow" >&2; exit 2 ;; esac

jq -c -n --argjson pr "$1" --arg host "$2" --arg parent "$3" --arg commit "$5" \
    --slurpfile a "$4" --slurpfile b "$6" '
  def quartile($i):                 # statistics.quantiles(v, n=4)[$i-1]
    sort as $v | ($v | length) as $n
    | ($i * ($n + 1) / 4 | floor) as $j0
    | ([[$j0, 1] | max, $n - 1] | min) as $j
    | ($i * ($n + 1) - $j * 4) as $d
    | ($v[$j - 1] * (4 - $d) + $v[$j] * $d) / 4;
  def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                     else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  def spread: if length < 4 then null
              else median as $m
              | if $m == 0 then 0 else ((quartile(3) - quartile(1)) / $m | fabs) end end;
  def seeds: map(.seed) | unique | if length == 0 then "" else "\(.[0])-\(.[-1])" end;
  def values($w; $m): map(select(.workload == $w)
      | (.result.metrics[$m].value // .unbounded[$m]) | select(. != null));
  ($a | map(select(.trace == 0))) as $a | ($b | map(select(.trace == 0))) as $b
  | $b | map(.workload) | unique[] as $w
  | ($b | map(select(.workload == $w)) | .[0]
      | (.result.metrics | keys_unsorted) + (.unbounded | keys_unsorted))[] as $m
  | ($a | values($w; $m)) as $pa | ($b | values($w; $m)) as $pb
  | { pr: $pr, commit: $commit, parent: $parent, host: $host, workload: $w, metric: $m,
      parent_median: ($pa | if length == 0 then null else median end),
      parent_spread: ($pa | spread),
      median: ($pb | median), spread: ($pb | spread),
      runs: ($pb | length),
      parent_seeds: ($a | map(select(.workload == $w)) | seeds),
      seeds: ($b | map(select(.workload == $w)) | seeds),
      failed: ($b | map(select(.workload == $w) | .result.failed) | add) }'
