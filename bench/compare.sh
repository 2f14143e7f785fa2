#!/usr/bin/env bash
# Judge this checkout's speed against a base commit with refbench's one
# comparison rule (refbench/compare.exe). Run from anywhere inside a git
# checkout:
#
#   bash bench/compare.sh BASE        # e.g. the merge base with main
#
# BASE is exported into a temporary directory and this checkout's
# bench/, refbench/ and BENCHMARK.json are copied over it, so both sides
# run identical benchmark code against their own library. Both sides are
# built (dune cache off), then run alternately, the side that goes first
# swapping from pair to pair:
#
#   - 5 pairs of `bench/main.exe micro`, judged with any run file as
#     the metric catalogue;
#   - 3 pairs of `refbench/reference.exe --seed i --seconds 5` over
#     every workload, judged against BENCHMARK.json.
#
# Every run's JSON and standard output land in results/compare/. The
# exit code is non-zero when either comparison flags a regression, when
# a run fails (a refbench output check included), or when the benchmark
# code does not build at BASE: no comparison is ever skipped. About 7
# minutes plus two builds on a 2-vCPU machine.
set -euo pipefail

micro_pairs=5
reference_pairs=3
reference_seconds=5

base=${1:?usage: bash bench/compare.sh BASE}
change=$(cd "$(dirname "$0")/.." && pwd)
cd "$change"
out=$change/results/compare
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
parent=$work/base

mkdir "$parent"
git archive "$base" | tar -x -C "$parent"
rm -rf "$parent/bench" "$parent/refbench"
cp -R bench refbench BENCHMARK.json "$parent/"

build() {
  (cd "$1" && DUNE_CACHE=disabled dune build --root . ./bench/main.exe \
    ./refbench/reference.exe ./refbench/compare.exe)
}
build "$change"
if ! build "$parent"; then
  echo "compare.sh: this checkout's bench/ or refbench/ does not build at $base" >&2
  exit 1
fi

rm -rf "$out"
mkdir -p "$out"

# run SIDE KIND I: one run of KIND on SIDE. Its JSON is copied to
# $out/KIND-SIDE-I.json and its standard output kept next to it.
run() {
  local dir result log=$out/$2-$1-$3.log
  if [ "$1" = parent ]; then dir=$parent; else dir=$change; fi
  echo "== $2 pair $3: $1" >&2
  if [ "$2" = micro ]; then
    (cd "$dir" && ./_build/default/bench/main.exe --jobs 1 micro > "$log")
    result=BENCH_core.json
  else
    (cd "$dir" && ./_build/default/refbench/reference.exe --seed "$3" \
      --seconds "$reference_seconds" > "$log")
    result=BENCH_reference.json
  fi
  cp "$dir/results/$result" "$out/$2-$1-$3.json"
}

# pairs KIND N: N alternating pairs, parent first in odd pairs.
pairs() {
  local i
  for i in $(seq 1 "$2"); do
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$1" "$i"; run change "$1" "$i"
    else
      run change "$1" "$i"; run parent "$1" "$i"
    fi
  done
}

# judge KIND N CATALOGUE: compare.exe over the N pairs of KIND.
judge() {
  local i parents=() changes=()
  for i in $(seq 1 "$2"); do
    parents+=("$out/$1-parent-$i.json")
    changes+=("$out/$1-change-$i.json")
  done
  ./_build/default/refbench/compare.exe --benchmark "$3" \
    "${parents[@]}" -- "${changes[@]}"
}

pairs micro "$micro_pairs"
pairs reference "$reference_pairs"

status=0
judge micro "$micro_pairs" "$out/micro-change-1.json" || status=1
judge reference "$reference_pairs" BENCHMARK.json || status=1
if [ "$status" -ne 0 ]; then
  echo "compare.sh: a comparison against $base failed" >&2
fi
exit "$status"
