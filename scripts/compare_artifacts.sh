#!/usr/bin/env bash
# Byte-for-byte oracle for behaviour-preserving changes: runs every
# deterministic output surface in two builds of this repo and `cmp`s each
# pair. A refactor that claims "same behaviour from less code" should leave
# every artifact identical.
#
# Usage:
#   scripts/compare_artifacts.sh BUILD_A BUILD_B [SERVING_BENCH_A SERVING_BENCH_B]
#
# BUILD_A and BUILD_B are CMake build directories (e.g. the parent commit's
# and the change's), each already built with bench/ and examples/. The
# optional SERVING_BENCH_A and SERVING_BENCH_B are the two sides'
# perfbench `serving_bench` binaries (perfbench/run.py builds one into
# .bench_build/perfbench/). The surfaces compared:
#   * stdout of bench_fig13_cluster, bench_ablations, cluster_autoscale,
#     textgen_cluster and textgen_cluster --tp 2;
#   * stdout of the other numeric-Engine examples: quickstart,
#     quickstart --tp 2, migration_demo, and multi_tenant_textgen and
#     multi_tenant_textgen --tp 2 (its numeric section serves two LoRA
#     tenants, sharded over the ranks at tp 2; it prints no wall-clock
#     figure);
#   * the JSON file of bench_serving --json (its stdout also reports a
#     wall-clock threaded run, so only the file is compared);
#   * the virtual-time sections of open_loop_serving: the lines before its
#     "real threads" section, which is wall-clock;
#   * stdout of bench_fig11_textgen (Figs. 11, 11b, 11c, 11d) at the
#     default settings, at --tp 2 and at --prefill-limit 4, and the
#     BENCH_prefix_cache.json its --prefix-json writes;
#   * bench_fig12_70b_tp's simulated table, through its "KvCache capacity"
#     line (the measured TP sweep after it is wall-clock);
#   * with the serving_bench pair: stdout of `serving_bench reference W 1 35`
#     over request ids 0..279 (the whole 35 s, 8 rps schedule) for both
#     gated workloads, lora-decode and prefix-tp2.
# Outputs land in a temporary directory that is kept when anything differs.
# Exits 0 when every pair is identical, 1 otherwise (or when a binary
# fails).
set -u

if [ $# -ne 2 ] && [ $# -ne 4 ]; then
  echo "usage: $0 BUILD_A BUILD_B [SERVING_BENCH_A SERVING_BENCH_B]" >&2
  exit 2
fi
A=$1
B=$2
OUT=$(mktemp -d "${TMPDIR:-/tmp}/compare_artifacts.XXXXXX")
status=0
files="fig13_cluster.txt ablations.txt BENCH_serving.json
  cluster_autoscale.txt textgen_cluster.txt textgen_cluster_tp2.txt
  quickstart.txt quickstart_tp2.txt migration_demo.txt
  multi_tenant_textgen.txt multi_tenant_textgen_tp2.txt
  open_loop_serving_virtual.txt fig11_textgen.txt fig11_textgen_tp2.txt
  fig11_textgen_limit4.txt BENCH_prefix_cache.json fig12_simulated.txt"

# run NAME BUILD SIDE CMD... — runs one surface, stdout to $OUT/SIDE/NAME.
run() {
  local name=$1 build=$2 side=$3
  shift 3
  mkdir -p "$OUT/$side"
  if ! (cd "$OUT/$side" && "$build/$@" > "$name"); then
    echo "FAIL    $name ($side: $build/$1 exited non-zero)"
    status=1
  fi
}

for side in a b; do
  if [ $side = a ]; then build=$(cd "$A" && pwd); else build=$(cd "$B" && pwd); fi
  run fig13_cluster.txt "$build" $side bench/bench_fig13_cluster
  run ablations.txt "$build" $side bench/bench_ablations
  run serving_stdout.txt "$build" $side bench/bench_serving --json BENCH_serving.json
  run cluster_autoscale.txt "$build" $side examples/cluster_autoscale
  run textgen_cluster.txt "$build" $side examples/textgen_cluster
  run textgen_cluster_tp2.txt "$build" $side examples/textgen_cluster --tp 2
  run quickstart.txt "$build" $side examples/quickstart
  run quickstart_tp2.txt "$build" $side examples/quickstart --tp 2
  run migration_demo.txt "$build" $side examples/migration_demo
  run multi_tenant_textgen.txt "$build" $side examples/multi_tenant_textgen
  run multi_tenant_textgen_tp2.txt "$build" $side \
    examples/multi_tenant_textgen --tp 2
  run open_loop_serving_full.txt "$build" $side examples/open_loop_serving
  sed '/real threads/,$d' "$OUT/$side/open_loop_serving_full.txt" \
    > "$OUT/$side/open_loop_serving_virtual.txt"
  run fig11_textgen.txt "$build" $side bench/bench_fig11_textgen \
    --prefix-json BENCH_prefix_cache.json
  run fig11_textgen_tp2.txt "$build" $side bench/bench_fig11_textgen --tp 2
  run fig11_textgen_limit4.txt "$build" $side bench/bench_fig11_textgen \
    --prefill-limit 4
  run fig12_full.txt "$build" $side bench/bench_fig12_70b_tp --threads 2 \
    --repeat 1
  sed '/KvCache capacity/q' "$OUT/$side/fig12_full.txt" \
    > "$OUT/$side/fig12_simulated.txt"
done

if [ $# -eq 4 ]; then
  seq 0 279 > "$OUT/ids.txt"
  for side in a b; do
    if [ $side = a ]; then bench=$(realpath "$3"); else bench=$(realpath "$4"); fi
    for w in lora-decode prefix-tp2; do
      run "reference_$w.txt" "$(dirname "$bench")" $side \
        "$(basename "$bench")" reference "$w" 1 35 "$OUT/ids.txt"
    done
  done
  files="$files reference_lora-decode.txt reference_prefix-tp2.txt"
fi

for f in $files; do
  if cmp -s "$OUT/a/$f" "$OUT/b/$f"; then
    echo "same    $f"
  else
    echo "DIFFER  $f"
    status=1
  fi
done

if [ $status -eq 0 ]; then
  rm -rf "$OUT"
  echo "all artifacts byte-identical"
else
  echo "outputs kept in $OUT"
fi
exit $status
