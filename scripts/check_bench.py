#!/usr/bin/env python3
"""Bench-regression gate: diff fresh CI bench artifacts against committed
baselines and fail on throughput regressions.

Every CI run produces BENCH_kernels.json (Google Benchmark format, from
bench_cpu_kernels) and BENCH_prefix_cache.json (the fig11b shared-prefix
table from bench_fig11_textgen). This script compares each fresh artifact
against the baseline of the same name under bench/baselines/ and exits
non-zero when any throughput-like metric regressed by more than the
threshold (default 15%, the slack CI-runner variance needs). Improvements
are reported and never fail; to ratchet the trajectory forward, rerun with
--update and commit the refreshed baselines.

Usage:
    check_bench.py [--baseline-dir bench/baselines] [--threshold 0.15]
                   [--update] [--min PATTERN:VALUE ...]
                   FRESH.json [FRESH2.json ...]

The threshold can also come from the BENCH_REGRESSION_THRESHOLD env var
(the flag wins). Metrics compared:
  * Google Benchmark files: items_per_second (preferred) or
    bytes_per_second per benchmark name; falls back to 1/real_time.
    A benchmark present in the baseline but missing from the fresh run
    fails the gate — silently dropping a bench is how regressions hide.
  * Every Google Benchmark file also gets derived same-run
    avx2_vs_scalar / avx512_vs_scalar throughput ratios for each
    `<family>Simd/simd:N` family (N = SimdLevel: 0 scalar, 1 avx2,
    2 avx512) with a scalar row and that vector row — the keys the
    per-level speedup floors (--min) gate. A level the host lacks is a
    SkipWithError row, so its ratio is simply not derived.
  * kernels_quant files (Google format, filename contains
    "kernels_quant"): same per-benchmark metrics, plus derived
    q8_vs_f16 / q4_vs_f16 throughput ratios per (family, simd) pair —
    the keys the quant speedup floors (--min) gate against.
  * fig11b files: tok_s_on and saved_fraction per popularity row
    (zero-valued baseline metrics are skipped: Distinct saves nothing by
    construction).
  * serving_open_loop files (bench_serving --json): goodput and tok_s per
    offered-rate row, plus 1/ttft_p95_s and 1/queue_mean_s so every gated
    metric stays higher-is-better. Virtual-time output is deterministic,
    so these gate at the strict default threshold.
  * tp_scaling files (bench_fig12_70b_tp --json): tok_s, speedup and
    predicted_speedup per (mode, tp) row. tok_s is wall-clock; speedup is
    a same-run ratio (runner speed cancels but core count does not — it
    measures the machine's real parallelism), the quantity the CI speedup
    floors (--min) gate; predicted_speedup is deterministic cost-model
    output and gates at the strict threshold.
  * lora_tp files (bench_lora_tp --json): identical schema to tp_scaling
    for the LoRA-active Engine sweep — every stream decodes on a
    Megatron-sharded adapter, so its per_rank floor gates the sharded
    SGMV path specifically.
  * attention files (bench_attention --json): per-shape speedup of the
    page-run split-KV decode kernel over the pre-rewrite serial kernel (a
    same-run ratio, gated by the --min floor at b1/kv4096), the row-tiled
    prefill kernel's speedup over the per-row kernel, plus wall-clock
    pos_per_s rows that CI excludes from the baseline compare.
"""

import argparse
import json
import os
import re
import shutil
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def google_benchmark_metrics(doc):
    """{benchmark name: (metric value, metric kind)} — higher is better.

    Runs made with --benchmark_repetitions yield several raw entries per
    run_name; the BEST repetition is compared. A shared CI runner can be
    transiently slow (noisy neighbours, throttling) but never transiently
    fast, so max-of-N measures the machine's capability — the quantity a
    code regression actually lowers — and is what lets a 15% gate hold on
    noisy runners. Median/mean aggregate rows are skipped in favour of the
    raw repetitions.
    """
    metrics = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        if b.get("error_occurred"):
            # SkipWithError rows: the quant sweeps skip SIMD levels the
            # host cannot run; an absent level is not a regression.
            continue
        name = b.get("run_name", b["name"])
        if "items_per_second" in b:
            value, kind = b["items_per_second"], "items/s"
        elif "bytes_per_second" in b:
            value, kind = b["bytes_per_second"], "bytes/s"
        elif b.get("real_time", 0) > 0:
            value, kind = 1.0 / b["real_time"], "1/time"
        else:
            continue
        if name not in metrics or value > metrics[name][0]:
            metrics[name] = (value, kind)
    return metrics


def simd_ratio_metrics(metrics):
    """Derived `<family>Simd/<level>_vs_scalar` throughput ratios.

    For every family whose rows are named `<family>Simd/simd:N` (one row per
    SimdLevel, single-threaded), each vector level's throughput over the
    scalar row's from the same run: runner speed cancels, the vector
    kernel's gain over the portable path remains.
    """
    names = {1: "avx2_vs_scalar", 2: "avx512_vs_scalar"}
    pat = re.compile(r"^(?P<family>[^/]+Simd)/simd:(?P<level>\d+)$")
    by_family = {}
    for key, (value, _kind) in metrics.items():
        m = pat.match(key)
        if m:
            by_family.setdefault(m.group("family"),
                                 {})[int(m.group("level"))] = value
    derived = {}
    for family, levels in by_family.items():
        scalar = levels.get(0)
        if not scalar:
            continue
        for level, label in names.items():
            if level in levels:
                derived[f"{family}/{label}"] = (levels[level] / scalar,
                                                "ratio")
    return derived


def fig11b_metrics(doc):
    """{row key: (value, kind)} for the shared-prefix bench artifact."""
    metrics = {}
    for row in doc.get("rows", []):
        pop = row.get("popularity", "?")
        for field in ("tok_s_on", "saved_fraction"):
            if field in row:
                metrics[f"{pop}/{field}"] = (row[field], field)
    return metrics


def serving_metrics(doc):
    """{row key: (value, kind)} for the open-loop serving sweep.

    Latencies invert so the comparison stays uniformly higher-is-better;
    zero-valued latencies (an idle queue) are skipped rather than divided.
    """
    metrics = {}
    for row in doc.get("rows", []):
        key = f"rps{row.get('offered_rps', '?'):g}"
        for field in ("goodput", "tok_s"):
            if field in row:
                metrics[f"{key}/{field}"] = (row[field], field)
        for field in ("ttft_p95_s", "queue_mean_s"):
            if row.get(field, 0) > 0:
                metrics[f"{key}/1/{field}"] = (1.0 / row[field], "1/s")
    return metrics


def tp_scaling_metrics(doc):
    """{row key: (value, kind)} for the measured tensor-parallel sweep."""
    metrics = {}
    for row in doc.get("rows", []):
        key = f"{row.get('mode', 'default')}/tp{row.get('tp', '?')}"
        for field in ("tok_s", "speedup", "predicted_speedup"):
            if field in row:
                metrics[f"{key}/{field}"] = (row[field], field)
    return metrics


def lora_tp_metrics(doc):
    """{row key: (value, kind)} for the measured LoRA-under-TP sweep.

    Same row schema as tp_scaling by construction (bench_lora_tp measures
    the identical Engine decode loop with every stream on a sharded
    adapter): tok_s is wall-clock, speedup a same-run ratio the CI floors
    gate — the per_rank tp=4 floor catches sharded-SGMV execution
    collapsing to a serial schedule while the backbone still scales — and
    predicted_speedup is deterministic cost-model output (roofline with
    the LoRA segment shape threaded through StepShape) gated strictly.
    """
    return tp_scaling_metrics(doc)


def attention_metrics(doc):
    """{row key: (value, kind)} for the decode-attention rewrite bench.

    speedup is a same-run ratio of the pre-rewrite serial kernel to the
    page-run split-KV kernel (runner speed cancels) — the quantity the CI
    floor gates. pos_per_s (decode and split-sweep rows) is wall-clock;
    CI excludes it from the baseline compare.
    """
    metrics = {}
    for row in doc.get("rows", []):
        kind = row.get("kind")
        if kind == "decode":
            key = f"decode/b{row.get('batch', '?')}/kv{row.get('kv_len', '?')}"
            for field in ("speedup", "pos_per_s"):
                if field in row:
                    metrics[f"{key}/{field}"] = (row[field], field)
        elif kind == "prefill":
            key = (f"prefill/c{row.get('chunk', '?')}"
                   f"/off{row.get('pos_offset', '?')}")
            for field in ("speedup", "pos_per_s"):
                if field in row:
                    metrics[f"{key}/{field}"] = (row[field], field)
        elif kind == "split":
            if "pos_per_s" in row:
                metrics[f"split/s{row.get('split', '?')}/pos_per_s"] = (
                    row["pos_per_s"], "pos_per_s")
    return metrics


def kernels_quant_metrics(doc):
    """Google metrics plus derived quant-vs-f16 throughput ratios.

    The quant sweeps run every (dtype, simd) pair of one shape under one
    family name, e.g. BM_QuantGemmDecodeShape/dtype:1/simd:2. For each
    family and SIMD level with both a dtype:0 (f16) and a quantized row,
    a 'q8_vs_f16' / 'q4_vs_f16' ratio metric is derived — the quantity
    the acceptance floors (--min) gate: the quantized speedup must come
    from bytes saved, measured against f16 on the same host and path.
    """
    metrics = google_benchmark_metrics(doc)
    metrics.update(simd_ratio_metrics(metrics))
    dtype_names = {1: "q8_vs_f16", 2: "q4_vs_f16"}
    pat = re.compile(r"^(?P<family>[^/]+)/dtype:(?P<dtype>\d+)(?P<rest>.*)$")
    groups = {}
    for key, (value, _kind) in metrics.items():
        m = pat.match(key)
        if m:
            groups.setdefault((m.group("family"), m.group("rest")),
                              {})[int(m.group("dtype"))] = value
    for (family, rest), by_dtype in groups.items():
        f16 = by_dtype.get(0)
        if not f16:
            continue
        for dtype, label in dtype_names.items():
            if dtype in by_dtype:
                metrics[f"{family}{rest}/{label}"] = (
                    by_dtype[dtype] / f16, "ratio")
    return metrics


def extract_metrics(doc, path=""):
    if "benchmarks" in doc:
        if "kernels_quant" in os.path.basename(path):
            return kernels_quant_metrics(doc)
        metrics = google_benchmark_metrics(doc)
        metrics.update(simd_ratio_metrics(metrics))
        return metrics
    if doc.get("bench") == "serving_open_loop":
        return serving_metrics(doc)
    if doc.get("bench") == "tp_scaling":
        return tp_scaling_metrics(doc)
    if doc.get("bench") == "lora_tp":
        return lora_tp_metrics(doc)
    if doc.get("bench") == "attention":
        return attention_metrics(doc)
    if "rows" in doc:
        return fig11b_metrics(doc)
    raise ValueError("unrecognized bench JSON format")


def compare(name, baseline, fresh, threshold, exclude):
    """Returns a list of failure strings; prints the per-metric report."""
    failures = []
    for key in sorted(baseline):
        if any(pat.search(key) for pat in exclude):
            continue
        base_val, kind = baseline[key]
        if key not in fresh:
            failures.append(f"{name}: '{key}' missing from fresh run")
            continue
        fresh_val, _ = fresh[key]
        if base_val <= 0:
            continue  # nothing to regress from (e.g. Distinct saves 0%)
        ratio = fresh_val / base_val
        status = "ok"
        if ratio < 1.0 - threshold:
            status = "REGRESSION"
            failures.append(
                f"{name}: '{key}' {kind} regressed to {ratio:.2%} of "
                f"baseline ({base_val:.4g} -> {fresh_val:.4g})")
        elif ratio > 1.0 + threshold:
            status = "improved"
        print(f"  {status:>10}  {ratio:7.2%}  {key}")
    for key in sorted(set(fresh) - set(baseline)):
        print(f"  {'new':>10}  {'':>7}  {key} (no baseline yet)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", nargs="+",
                        help="fresh bench artifacts to check")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("BENCH_REGRESSION_THRESHOLD", "0.15")),
        help="relative regression that fails the gate (default 0.15)")
    parser.add_argument("--update", action="store_true",
                        help="copy fresh artifacts over the baselines "
                             "instead of checking (ratchet the trajectory)")
    parser.add_argument(
        "--exclude", action="append", default=[],
        help="regex of metric keys to skip (repeatable). CI excludes the "
             "multi-thread scaling sweeps: how fast threads:4 runs depends "
             "on the runner's free cores, not on the code under test")
    parser.add_argument(
        "--min", action="append", default=[], metavar="PATTERN:VALUE",
        help="absolute floor (repeatable): every fresh metric whose key "
             "matches the regex must be >= VALUE, and at least one such "
             "metric must exist. Gates ratios that must hold on any host, "
             "e.g. the quant speedup floors q8_vs_f16 >= 1.7")
    args = parser.parse_args()
    exclude = [re.compile(p) for p in args.exclude]
    floors = []
    for spec in args.min:
        pattern, sep, value = spec.rpartition(":")
        if not sep:
            parser.error(f"--min needs PATTERN:VALUE, got '{spec}'")
        floors.append((re.compile(pattern), float(value)))

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for path in args.fresh:
            dest = os.path.join(args.baseline_dir, os.path.basename(path))
            shutil.copyfile(path, dest)
            print(f"updated {dest}")
        return 0

    all_failures = []
    union_fresh = {}
    for path in args.fresh:
        base_path = os.path.join(args.baseline_dir, os.path.basename(path))
        if not os.path.exists(base_path):
            all_failures.append(
                f"{path}: no committed baseline at {base_path} "
                f"(seed it with --update)")
            continue
        print(f"{path} vs {base_path} (threshold {args.threshold:.0%}):")
        try:
            baseline = extract_metrics(load(base_path), base_path)
            fresh = extract_metrics(load(path), path)
        except (ValueError, KeyError, json.JSONDecodeError) as e:
            all_failures.append(f"{path}: unreadable bench JSON: {e}")
            continue
        union_fresh.update(fresh)
        all_failures.extend(compare(os.path.basename(path), baseline,
                                    fresh, args.threshold, exclude))

    for pattern, floor in floors:
        matched = {k: v for k, (v, _) in union_fresh.items()
                   if pattern.search(k)}
        if not matched:
            all_failures.append(
                f"--min {pattern.pattern}: no fresh metric matches")
            continue
        for key, value in sorted(matched.items()):
            status = "ok" if value >= floor else "BELOW FLOOR"
            print(f"  {status:>11}  {value:8.3f} >= {floor:g}  {key}")
            if value < floor:
                all_failures.append(
                    f"--min: '{key}' = {value:.4g} below floor {floor:g}")

    if all_failures:
        print("\nbench-regression gate FAILED:", file=sys.stderr)
        for f in all_failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nbench-regression gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
