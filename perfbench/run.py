#!/usr/bin/env python3
"""Wall-clock multi-LoRA serving benchmark: build, run, check, report.

    python3 perfbench/run.py --workload lora-decode --seed 1 --seconds 35 --trace 0

Run from the repository root. Builds perfbench/ (which builds the `punica`
library from src/) into .bench_build/, then serves the workload's open-loop
schedule in a child process (`serving_bench serve`), checks every finished
stream against reference streams from a second child (`serving_bench
reference`), and prints the metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 serves the same schedule
once untraced and once traced (Chrome trace-event file under
.bench_build/perfbench-runs/), replays the traced run's step shapes through
the kernel entry points (`serving_bench replay`) and reports the per-layer
metrics. A child that aborts is not an error of the benchmark: every offered
request without a finished stream counts as failed.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "perfbench-runs"
BINARY = BUILD / "serving_bench"
CHILD_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds incrementally; returns False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "serving_bench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("build failed:", " ".join(cmd))
            return False
    return BINARY.exists()


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def ttfts(records):
    return [r["first_ms"] - r["due_ms"] for r in records]


def gaps(records):
    return [g for r in records for g in r["gaps_ms"]]


def serve(workload, seed, seconds, trace_path=None):
    """Runs one serving child; returns its parsed output. Survives aborts."""
    cmd = [str(BINARY), "serve", workload, str(seed), str(seconds)]
    if trace_path is not None:
        cmd.append(str(trace_path))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    out = {"setup": None, "summary": None, "records": [], "window_start": None}
    for line in proc.stdout:
        kind, _, rest = line.partition(" ")
        if kind == "P":
            out["setup"] = json.loads(rest)
        elif line == "W\n":
            out["window_start"] = time.monotonic()
        elif kind == "R":
            head, tokens, gap_ms = rest.split("|")
            rid, due, first = head.split()
            out["records"].append({
                "id": int(rid), "due_ms": float(due), "first_ms": float(first),
                "tokens": [int(t) for t in tokens.split()],
                "gaps_ms": [float(g) for g in gap_ms.split()]})
        elif kind == "S":
            out["summary"] = json.loads(rest)
    _, status, usage = os.wait4(proc.pid, 0)
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out["end"] = time.monotonic()
    out["returncode"] = proc.returncode
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        log(f"serving child exited with {proc.returncode} after "
            f"{len(out['records'])} finished requests")
    return out


def reference(workload, seed, seconds, ids, tag):
    """Reference streams for `ids`, from a separate child of the same build."""
    if not ids:
        return {}
    ids_path = RUNS / f"{tag}-ids.txt"
    ids_path.write_text(" ".join(str(i) for i in sorted(ids)) + "\n")
    r = subprocess.run([str(BINARY), "reference", workload, str(seed),
                        str(seconds), str(ids_path)],
                       stdout=subprocess.PIPE, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"reference child failed with {r.returncode}")
    streams = {}
    for line in r.stdout.splitlines():
        f = line.split()
        if f and f[0] == "F":
            streams[int(f[1])] = [int(t) for t in f[2:]]
    return streams


def end_to_end(run, ref, seconds):
    """End-to-end metrics of one serving child plus its failure counts."""
    setup = run["setup"]
    offered = setup["offered"]
    records = run["records"]
    ttft, itl = ttfts(records), gaps(records)
    ok = [r for r in records if r["tokens"] == ref.get(r["id"])]
    wrong = len(records) - len(ok)
    good = [r for r in ok
            if r["first_ms"] - r["due_ms"] <= setup["ttft_limit_ms"]
            and mean(r["gaps_ms"]) <= setup["itl_limit_ms"]]
    if run["summary"] is not None:
        window_s = run["summary"]["wall_s"]
    else:  # aborted: nothing is served after the abort, up to the last due time
        started = run["window_start"] or run["end"]
        window_s = max(run["end"] - started, seconds)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "ttft_p50_ms": (quantile(ttft, 0.50), "ms"),
        "ttft_p95_ms": (quantile(ttft, 0.95), "ms"),
        "itl_p50_ms": (quantile(itl, 0.50), "ms"),
        "itl_p99_ms": (quantile(itl, 0.99), "ms"),
        "tok_s": (sum(len(r["tokens"]) for r in ok) / window_s, "tok/s"),
        "goodput": (len(good) / offered, "fraction"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    info = {
        "offered": offered, "finished": len(records), "wrong_output": wrong,
        "aborted": run["returncode"] != 0,
        "fail_frac": (offered - len(ok)) / offered,
        "ttft_samples": len(ttft),
        "ttft_samples_beyond_p95": len(ttft) - int(0.95 * len(ttft)),
        "itl_samples": len(itl), "window_s": window_s, "setup": setup,
    }
    return metrics, offered - len(ok), wrong, info


# --- traced run: per-layer metrics -------------------------------------------

def load_trace(path):
    """Parses the streamed Chrome trace (one event per line)."""
    events = []
    with open(path) as f:
        for line in f:
            line = line.strip().rstrip(",")
            if line.startswith("{"):
                events.append(json.loads(line))
    return events


def coarse(n):
    """Exact below 4, then even, then multiples of 4 above 8."""
    return n if n < 4 else (n // 2) * 2 if n < 8 else (n // 4) * 4


def bucket(step):
    """Replay bucket of one Step span: shapes close enough to share a timing."""
    a = step["args"]
    new, pf_req, partial = int(a["new"]), int(a["pf_req"]), int(a["partial"])
    decode_rows = new - (pf_req - partial)
    kv = a["dec_kv"]
    kv_b = max(64, int(round(mean(kv) / 64.0)) * 64) if decode_rows else 0
    chunk = int(a["pf_tok"]) // pf_req if pf_req else 0
    chunk_b = 1 << max(4, (chunk - 1).bit_length()) if chunk else 0
    offset_b = int(round(int(a["hit"]) / max(pf_req, 1) / 64.0)) * 64
    return (coarse(decode_rows), kv_b, pf_req, chunk_b, offset_b,
            coarse(int(a["seg"])))


def replay(workload, steps, tag):
    """Times the kernel entry points at each bucketed step shape."""
    shapes = sorted({bucket(s) for s in steps})
    shapes_path = RUNS / f"{tag}-shapes.txt"
    shapes_path.write_text("".join(" ".join(str(x) for x in b) + "\n"
                                   for b in shapes))
    r = subprocess.run([str(BINARY), "replay", workload, str(shapes_path)],
                       stdout=subprocess.PIPE, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"replay child failed with {r.returncode}")
    timings = {}
    for line in r.stdout.splitlines():
        f = line.split()
        if not f or f[0] != "B":
            continue
        key = tuple(int(x) for x in f[1:7])
        (forward_us, layer_us, attn_decode_us, attn_prefill_us, sgmv_us,
         sgmv_bytes, dense_us, dense_flops, weight_bytes) = map(float, f[7:16])
        timings[key] = {
            "forward_us": forward_us, "layer_us": layer_us,
            "attn_decode_us": attn_decode_us,
            "attn_prefill_us": attn_prefill_us, "sgmv_us": sgmv_us,
            "sgmv_bytes": sgmv_bytes, "dense_us": dense_us,
            "dense_flops": dense_flops, "weight_bytes": weight_bytes}
    log(f"replayed {len(timings)} step shapes")
    return timings


def per_layer(workload, traced, untraced, trace_path, tag):
    events = load_trace(trace_path)
    spans = [e for e in events if e.get("ph") == "X"]
    counters = [e for e in events if e.get("ph") == "C"]
    steps = [e for e in spans if e["name"] == "Step"]
    wall_us = traced["summary"]["wall_s"] * 1e6 if traced["summary"] else (
        max((e["ts"] + e["dur"] for e in spans), default=1.0))

    # Serving layer.
    door_wait, seen = [], set()
    for e in spans:
        if e["name"] == "Admit":
            rid = int(e["args"]["req"])
            if rid not in seen and int(e["args"]["generated"]) == 0:
                seen.add(rid)
                door_wait.append(e["ts"] / 1e3 - e["args"]["due"] * 1e3)
    step_gaps, prev_end, work_seen = [], None, False
    for e in spans:
        if e["name"] == "HasAnyWork" and int(e["args"]["r"]) == 1:
            work_seen = True
        elif e["name"] == "Step":
            if prev_end is not None and work_seen:
                step_gaps.append(e["ts"] - prev_end)
            prev_end, work_seen = e["ts"] + e["dur"], False

    # Scheduler: routing affinity from the hits each backend reported for a
    # request since its previous placement.
    reported, affinity_n, affinity_hit = {}, 0, 0
    for e in spans:
        if e["name"] == "PrefixHitTokens":
            reported.setdefault(int(e["args"]["req"]), {})[e["tid"]] = int(
                e["args"]["hit"])
        elif e["name"] == "Admit":
            hits = reported.pop(int(e["args"]["req"]), {})
            if hits and max(hits.values()) > 0:
                affinity_n += 1
                affinity_hit += hits.get(e["tid"], -1) == max(hits.values())
    n_admit = sum(1 for e in spans if e["name"] == "Admit")
    n_can_admit = sum(1 for e in spans if e["name"] == "CanAdmit")

    # Runtime layer.
    def rows(e):
        a = e["args"]
        decode = int(a["new"]) - (int(a["pf_req"]) - int(a["partial"]))
        return decode, decode + int(a["pf_tok"])
    decode_steps = [e["dur"] / 1e3 for e in steps if int(e["args"]["pf_tok"]) == 0]
    mixed_steps = [e["dur"] / 1e3 for e in steps if int(e["args"]["pf_tok"]) > 0]
    admit_us = [e["dur"] for e in spans if e["name"] == "Admit"]
    victim_us = [e["dur"] for e in spans if e["name"] == "SelectEvictionVictims"]

    # KV cache: gauges after each step; counters since serving began.
    first_counter, last_counter, page_use, shared = {}, {}, [], []
    for c in counters:
        a = c["args"]
        first_counter.setdefault(c["tid"], a)
        last_counter[c["tid"]] = a
        if c["ts"] > 0:
            page_use.append((a["pages"] - a["free"]) / a["pages"])
            shared.append(a["shared"])
    delta = {k: sum(last_counter[t][k] - first_counter[t][k]
                    for t in last_counter)
             for k in ("hit_tokens", "prefill_tokens", "evictions")}
    hit_total = delta["hit_tokens"] + delta["prefill_tokens"]

    # Kernel replay, weighted by how many steps had each shape.
    timings = replay(workload, steps, tag)
    per_step = [timings[bucket(e)] for e in steps]
    n = max(len(steps), 1)

    def per_step_mean(key):
        return sum(t[key] for t in per_step) / n

    dense_us_total = sum(t["dense_us"] for t in per_step)
    self_ms = [e["dur"] / 1e3 - t["forward_us"] / 1e3
               for e, t in zip(steps, per_step)]

    def loop_counter(key):
        """A ServingLoop counter at the end of the run (or at the abort)."""
        if traced["summary"] is not None:
            return traced["summary"][key]
        return max((a[key] for a in last_counter.values()), default=0)

    u_ttft, t_ttft = ttfts(untraced["records"]), ttfts(traced["records"])
    u_gaps, t_gaps = gaps(untraced["records"]), gaps(traced["records"])
    loop_ttft_p50 = (untraced["summary"] or {}).get("loop_ttft_p50_ms", 0.0)
    gen_lag_p99 = (traced["summary"] or {}).get("gen_lag_p99_ms", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "serving.gen_lag_p99_ms": (gen_lag_p99, "ms"),
        "serving.door_wait_p95_ms": (quantile(door_wait, 0.95), "ms"),
        "serving.step_gap_p50_us": (quantile(step_gaps, 0.50), "us"),
        "serving.self_frac": (1.0 - sum(e["dur"] for e in spans) / wall_us,
                              "fraction"),
        "serving.shed": (loop_counter("shed"), "count"),
        "serving.ttft_stamp_skew_ms": (quantile(u_ttft, 0.5) - loop_ttft_p50,
                                       "ms"),
        "sched.affinity_frac": (ratio(affinity_hit, affinity_n), "fraction"),
        "sched.migrations": (loop_counter("migrations"), "count"),
        "sched.can_admit_per_admit": (ratio(n_can_admit, n_admit), "ratio"),
        "runtime.decode_step_ms_p50": (quantile(decode_steps, 0.5), "ms"),
        "runtime.mixed_step_ms_p50": (quantile(mixed_steps, 0.5), "ms"),
        "runtime.mixed_step_ms_p95": (quantile(mixed_steps, 0.95), "ms"),
        "runtime.busy_frac": (sum(e["dur"] for e in steps) / wall_us,
                              "fraction"),
        "runtime.rows_per_step_mean": (mean([rows(e)[1] for e in steps]),
                                       "rows"),
        "runtime.decode_rows_mean": (mean([rows(e)[0] for e in steps]),
                                     "rows"),
        "runtime.prefill_tokens": (sum(int(e["args"]["pf_tok"]) for e in steps),
                                   "tokens"),
        "runtime.admit_us_p95": (quantile(admit_us, 0.95), "us"),
        "runtime.victim_query_us_p95": (quantile(victim_us, 0.95), "us"),
        "runtime.step_self_ms_p50": (quantile(self_ms, 0.5), "ms"),
        "kvcache.prefix_token_save": (ratio(delta["hit_tokens"], hit_total),
                                      "fraction"),
        "kvcache.prefix_evictions": (delta["evictions"], "count"),
        "kvcache.page_use_p95": (quantile(page_use, 0.95), "fraction"),
        "kvcache.shared_pages_mean": (mean(shared), "pages"),
        "core.segments_per_step_mean": (
            mean([int(e["args"]["seg"]) for e in steps]), "segments"),
        "core.sgmv_us_per_step": (per_step_mean("sgmv_us"), "us"),
        "core.sgmv_bytes_per_step": (per_step_mean("sgmv_bytes"), "B"),
        "model.forward_ms_per_step": (per_step_mean("forward_us") / 1e3, "ms"),
        "model.layer_us_per_step": (per_step_mean("layer_us"), "us"),
        "model.attn_decode_us_per_step": (per_step_mean("attn_decode_us"),
                                          "us"),
        "model.attn_prefill_us_per_step": (per_step_mean("attn_prefill_us"),
                                           "us"),
        "tensor.dense_us_per_step": (per_step_mean("dense_us"), "us"),
        "tensor.dense_gflops": (
            ratio(sum(t["dense_flops"] for t in per_step), dense_us_total)
            / 1e3, "GFLOP/s"),
        "tensor.weight_bytes_per_step": (per_step_mean("weight_bytes"), "B"),
        "trace.ttft_p50_ratio": (ratio(quantile(t_ttft, 0.5),
                                       quantile(u_ttft, 0.5)), "ratio"),
        "trace.itl_p50_ratio": (ratio(quantile(t_gaps, 0.5),
                                      quantile(u_gaps, 0.5)), "ratio"),
    }
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    RUNS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    run = serve(args.workload, args.seed, args.seconds)
    if run["setup"] is None:
        log("serving child produced no set-up line")
        return 1
    runs = [run]
    traced = trace_path = None
    if args.trace:
        trace_path = RUNS / f"{tag}-trace.json"
        traced = serve(args.workload, args.seed, args.seconds, trace_path)
        if traced["setup"] is None:
            log("traced serving child produced no set-up line")
            return 1
        runs.append(traced)
    ids = {r["id"] for x in runs for r in x["records"]}
    ref = reference(args.workload, args.seed, args.seconds, ids, tag)

    metrics, failed, wrong, info = end_to_end(run, ref, args.seconds)
    attempted = info["offered"]
    if traced is not None:
        _, t_failed, t_wrong, t_info = end_to_end(traced, ref, args.seconds)
        wrong += t_wrong
        attempted += t_info["offered"]
        failed += t_failed
        metrics = per_layer(args.workload, traced, run, trace_path, tag)
        log(f"trace written to {trace_path}")

    print(f"workload {args.workload} seed {args.seed}: offered "
          f"{info['offered']}, finished {info['finished']}, wrong output "
          f"{info['wrong_output']}, aborted {info['aborted']}, fail_frac "
          f"{info['fail_frac']:.4f}, TTFT samples {info['ttft_samples']} "
          f"({info['ttft_samples_beyond_p95']} beyond p95), ITL samples "
          f"{info['itl_samples']}, window {info['window_s']:.3f} s, simd "
          f"{info['setup']['simd']}, threads {info['setup']['pool_threads']}"
          f"+{info['setup']['generator_threads']} of "
          f"{info['setup']['nproc']}")
    # The JSON line carries the metrics BENCHMARK.json lists; the others are
    # printed for reading only.
    listed = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if args.trace else "end_to_end"]}
    for name, (value, unit) in metrics.items():
        note = "" if name in listed else "  (not in BENCHMARK.json)"
        print(f"  {name:34s} {value:14.4f} {unit}{note}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items() if k in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
