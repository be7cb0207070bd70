#!/usr/bin/env python3
"""The repo benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload churn-drip --seed 1 --seconds 30 --trace 0

Run from the repository root. It builds the library and the two
benchmark programs from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), writes the workload's inputs from the seed, runs the
measured program, checks it reported no failed op, and prints every
metric by name and unit. The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and prints a per-layer self-time table from the span file). The full
result, with provenance and sample counts, goes to
<build>/perfbench/results/. README.md in this directory explains it all.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("static-decompose", "churn-drip", "churn-burst")
# The tail is the highest percentile with at least this many samples
# beyond it.
TAIL_BEYOND = 10
# An untraced run is split over this many processes, one after another,
# each measuring seconds / PROCESSES on its own trace or slice of graphs,
# and their samples are pooled: the same work timed in two processes
# differs by up to 10%, and pooling averages that out.
PROCESSES = 8


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples). With n sorted samples the value
    is the (TAIL_BEYOND + 1)-th largest, so TAIL_BEYOND samples lie
    beyond it; its percentile is 100 * (n - TAIL_BEYOND) / n. Fewer than
    TAIL_BEYOND + 1 samples cannot meet the rule: the value is None.
    """
    n = len(values)
    if n < TAIL_BEYOND + 1:
        return None, None, n
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median(values):
    return statistics.median(values) if values else None


def mean(values):
    return statistics.fmean(values) if values else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build; a no-op build is a few make calls."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def generate(bin_dir, workload, seed, graph_seed, traces):
    data = os.path.join(build_dir(), "perfbench", "data",
                        f"{workload}-{seed}-g{graph_seed}")
    os.makedirs(data, exist_ok=True)
    subprocess.run([os.path.join(bin_dir, "perfbench_gen"), "--workload", workload,
                    "--seed", str(seed), "--graph-seed", str(graph_seed),
                    "--traces", str(traces), "--out", data], check=True)
    return data


def cache_value(bin_dir, key):
    with open(os.path.join(bin_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return None


def source_digest():
    """Hash of the library sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def provenance(bin_dir, args, raw):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    compiler = cache_value(bin_dir, "CMAKE_CXX_COMPILER") or "c++"
    try:
        version = subprocess.run([compiler, "--version"], text=True,
                                 capture_output=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "git_sha": sha,
        "source_digest": source_digest(),
        "build_type": cache_value(bin_dir, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "kcore_obs": cache_value(bin_dir, "KCORE_OBS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "graph_seed": args.graph_seed or "default (1)",
        "seconds": args.seconds,
        "loop_s": raw["loop_s"],
        "trace_exhausted": raw["exhausted"],
    }


def pool(total, part):
    """Pool one process's raw result into the run's."""
    if total is None:
        return part
    for key, values in part["samples"].items():
        total["samples"][key].extend(values)
    for key in ("attempted", "failed", "updates", "loop_s"):
        total[key] += part[key]
    total["exhausted"] = total["exhausted"] or part["exhausted"]
    total["peak_rss_mb"] = max(total["peak_rss_mb"], part["peak_rss_mb"])
    total["errors"].extend(part["errors"])
    return total


def tail_or_max(values):
    """The tail by the rule; with too few samples, the maximum, flagged."""
    value, pct, n = tail(values)
    if value is None and values:
        return max(values), {"samples": n, "tail_percentile": 100.0,
                             "tail_rule_met": False}
    return value, {"samples": n, "tail_percentile": pct, "tail_rule_met": True}


def per(work, total):
    return work / total if total > 0 else None


def end_to_end(raw, workload):
    """The end-to-end metrics; the per-layer ones that come from the same
    samples (the reader's, and the wall-clock times behind the refs); the
    sample counts.

    An op's time in refs is its wall time over the mean of the reference
    kernel's runs right before and after it (run.cpp, RefKernel).
    """
    s = raw["samples"]
    ref_tail, ref_info = tail_or_max(s["op_refs"])
    ms_tail, _ = tail_or_max(s["op_ms"])
    read_tail, read_info = tail_or_max(s["read_us"])
    work = raw["updates"] if workload != "static-decompose" else len(s["op_ms"])
    metrics = {
        "latency_ref_p50": median(s["op_refs"]),
        "latency_ref_tail": ref_tail,
        "throughput_per_ref": per(work, sum(s["op_refs"])),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": median(s["setup_s"]),
        # A mean: each run restarts a fixed, uneven set (16 static graphs,
        # 8 WAL tails), and a median of uneven values jumps between them.
        "recover_ref": mean(s["recover_refs"]),
    }
    layer = {
        "wall.latency_ms_p50": median(s["op_ms"]),
        "wall.latency_ms_tail": ms_tail,
        "wall.throughput_per_s": per(work, raw["loop_s"]),
        "wall.recover_ms": mean(s["recover_ms"]),
        "host.ref_ms": median(s["ref_ms"]),
        "reader.read_us_p50": median(s["read_us"]),
        "reader.read_us_tail": read_tail,
    }
    samples = {
        "latency": ref_info,
        "read_us": read_info,
        "setup_s": {"samples": len(s["setup_s"]), "statistic": "median"},
        "recover": {"samples": len(s["recover_refs"]), "statistic": "mean"},
    }
    return metrics, layer, samples


def self_time_table(trace_path):
    """Per span name: count, total and self time (minus child spans)."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    child_ms = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child_ms[parent] = child_ms.get(parent, 0.0) + e["dur"] / 1000.0
    rows = {}
    for e in events:
        total = e["dur"] / 1000.0
        own = total - child_ms.get(e["args"]["id"], 0.0)
        row = rows.setdefault(e["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += total
        row[2] += own
    return rows


def print_self_times(rows):
    roots = sum(r[2] for r in rows.values())
    print(f"{'span':40s} {'count':>8s} {'total_ms':>12s} {'self_ms':>12s} {'self%':>7s}")
    for name, (count, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        share = 100.0 * own / roots if roots > 0 else 0.0
        print(f"{name:40s} {count:8d} {total:12.3f} {own:12.3f} {share:7.2f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--graph-seed", type=int, default=0,
                   help="build the graphs from this seed, not the fixed "
                        "one (held-out checks; 0 = the fixed seed, 1)")
    p.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                   help="bump one oracle entry: every check must then fail")
    args = p.parse_args()

    spec = load_spec()
    bin_dir = build()
    started = time.monotonic()
    parts = 1 if args.trace else PROCESSES
    data = generate(bin_dir, args.workload, args.seed, args.graph_seed, parts)
    out_dir = os.path.join(build_dir(), "perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-g{args.graph_seed}-trace{args.trace}"
    trace_path = os.path.join(out_dir, stem + ".trace.json")
    raw = None
    for part in range(parts):
        cmd = [os.path.join(bin_dir, "perfbench_run"), "--workload", args.workload,
               "--input", data, "--seconds", repr(args.seconds / parts),
               "--trace", str(args.trace), "--trace-out", trace_path,
               "--part", str(part), "--parts", str(parts),
               "--corrupt", str(args.corrupt)]
        proc = subprocess.run(cmd, text=True, capture_output=True)
        if proc.returncode != 0:
            log(proc.stderr)
            raise SystemExit(f"perfbench_run failed with code {proc.returncode}")
        raw = pool(raw, json.loads(proc.stdout.strip().splitlines()[-1]))

    e2e, sampled, samples = end_to_end(raw, args.workload)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        layer = {**raw["layer"], **sampled}
        values = {n: layer.get(n, 0.0) for n in names}
        rows = self_time_table(trace_path)
        print_self_times(rows)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = e2e
    missing = [n for n in names if values.get(n) is None]
    correct = raw["failed"] == 0 and not raw["errors"] and not missing
    for err in raw["errors"]:
        log(f"check failed: {err}")
    for n in missing:
        log(f"metric {n}: no samples")

    prov = provenance(bin_dir, args, raw)
    prov["wall_s"] = time.monotonic() - started
    full = {"provenance": prov, "samples": samples, "end_to_end": e2e,
            "layer": {**raw["layer"], **sampled}, "errors": raw["errors"],
            "correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"]}
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(full, f, indent=1)

    print("provenance " + json.dumps(prov))
    print("samples " + json.dumps(samples))
    for n in names:
        v = values.get(n)
        print(f"{n:32s} {'-' if v is None else repr(v):>24s} {units[n]}")
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": values.get(n) if values.get(n) is not None else 0.0,
                        "unit": units[n]} for n in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (OSError, subprocess.CalledProcessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
