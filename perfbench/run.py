"""dbar-fiber benchmark.

    python3 perfbench/run.py --workload solve_grid --seed 1 --seconds 30 --trace 0

Workloads: ``solve_grid``, ``verify_bundle``, ``bounds_profile``, or
``all`` to run the three in turn.  The load is a closed loop: one caller in
one process, BLAS limited to one thread.  Each run starts fresh worker
processes (see worker.py): eight set-up samples, then one process that
sets up once more and measures.  A summary with every metric, its unit and its
sample count goes to standard output; the last line is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer metrics
with ``--trace 1``.  The run record (machine, versions, every round) and
the round-0 oracle table are written under ``perfbench/out/``.  Exits 2
without a result when the package source is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_grid", "verify_bundle", "bounds_profile")
SETUP_SAMPLES = 8
BUDGET_S = 170.0  # every run of one workload ends within this
# Worker environment.  One BLAS thread keeps the load a single caller.
# The two memory settings fix policies that otherwise depend on the order
# of earlier allocations: glibc's adaptive mmap threshold decides whether a
# freed array of a few MB is reused or faulted in again from the kernel,
# and numpy's huge-page advice makes the share of an array on huge pages
# depend on its alignment.  With them the same work ran 15% faster or
# slower depending on the seed's allocation sizes.  Arrays under 32 MiB
# now come from the heap and are reused; larger ones are mapped and
# faulted in on every allocation.
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}

# End-to-end metrics and their units, in the order BENCHMARK.json lists them.
END_TO_END = (("setup_s", "s"), ("round_s", "s"), ("peak_rss_mb", "MB"), ("err_estimate_p90", "1"))
UNITS = {"_s": "s", "ratio": "ratio", "bytes_computed": "B", "bytes_written": "B", "true_err_max": "1"}


class WorkerError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_worker(mode, workload, args, run_dir, deadline):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode, "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--run-dir", run_dir,
    ]
    env = dict(os.environ, **RUN_ENV)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} {mode} worker ran past the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} {mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def getconf(name):
    try:
        out = subprocess.run(["getconf", name], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=5).stdout.strip()
        return int(out) if out else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def git_sha():
    """HEAD commit read from .git in the checkout; None outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "dbar_fiber")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run_workload(workload, args):
    deadline = time.monotonic() + BUDGET_S
    run_dir = os.path.join(HERE, "out", f"{workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setups = [run_worker("setup", workload, args, run_dir, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    data = run_worker("measure", workload, args, run_dir, deadline)
    setups.append(data["setup_s"])
    plain = [r for r in data["rounds"] if not r["traced"] and not r["warm_up"]]
    round_s = statistics.median(r["wall_s"] for r in plain)
    e2e = {
        "setup_s": statistics.median(setups),
        "round_s": round_s,
        "peak_rss_mb": data["peak_rss_mb"],
        "err_estimate_p90": quantile(data["err_estimates"], 90),
    }
    lat = data["latencies_s"]
    detail = {
        "setup_samples": len(setups),
        "round_cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "rounds": len(plain),
        "calls_per_round": len(lat) // len(plain),
        "parts_s": {p: statistics.median(r["parts"][p] for r in plain) for p in plain[0]["parts"]},
        "err_estimate_max": max(data["err_estimates"]),
        "err_estimate_rows": len(data["err_estimates"]),
    }
    if data["points"]:
        detail.update(
            points_per_s=data["points"] / round_s,
            solve_ms_p50=1e3 * statistics.median(lat),
            solve_ms_p90=1e3 * quantile(lat, 90),
            solve_samples=len(lat),
        )
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": data["python"],
        "numpy": data["numpy"],
        "environment": RUN_ENV,
        "setup_s_samples": setups,
        "end_to_end": e2e,
        "detail": detail,
        "worker": {k: v for k, v in data.items() if k not in ("latencies_s", "err_estimates")},
    }
    with open(os.path.join(run_dir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    return record


def print_summary(rec):
    d, e, w = rec["detail"], rec["end_to_end"], rec["worker"]
    print(f"== {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']}  trace={rec['trace']}  "
          f"nproc={rec['nproc']}  blas_threads={rec['environment']['OPENBLAS_NUM_THREADS']}  closed loop, one caller")
    rows = [
        ("setup_s", e["setup_s"], "s", f"median of {d['setup_samples']} set-ups, one process each"),
        ("round_s", e["round_s"], "s", f"median of {d['rounds']} rounds of {d['calls_per_round']} calls, after a warm-up round"),
        ("round_cpu_s", d["round_cpu_s"], "s", "CPU time (user + system) of the same rounds, median"),
    ]
    if "points_per_s" in d:
        rows += [
            ("points_per_s", d["points_per_s"], "1/s", "solve_point calls per second of round wall time"),
            ("solve_ms_p50", d["solve_ms_p50"], "ms", f"{d['solve_samples']} solve_point calls"),
            ("solve_ms_p90", d["solve_ms_p90"], "ms", f"{d['solve_samples']} solve_point calls"),
        ]
    for part, value in d["parts_s"].items():
        rows.append((part, value, "s", f"median of {d['rounds']} rounds"))
    rows += [
        ("peak_rss_mb", e["peak_rss_mb"], "MB", "measuring process"),
        ("err_estimate_p90", e["err_estimate_p90"], "1", f"90th percentile of {d['err_estimate_rows']} output error estimates"),
        ("err_estimate_max", d["err_estimate_max"], "1", f"largest of {d['err_estimate_rows']} output error estimates"),
        ("fail_ratio", w["failed"] / w["attempted"], "ratio", f"{w['failed']} of {w['attempted']} operations failed"),
    ]
    if rec["trace"]:
        rows += [(k, v, layer_unit(k), "traced rounds, median") for k, v in w["layers"].items()]
        rows += [
            ("trace.overhead", w["trace_overhead"], "ratio", "traced / untraced round wall time"),
            ("trace.closure_gap_s", w["closure_gap_s"], "s", "|sum of self times - traced wall time|"),
        ]
    for name, value, unit, note in rows:
        print(f"  {name:24s} {value:<14.6g} {unit:6s} {note}")
    for note in w["notes"]:
        print(f"  FAILED: {note}")


def result_line(records):
    """The last stdout line; ``--workload all`` prefixes names with the workload."""
    metrics = {}
    for rec in records:
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        if rec["trace"]:
            items = [(k, v, layer_unit(k)) for k, v in rec["worker"]["layers"].items()]
        else:
            items = [(k, rec["end_to_end"][k], unit) for k, unit in END_TO_END]
        for name, value, unit in items:
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["worker"]["attempted"] for r in records)
    failed = sum(r["worker"]["failed"] for r in records)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dbar-fiber benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "dbar_fiber", "__init__.py")):
        print(f"benchmark: no package source at {os.path.join(ROOT, 'src', 'dbar_fiber')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args))
            print_summary(records[-1])
    except (WorkerError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
