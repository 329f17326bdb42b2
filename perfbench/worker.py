"""One benchmark process: a set-up, optionally followed by a measurement.

run.py starts this in a fresh interpreter for every set-up sample and for
the measurement, so set-up time and peak RSS belong to one process.  The
last line of standard output is one JSON object.

Set-up is timed from before ``import dbar_fiber`` to the end of one
warm-up call: import, config generation and parsing, form construction.
The measurement runs one untimed warm-up round, then identical timed
rounds of the workload until the next round would end after
``--seconds``, and at least two.  With ``--trace 1`` the timed rounds
alternate untraced and traced, so the traced rounds give the per-layer
metrics and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def measure(workload, seconds: float, tracer):
    """Round 0 warms caches and the allocator and is the reference for the
    byte-identity checks; its time is not used.  The timed rounds follow."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(rounds) % 2 == 0 and rounds:
            tracer.install()
            root = tracer.begin_round()
            try:
                rnd = workload.run_round(tracer)
            finally:
                tracer.end_round(root)
                tracer.uninstall()
            rnd.layers = tracer.round_metrics(root)
        else:
            rnd = workload.run_round()
        rnd.total_s = time.perf_counter() - t0
        rounds.append(rnd)
        timed = rounds[1:]
        elapsed = time.perf_counter() - start
        if len(timed) >= 2 and elapsed + statistics.median(r.total_s for r in timed) > seconds:
            return rounds


def write_oracle(path, rows):
    keys = ("case", "w", "true_err", "err_estimate", "richardson", "tail", "r_used")
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(row[k])) if isinstance(row[k], float) else str(row[k]) for k in keys) + "\n")


def write_spans(path, spans):
    origin = spans[0][2] if spans else 0.0
    with open(path, "w") as fh:
        for layer, label, t0, t1, parent in spans:
            fh.write(json.dumps([layer, label, t0 - origin, t1 - origin, parent]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.run_dir, exist_ok=True)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import dbar_fiber

    if os.path.dirname(os.path.abspath(dbar_fiber.__file__)) != os.path.join(SRC, "dbar_fiber"):
        print(f"dbar_fiber imported from {dbar_fiber.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.run_dir)
    workload.warm_up()
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy

    plain = [r for r in rounds[1:] if not r.traced]
    traced = [r for r in rounds if r.traced]
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "points": getattr(workload, "points", None),
        "rounds": [
            {"warm_up": i == 0, "traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "total_s": r.total_s,
             "parts": r.parts}
            for i, r in enumerate(rounds)
        ],
        "latencies_s": [t for r in plain for t in r.latencies_s],
        "err_estimates": rounds[0].err_estimates,
        "true_err_max": max(r.true_err_max for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "notes": [n for r in rounds for n in r.notes][:20],
    }
    write_oracle(os.path.join(args.run_dir, "oracle.csv"), rounds[0].oracle)
    if tracer is not None:
        layers = {}
        for key in traced[0].layers:
            layers[key] = statistics.median(r.layers[key] for r in traced)
        layers["cauchy.true_err_max"] = statistics.median(r.true_err_max for r in traced)
        out["layers"] = layers
        out["closure_gap_s"] = max(
            abs(sum(v for k, v in r.layers.items() if k.endswith(".self_s")) - r.layers["trace.wall_s"])
            for r in traced
        )
        out["trace_overhead"] = statistics.median(r.wall_s for r in traced) / statistics.median(
            r.wall_s for r in plain
        )
        write_spans(os.path.join(args.run_dir, "spans.jsonl"), tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
