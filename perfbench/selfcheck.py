"""Self-check of the benchmark's inputs: every generated config exits with
its expected code.

    python3 perfbench/selfcheck.py --seeds 0,1,2

For each seed it writes the configs of all three workloads, runs each once
through ``dbar_fiber.cli.main`` (the solve_grid configs through ``solve``)
and compares the exit code with the one the workload expects.  It also runs
the ``form.m`` trap: a bundle config that sets ``form.m = 1`` next to
``bundle.m = 2`` builds an m=1 form on the m=2 bundle, because ``form.m``
overrides ``bundle.m``, and fails its gluing check with exit 1.  The
workloads therefore never set ``form.m`` in bundle configs.  Exits 0 when
every code matches.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import dbar_fiber.cli  # noqa: E402
from workloads import VERIFY_BUNDLE_SPEC, WORKLOADS  # noqa: E402

TRAP = VERIFY_BUNDLE_SPEC + "form.m = 1\nbundle.m = 2\nbundle.samples = 8\n"


def cases(seed, run_dir):
    """(name, command, config path, expected exit code) for one seed."""
    for name, cls in WORKLOADS.items():
        wl = cls(seed, os.path.join(run_dir, name))
        if hasattr(wl, "steps"):
            for step in wl.steps:
                yield f"{name}/{step.name}", step.command, step.config, step.expect_exit
            continue
        for case, text in wl.configs.items():
            path = os.path.join(run_dir, name, f"{case}.cfg")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
            yield f"{name}/{case}", "solve", path, 0
    trap = os.path.join(run_dir, "trap_form_m.cfg")
    with open(trap, "w") as fh:
        fh.write(TRAP)
    yield "trap: form.m = 1 with bundle.m = 2", "bundle", trap, 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="check the exit code of every generated config")
    parser.add_argument("--seeds", default="0,1,2", help="comma separated benchmark seeds")
    args = parser.parse_args(argv)
    mismatches = 0
    for seed in (int(s) for s in args.seeds.split(",")):
        run_dir = os.path.join(HERE, "out", f"selfcheck-seed{seed}")
        shutil.rmtree(run_dir, ignore_errors=True)
        for name, command, config, expected in cases(seed, run_dir):
            out = os.path.join(run_dir, "o", name.replace("/", "-").replace(" ", "_"))
            rc = dbar_fiber.cli.main([command, "--config", config, "--out", out, "--seed", str(seed), "--quiet"])
            ok = rc == expected
            mismatches += not ok
            print(f"seed {seed}  {name:44s} {command:8s} exit {rc} (expected {expected}) {'ok' if ok else 'MISMATCH'}",
                  flush=True)
    print(f"{mismatches} mismatches")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
