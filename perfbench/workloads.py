"""Seeded inputs, timed rounds and output checks for the three workloads.

Each workload turns the benchmark seed into dbar_fiber configuration texts;
the package sees nothing else.  A round is one fixed batch of public calls,
``solve_point`` for ``solve_grid`` and ``cli.main`` subcommands for the
other two, timed call by call.  After the timed part every output is
checked, and each check is one attempted operation:

* a call that raises, or exits with a code or ``overall_pass`` other than
  expected, fails;
* an output whose bytes differ from the same call in the first round
  fails (the byte-identical rerun promise);
* an oracle row (a value with a closed-form potential) whose true error
  exceeds its ``err_estimate`` fails (the central invariant).

All generated configs leave ``form.m`` unset in bundle runs: it overrides
``bundle.m``, and an m=2 bundle built from an m=1 form fails its gluing
check with exit 1.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from time import perf_counter, process_time

import dbar_fiber
import dbar_fiber.cli
from dbar_fiber.config import load_config, parse_config_text
from dbar_fiber.fields import BaseFiberPoint

# Acceptance-criteria quadrature (tests/test_acceptance.py SOLVE_SPEC).
ACCEPTANCE_SPEC = "quad.n_r = 24\nquad.n_theta = 64\nquad.tol_abs = 1e-8\nquad.tol_tail = 1e-4\n"

# solve_grid caps refinement at level 2.  At the default cap of 3 about
# one seed in two puts a single opm point on level 3, whose 4x larger
# arrays change peak RSS from 82 to 153 MB and the allocator's reuse of
# freed memory, which moved round time by 15% between seeds.  A point that
# would have refined further returns at level 2 with its larger level
# difference inside err_estimate.
SOLVE_GRID_SPEC = ACCEPTANCE_SPEC + "quad.max_refinements = 2\n"

# verify_bundle halves n_theta and caps refinement at level 2.  With the
# cap, a solve's level no longer jumps to 3 on some sampled points (a 4x
# cost step), so the batch cost does not depend on the seed, and one round
# of six subcommands (about 5 s) fits four to five times into a run.
VERIFY_BUNDLE_SPEC = (
    "quad.n_r = 24\nquad.n_theta = 32\nquad.tol_abs = 1e-8\nquad.tol_tail = 1e-4\n"
    "quad.max_refinements = 2\n"
)

# Correctness failures kept for the run record; the count is unbounded.
MAX_NOTES = 20


@dataclass
class Round:
    traced: bool
    wall_s: float
    cpu_s: float
    parts: dict
    latencies_s: list
    err_estimates: list = field(default_factory=list)  # every error estimate in the outputs
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    oracle: list = field(default_factory=list)
    total_s: float = 0.0  # wall time including the checks
    layers: dict = None  # per-layer metrics of a traced round

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < MAX_NOTES:
                self.notes.append(what)

    @property
    def true_err_max(self) -> float:
        return max((row["true_err"] for row in self.oracle), default=0.0)


def _offset_grid(rng: random.Random, n: int, half: float, jitter: float) -> str:
    """An n x n fiber grid over [-half, half]^2, shifted by a seeded offset."""
    ox, oy = rng.uniform(-jitter, jitter), rng.uniform(-jitter, jitter)
    return (
        f"grid.w_re = {ox - half!r}:{ox + half!r}:{n}\n"
        f"grid.w_im = {oy - half!r}:{oy + half!r}:{n}\n"
    )


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _point(row, prefix, n, k):
    z = [complex(float(row[f"{prefix}re_z{i}"]), float(row[f"{prefix}im_z{i}"])) for i in range(1, n + 1)]
    w = [complex(float(row[f"{prefix}re_w{i}"]), float(row[f"{prefix}im_w{i}"])) for i in range(1, k + 1)]
    return BaseFiberPoint(z, w)


# ---------------------------------------------------------------------------
# solve_grid


# (name, config body, grid side).  The opm and product grids, about 40 ms a
# point, are 64 of the 82 points, so the median latency falls inside that
# cost mode; gaussian (7-35 ms) and rational (3 ms) points fill the rest.
SOLVE_CASES = (
    ("gaussian", "form = gaussian_form\n", 3),
    ("rational", "form = rational_form\n", 3),
    ("opm_z0", "form = opm_metric_form\nform.m = 1\ngrid.z = 0.5\n", 4),
    ("opm_z1", "form = opm_metric_form\nform.m = 1\ngrid.z = 1.2-0.7j\n", 4),
    ("product_fill0", "form = product_form_k2\ngrid.w_fill = 0,0.5j\n", 4),
    ("product_fill1", "form = product_form_k2\ngrid.w_fill = 0,1+0.5j\n", 4),
)


@dataclass
class _Case:
    name: str
    form: object
    spec: object
    slot: int
    points: list


class SolveGrid:
    """``solve_point`` over seeded fiber grids with |w| up to about 2."""

    name = "solve_grid"

    def __init__(self, seed: int, run_dir: str):
        rng = random.Random(seed)
        self.cases = []
        self.configs = {}
        for name, body, side in SOLVE_CASES:
            text = SOLVE_GRID_SPEC + body + _offset_grid(rng, side, 1.75, 0.25)
            self.configs[name] = text
            cfg = parse_config_text(text, name)
            form = dbar_fiber.builtin_form(cfg.form_name, cfg.form_params())
            z = cfg.grid_z()
            points = [BaseFiberPoint(z, w) for w in cfg.grid_w_points(form.k)]
            self.cases.append(_Case(name, form, cfg.quadrature_spec(), cfg.grid_slot(), points))
        self.points = sum(len(c.points) for c in self.cases)
        self.reference = None
        self._traced_forms = None

    def warm_up(self) -> None:
        case = self.cases[1]
        dbar_fiber.solve_point(case.form, case.points[0], case.slot, case.spec)

    def run_round(self, tracer=None) -> Round:
        forms = [c.form for c in self.cases]
        if tracer is not None:
            if self._traced_forms is None:
                self._traced_forms = [tracer.wrap_form(f) for f in forms]
            forms = self._traced_forms
        results, latencies = [], []
        start, cpu = perf_counter(), process_time()
        for case, form in zip(self.cases, forms):
            for p in case.points:
                t0 = perf_counter()
                try:
                    res = dbar_fiber.solve_point(form, p, case.slot, case.spec)
                except Exception as exc:  # a failed operation, reported below
                    res = exc
                latencies.append(perf_counter() - t0)
                results.append(res)
        wall, cpu = perf_counter() - start, process_time() - cpu

        rnd = Round(tracer is not None, wall, cpu, {}, latencies)
        rows = []
        it = iter(results)
        for case, form in zip(self.cases, forms):
            for p in case.points:
                res = next(it)
                where = f"{case.name} w={p.w.tolist()}"
                if isinstance(res, Exception):
                    rnd.check(False, f"{where}: raised {res!r}")
                    rows.append(None)
                    continue
                true_err = abs(res.value - form.primitive_at(p))
                row = "|".join(float.hex(float(x)) for x in (
                    res.value.real, res.value.imag, res.err_estimate, res.richardson, res.tail, res.r_used))
                rows.append(row)
                ref = row if self.reference is None else self.reference[len(rows) - 1]
                rnd.check(
                    true_err <= res.err_estimate and row == ref,
                    f"{where}: true error {true_err:.3e}, err_estimate {res.err_estimate:.3e}, "
                    f"{'same output as' if row == ref else 'output differs from'} the first round",
                )
                rnd.err_estimates.append(res.err_estimate)
                rnd.oracle.append({
                    "case": case.name, "w": str(complex(p.w[case.slot - 1])), "true_err": true_err,
                    "err_estimate": res.err_estimate, "richardson": res.richardson,
                    "tail": res.tail, "r_used": res.r_used,
                })
        if self.reference is None:
            self.reference = rows
        return rnd


# ---------------------------------------------------------------------------
# CLI workloads


@dataclass
class _Step:
    name: str
    part: str
    command: str
    config: str
    expect_exit: int
    expect_pass: object = None  # overall_pass expected in the JSON report, if any
    form: object = None  # form whose potential checks the output rows
    cfg: object = None


class _CliWorkload:
    """Runs ``cli.main`` on generated configs; see the subclasses."""

    name = ""
    parts = ()

    def __init__(self, seed: int, run_dir: str):
        self.seed = seed
        self.cfg_dir = os.path.join(run_dir, "cfg")
        self.out_dir = os.path.join(run_dir, "o")
        os.makedirs(self.cfg_dir, exist_ok=True)
        self.steps = []
        self.reference = {}
        self.warm_cfg = self._write("warmup", ACCEPTANCE_SPEC + "form = rational_form\ngrid.w_re = 1:1:1\ngrid.w_im = 0:0:1\n")
        self.build(random.Random(seed))

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.cfg_dir, f"{name}.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def add(self, name, part, command, text, expect_exit=0, expect_pass=None, form_key=None):
        path = self._write(name, text)
        cfg = load_config(path)
        form = None
        if form_key == "form":
            form = dbar_fiber.builtin_form(cfg.form_name, cfg.form_params())
        elif form_key == "bundle":
            form = dbar_fiber.builtin_form(cfg.bundle_form_name(), {"m": cfg.bundle_m()})
        self.steps.append(_Step(name, part, command, path, expect_exit, expect_pass, form, cfg))

    def argv(self, command, config, out):
        return [command, "--config", config, "--out", out, "--seed", str(self.seed), "--quiet"]

    def warm_up(self) -> None:
        rc = dbar_fiber.cli.main(self.argv("solve", self.warm_cfg, os.path.join(self.out_dir, "warmup")))
        if rc != 0:
            raise RuntimeError(f"warm-up solve exited {rc}")

    def run_round(self, tracer=None) -> Round:
        outs = []
        for step in self.steps:
            out = os.path.join(self.out_dir, step.name)
            os.makedirs(out, exist_ok=True)
            for entry in os.listdir(out):
                os.remove(os.path.join(out, entry))
            outs.append(out)
        parts = {p: 0.0 for p in self.parts}
        codes, latencies = [], []
        start, cpu = perf_counter(), process_time()
        for step, out in zip(self.steps, outs):
            t0 = perf_counter()
            try:
                rc = dbar_fiber.cli.main(self.argv(step.command, step.config, out))
            except Exception as exc:  # a failed operation, reported below
                rc = exc
            dt = perf_counter() - t0
            latencies.append(dt)
            parts[step.part] += dt
            codes.append(rc)
        wall, cpu = perf_counter() - start, process_time() - cpu

        rnd = Round(tracer is not None, wall, cpu, parts, latencies)
        for step, out, rc in zip(self.steps, outs, codes):
            if isinstance(rc, Exception):
                rnd.check(False, f"{step.name}: raised {rc!r}")
                continue
            try:
                self.check_step(step, out, rc, rnd)
            except (OSError, LookupError, ValueError) as exc:
                rnd.check(False, f"{step.name}: exit {rc}, outputs unreadable: {exc!r}")
        return rnd

    def check_step(self, step, out, rc, rnd) -> None:
        files = [os.path.join(out, f) for f in os.listdir(out) if f.endswith((".csv", ".json"))]
        digest = _digest(files)
        ref = self.reference.setdefault(step.name, digest)
        ok = rc == step.expect_exit and digest == ref
        what = f"{step.name}: exit {rc} (expected {step.expect_exit})"
        if digest != ref:
            what += ", output differs from the first round"
        if step.expect_pass is not None:
            with open(next(f for f in files if f.endswith(".json"))) as fh:
                passed = json.load(fh)["overall_pass"]
            ok = ok and passed == step.expect_pass
            what += f", overall_pass {passed} (expected {step.expect_pass})"
        rnd.check(ok, what)
        self.check_rows(step, out, rnd)

    def check_rows(self, step, out, rnd) -> None:
        raise NotImplementedError


class VerifyBundle(_CliWorkload):
    """``verify`` on three forms, then ``bundle`` for m=1, m=2 and a
    perturbed m=1 bundle that must fail its gluing checks."""

    name = "verify_bundle"
    parts = ("verify_s", "bundle_s")

    def build(self, rng):
        def grid():
            # Three points on one horizontal line: verify checks up to five
            # grid samples and runs residual stencils on the first three.
            ox, y = rng.uniform(-0.25, 0.25), rng.uniform(0.25, 1.0)
            return f"grid.w_re = {ox - 1.5!r}:{ox + 1.5!r}:3\ngrid.w_im = {y!r}:{y!r}:1\n"

        spec = VERIFY_BUNDLE_SPEC
        self.add("verify_opm", "verify_s", "verify", spec + "form = opm_metric_form\ngrid.z = 0.5\n" + grid(), expect_pass=True)
        self.add("verify_product", "verify_s", "verify", spec + "form = product_form_k2\ngrid.w_fill = 0,0.5\n" + grid(), expect_pass=True)
        self.add("verify_gaussian_z", "verify_s", "verify",
                 spec + "form = gaussian_form\nform.z_profile = true\ngrid.z = 0.5\n" + grid(), expect_pass=True)
        for m in (1, 2):
            self.add(f"bundle_m{m}", "bundle_s", "bundle", spec + f"bundle.m = {m}\nbundle.samples = 8\n",
                     expect_pass=True, form_key="bundle")
        self.add("bundle_perturb", "bundle_s", "bundle", spec + "bundle.m = 1\nbundle.samples = 8\nbundle.perturb = 0.01\n",
                 expect_exit=1, expect_pass=False)

    def check_rows(self, step, out, rnd):
        if step.command != "bundle":
            return
        form = step.form
        for row in _read_csv(os.path.join(out, "overlap.csv")):
            err_sum = float(row["err_sum"])
            rnd.err_estimates.append(err_sum)
            if form is None:
                continue
            p = _point(row, "", form.n, form.k)
            q = _point(row, "mapped_", form.n, form.k)
            true_from = abs(complex(float(row["re_B_from"]), float(row["im_B_from"])) - form.primitive_at(p))
            true_to = abs(complex(float(row["re_B_to"]), float(row["im_B_to"])) - form.primitive_at(q))
            # Each side's true error is bounded by its own err_estimate, so
            # their sum is bounded by the two-sided err_sum.
            true_err = true_from + true_to
            rnd.check(true_err <= err_sum,
                      f"{step.name} w={p.w.tolist()}: true error {true_err:.3e} > err_sum {err_sum:.3e}")
            rnd.oracle.append({"case": step.name, "w": str(complex(p.w[0])), "true_err": true_err,
                               "err_estimate": err_sum, "richardson": "", "tail": "", "r_used": ""})


class BoundsProfile(_CliWorkload):
    """``bounds`` over 3 exponents x 3 frozen-slot norms, then ``profile``
    along the first fiber axis out to |w| = 64 for three forms."""

    name = "bounds_profile"
    parts = ("bounds_s", "profile_s")

    def build(self, rng):
        # The profile offsets stay fixed: a jittered offset can move the
        # capped radius of an eps=0.5 row by one doubling, which changes
        # that row's error estimate by up to 30% from seed to seed.
        spec = ACCEPTANCE_SPEC
        self.add("bounds", "bounds_s", "bounds",
                 spec + "bounds.epsilons = 0.5,1,2\nbounds.off_norms = 0,1,4\nbounds.xs = 0,4,16\n")
        for name, body in (
            ("profile_gaussian_z", "form = gaussian_form\nform.z_profile = true\ngrid.z = 0.5\n"),
            ("profile_opm", "form = opm_metric_form\ngrid.z = 0.5\n"),
            ("profile_rational", "form = rational_form\n"),
        ):
            # The ray stays on the first axis: the |w| = 64 row ends
            # unconverged, and its Richardson term changes up to 5x with
            # the ray's angle against the angular nodes.
            radii = ",".join(repr(r + rng.uniform(0.0, 0.5)) for r in (1.0, 4.0, 16.0)) + ",64"
            self.add(name, "profile_s", "profile", spec + body + f"grid.radii = {radii}\n", form_key="form")

    def check_rows(self, step, out, rnd):
        if step.command == "bounds":
            for row in _read_csv(os.path.join(out, "bounds.csv")):
                rnd.check(row["kernel_mass_pass"] == "true" and row["line_integral_pass"] == "true",
                          f"bounds eps={row['epsilon']}: a closed-form bound is exceeded")
            for row in _read_csv(os.path.join(out, "f_profile.csv")):
                value, err = float(row["f_value"]), float(row["err_estimate"])
                rnd.err_estimates.append(err)
                rnd.check(math.isfinite(value) and value > 0.0 and math.isfinite(err),
                          f"f_profile eps={row['epsilon']} x={row['x']}: value {value} err {err}")
            return
        cfg, form = step.cfg, step.form
        z, ray = cfg.grid_z(), cfg.grid_ray(form.k)
        for row in _read_csv(os.path.join(out, "decay_profile.csv")):
            radius, abs_b, err = float(row["radius"]), float(row["abs_B"]), float(row["err_estimate"])
            rnd.err_estimates.append(err)
            # | |B| - |potential| | is at most |B - potential|, so this bound
            # on the true error must also stay within err_estimate.
            true_err = abs(abs_b - abs(form.primitive_at(BaseFiberPoint(z, radius * ray))))
            envelope = float(row["envelope"])
            rnd.check(true_err <= err and abs_b <= envelope + err + 1e-9,
                      f"{step.name} r={radius}: true error {true_err:.3e}, err_estimate {err:.3e}, "
                      f"|B| {abs_b:.6g}, envelope {envelope:.6g}")
            rnd.oracle.append({"case": step.name, "w": str(radius), "true_err": true_err, "err_estimate": err,
                               "richardson": "", "tail": "", "r_used": ""})


WORKLOADS = {cls.name: cls for cls in (SolveGrid, VerifyBundle, BoundsProfile)}
