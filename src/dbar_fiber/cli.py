"""Configuration-driven command line front end.

Subcommands map to the workflows: ``solve`` writes a solution grid,
``verify`` runs the identity/decay checks and reports pass or fail,
``bounds`` tabulates the kernel and profile integrals against their
closed-form bounds, ``profile`` samples the solution decay along a fiber
ray, and ``bundle`` runs the two-chart gluing checks.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure, out of memory included.  Output is deterministic:
rerunning a command on the same config and seed reproduces every output
file byte for byte (report timestamps are therefore omitted unless
``--timestamp`` is given).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import os
import platform
import sys

import numpy as np

from . import __version__
from .bundle import (
    chart_consistency,
    global_solve_report,
    make_opm_bundle,
    perturb_form,
)
from .cauchy import f_profile, g_bound_check, kernel_mass_bound
from .config import RunConfig, load_config
from .errors import ConfigError, DbarFiberError
from .fields import (
    FIBER,
    BaseFiberPoint,
    builtin_form,
    compatibility_residual,
    decay_check,
    fiber_decay_denominator,
)
from .report import VerificationReport, write_csv
from .solver import bm_reconstruct, decay_profile, delta_consistency, oracle_excess, residual, solve_point

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _metadata(cfg: RunConfig, args) -> dict:
    stamp = None
    if args.timestamp:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return {
        "config": cfg.echo(),
        "config_path": os.path.basename(cfg.path) if cfg.path else "",
        "seed": args.seed,
        "timestamp": stamp,
        "versions": {
            "dbar-fiber": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _out_path(args, name: str) -> str:
    """The path of output file ``name`` under ``--out``, made on the first
    write, so that a run rejected before it leaves no directory behind."""
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out directory {args.out!r}: {exc.strerror}") from None
    return os.path.join(args.out, name)


def _write_report(report: VerificationReport, cfg: RunConfig, args, name: str, also: str = "") -> int:
    """Write ``report`` with the run metadata to ``name`` under ``--out``;
    exit 0 when every check passed, 1 otherwise."""
    report.metadata = _metadata(cfg, args)
    path = _out_path(args, name)
    with open(path, "w", newline="\n") as fh:
        fh.write(report.to_json())
    _say(args.quiet, f"wrote {path}{also}: {'PASS' if report.overall_pass else 'FAIL'}")
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAILED


def _build_form(name: str, params: dict):
    try:
        return builtin_form(name, params)
    except ValueError as exc:
        raise ConfigError(f"invalid form parameters: {exc}") from None


def _form_and_spec(cfg: RunConfig):
    form = _build_form(cfg.form_name, cfg.form_params())
    spec = cfg.quadrature_spec()
    z = cfg.grid_z()
    if z.size != form.n:
        raise ConfigError(f"grid.z lists {z.size} values but the form has n={form.n}")
    return form, spec, z


def _grid_header(n: int, k: int):
    header = []
    for alpha in range(1, n + 1):
        header += [f"re_z{alpha}", f"im_z{alpha}"]
    for gamma in range(1, k + 1):
        header += [f"re_w{gamma}", f"im_w{gamma}"]
    return header


def _coord_cells(p: BaseFiberPoint):
    cells = []
    for value in p.z:
        cells += [float(value.real), float(value.imag)]
    for value in p.w:
        cells += [float(value.real), float(value.imag)]
    return cells


def cmd_solve(cfg: RunConfig, args) -> int:
    form, spec, z = _form_and_spec(cfg)
    rows = []
    for w in cfg.grid_w_points(form.k):
        p = BaseFiberPoint(z, w)
        res = solve_point(form, p, 1, spec)
        rows.append(
            _coord_cells(p)
            + [res.value.real, res.value.imag, abs(res.value), res.err_estimate]
        )
    header = _grid_header(form.n, form.k) + ["re_B", "im_B", "abs_B", "err_estimate"]
    path = _out_path(args, "solution.csv")
    write_csv(path, header, rows)
    _say(args.quiet, f"wrote {path} ({len(rows)} grid points)")
    return EXIT_OK


def _verify_samples(cfg: RunConfig, form, z, limit: int = 5):
    w_points = cfg.grid_w_points(form.k)
    idx = np.unique(np.linspace(0, len(w_points) - 1, min(limit, len(w_points))).astype(int))
    return [BaseFiberPoint(z, w_points[i]) for i in idx]


def cmd_verify(cfg: RunConfig, args) -> int:
    form, spec, z = _form_and_spec(cfg)
    tol = cfg.tolerances()
    report = VerificationReport(metadata={})
    samples = _verify_samples(cfg, form, z)

    report.add(
        "closedness",
        "cross derivatives of the coefficients satisfy the closedness identities",
        max(compatibility_residual(form, p) for p in samples), tol["tol_residual"],
    )

    rays = [np.eye(form.k, dtype=complex)[i] for i in range(form.k)]
    configured = cfg.grid_ray(form.k)
    if not any(np.allclose(configured, r) for r in rays):
        rays.append(configured)
    decay = decay_check(form, z, cfg.grid_radii(), rays)
    report.add(
        "decay_b_envelope",
        "fiber coefficients stay inside the declared decay envelope",
        decay.max_b_ratio, 1.0,
    )
    if form.n:
        report.add(
            "decay_a_vanishing",
            "base coefficients vanish along fiber rays",
            0.0 if decay.a_ok else 1.0, 0.5,
        )

    if form.primitive is not None:
        report.add(
            "oracle_gap",
            "solution matches the closed-form potential within the error estimate",
            oracle_excess(form, [(p, solve_point(form, p, 1, spec)) for p in samples]), tol["tol_oracle"],
        )

    report.add(
        "dbar_residual",
        "conjugate derivatives of the solution reproduce the form coefficients",
        max(residual(form, p, spec, h=tol["fd_h"]).max_residual for p in samples[:3]), tol["tol_residual"],
    )

    if form.k >= 2:
        pairs = [delta_consistency(form, p, spec) for p in samples[:3]]
        report.add(
            "slot_independence",
            "the solution does not depend on the transformed fiber slot",
            max([0.0] + [excess for _, excess in pairs]), 0.0,
            detail=f"max gap {max([0.0] + [gap for gap, _ in pairs]):.3e}",
        )

    b1 = form.b_coeffs[0]
    if b1.wirtinger is not None and (FIBER, 1) in b1.wirtinger:
        p = samples[len(samples) // 2]
        x = abs(p.w[0])
        radii = [scale * max(1.0, x) for scale in (2.0, 4.0, 8.0)]
        recs = [bm_reconstruct(b1, p, 1, radius, spec) for radius in radii]
        report.add(
            "disc_reconstruction",
            "circle average plus interior kernel integral reproduces the coefficient",
            max(rec.reconstruction_gap for rec in recs), tol["tol_oracle"],
        )
        envelope = form.decay.c_bound / fiber_decay_denominator(np.array(radii)[:, None] - x, form.decay.epsilon)
        report.add(
            "boundary_decay",
            "the circle average decays inside the declared envelope",
            max(abs(rec.boundary) - bound for rec, bound in zip(recs, envelope)),
            0.0,
        )

    return _write_report(report, cfg, args, "report.json")


def cmd_bounds(cfg: RunConfig, args) -> int:
    spec = cfg.quadrature_spec()
    epsilons, off_norms, xs = cfg.bounds_epsilons(), cfg.bounds_off_norms(), cfg.bounds_xs()
    rows = []
    for eps in epsilons:
        checks = kernel_mass_bound(eps), g_bound_check(0.0, eps)
        rows.append([eps] + [v for c in checks for v in (c.numeric_value, c.analytic_bound, c.ok)])
    # both tables before either file, so a failing profile writes none
    prof_rows = []
    for eps in epsilons:
        for off in off_norms:
            for pt in f_profile(off, eps, xs, spec):
                prof_rows.append([eps, off, pt.x, pt.value, pt.err_estimate, pt.r_used])
    bounds_path = _out_path(args, "bounds.csv")
    write_csv(
        bounds_path,
        ["epsilon", "kernel_mass_numeric", "kernel_mass_bound", "kernel_mass_pass",
         "line_integral_numeric", "line_integral_bound", "line_integral_pass"],
        rows,
    )
    profile_path = _out_path(args, "f_profile.csv")
    write_csv(
        profile_path,
        ["epsilon", "off_norm", "x", "f_value", "err_estimate", "r_used"],
        prof_rows,
    )
    _say(args.quiet, f"wrote {bounds_path} and {profile_path}")
    return EXIT_OK


def cmd_profile(cfg: RunConfig, args) -> int:
    form, spec, z = _form_and_spec(cfg)
    prof = decay_profile(form, z, cfg.grid_ray(form.k), cfg.grid_radii(), spec)
    rows = [[r.radius, r.abs_value, r.err_estimate, r.envelope] for r in prof.rows]
    path = _out_path(args, "decay_profile.csv")
    write_csv(path, ["radius", "abs_B", "err_estimate", "envelope"], rows)
    _say(args.quiet, f"wrote {path}")
    return EXIT_OK


def cmd_bundle(cfg: RunConfig, args) -> int:
    spec = cfg.quadrature_spec()
    tol = cfg.tolerances()
    m = cfg.bundle_m()
    bundle = make_opm_bundle(m)
    params = dict(cfg.form_params())
    if cfg.bundle_form_name() == "opm_metric_form":
        params.setdefault("m", m)
    base_form = _build_form(cfg.bundle_form_name(), params)
    if base_form.k != 1 or base_form.n not in (0, 1):
        raise ConfigError(f"bundle.form must have k = 1 and n = 0 or 1 to fit the line bundle over one base "
                          f"variable, got k={base_form.k}, n={base_form.n}")
    forms = {"0": base_form, "1": base_form}
    perturb = cfg.bundle_perturb()
    if perturb:
        forms = {"0": base_form, "1": perturb_form(base_form, perturb)}

    glue = chart_consistency(
        bundle, forms, spec,
        n_samples=cfg.bundle_samples(), seed=args.seed + 1, tol_glue=tol["tol_glue"],
    )
    report = global_solve_report(
        bundle, forms, spec, glue,
        n_samples=cfg.bundle_samples(), seed=args.seed, tolerances=tol,
    )

    overlap_rows = []
    for row in glue.rows:
        overlap_rows.append(
            [row.from_chart, row.to_chart]
            + _coord_cells(row.point)
            + _coord_cells(row.mapped_point)
            + [
                row.value_from.real, row.value_from.imag,
                row.value_to.real, row.value_to.imag,
                row.gap, row.err_sum,
                row.within_bound(glue.tol_glue),
            ]
        )
    n, k = base_form.n, base_form.k
    header = (
        ["from_chart", "to_chart"]
        + _grid_header(n, k)
        + [f"mapped_{name}" for name in _grid_header(n, k)]
        + ["re_B_from", "im_B_from", "re_B_to", "im_B_to", "gap", "err_sum", "within_bound"]
    )
    overlap_path = _out_path(args, "overlap.csv")
    write_csv(overlap_path, header, overlap_rows)
    return _write_report(report, cfg, args, "bundle_report.json", also=f" and {overlap_path}")


# Subcommand name -> (handler, help line).
_COMMANDS = {
    "solve": (cmd_solve, "evaluate the solution on a fiber grid and write solution.csv"),
    "verify": (cmd_verify, "run identity, decay and consistency checks; write report.json"),
    "bounds": (cmd_bounds, "tabulate kernel/profile integrals against closed bounds"),
    "profile": (cmd_profile, "sample |solution| along a fiber ray; write decay_profile.csv"),
    "bundle": (cmd_bundle, "two-chart gluing checks; write bundle_report.json and overlap.csv"),
}


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to the key = value run configuration")
    sub.add_argument("--out", default=".", help="output directory (default: working directory)")
    sub.add_argument("--seed", type=int, default=0, help="seed for sampled points")
    sub.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub.add_argument(
        "--timestamp", action="store_true",
        help="embed a wall-clock timestamp in JSON reports (off by default to keep reruns byte-identical)",
    )


@functools.cache  # one shared parser per process, as a build costs about 1 ms and parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbar-fiber",
        description="Solve and verify the fiber conjugate-derivative equation for decaying forms.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc) in _COMMANDS.items():
        _add_common(sub.add_parser(name, help=doc))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = load_config(args.config)
        return _COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DbarFiberError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("numerical error: out of memory; lower quad.n_r, quad.n_theta or quad.max_refinements",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
