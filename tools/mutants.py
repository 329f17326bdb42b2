"""Standing mutation gate: each listed mutant must fail its tests.

Each entry names a source file, an exact source text that occurs there
exactly once, the mutant that replaces it, and a pytest selector.  For
each entry the script copies the checkout to a temporary directory,
applies the mutant there, runs the selector with ``-x`` and requires a
test failure (pytest exit code 1).  A mutant that survives, or whose
source text no longer occurs exactly once, fails the gate: re-target its
entry when the code it guards moves.

Run from anywhere:  python tools/mutants.py
It exits 0 when every mutant is killed and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (file, source text, mutant, pytest selector)
MUTANTS = [
    # NaN past the cutoff band reads 0, not 1
    ("src/dbar_fiber/cauchy.py", "t >= 1.0", "~(t < 1.0)",
     "tests/test_cauchy.py::test_cutoff_is_one_inside_zero_outside_and_smooth_between"),
    # every far octave of a split solve at the full radial order
    ("src/dbar_fiber/cauchy.py", "(spec.n_r // 2, a - rho, a + rho)", "(spec.n_r, a - rho, a + rho)",
     "tests/test_cauchy.py::test_split_parts_sample_the_masked_formulas_and_only_the_band_octaves_take_the_full_order"),
    # every far octave of a split solve at half the radial order, the cutoff band's too
    ("src/dbar_fiber/cauchy.py", "(spec.n_r // 2, a - rho, a + rho)", "spec.n_r // 2",
     "tests/test_cauchy.py::test_split_parts_sample_the_masked_formulas_and_only_the_band_octaves_take_the_full_order"),
    # the profile's tail bound U without its q branch
    ("src/dbar_fiber/cauchy.py", "min(c * r ** -epsilon / epsilon, c * r / q)", "c * r ** -epsilon / epsilon",
     "tests/test_cauchy.py::test_f_profile_tail_keeps_the_offset_constant"),
    # a parser built per call
    ("src/dbar_fiber/cli.py", "@functools.cache", "",
     "tests/test_cli.py::test_version_and_an_unknown_flag_exit_as_argparse_does_on_every_call"),
    # a tail bound that overflows at a tiny explicit r_max escapes as OverflowError
    ("src/dbar_fiber/cauchy.py", "except OverflowError:", "except ZeroDivisionError:",
     "tests/test_cli.py::test_a_tiny_explicit_radius_is_exit_3_with_one_line_and_no_output"),
    # --out made before the config is read, so a rejected run leaves it behind
    ("src/dbar_fiber/cli.py", "cfg = load_config(args.config)",
     "os.makedirs(args.out, exist_ok=True); cfg = load_config(args.config)",
     "tests/test_cli.py::test_unknown_form_is_exit_2"),
    # a config error that takes two lines of stderr
    ("src/dbar_fiber/cli.py", 'print(f"config error: {exc}", file=sys.stderr)',
     'print(f"config error: {exc}\\n", file=sys.stderr)',
     "tests/test_cli.py::test_removed_decay_aliases_are_exit_2"),
    # max, unlike np.max, drops a NaN ratio that comes after a number
    ("src/dbar_fiber/fields.py", "float(np.max([max_ratio] + ratios))", "float(max([max_ratio] + ratios))",
     "tests/test_fields.py::test_decay_check_fails_a_nan_ratio"),
    # a non-finite refinement estimate no longer raises
    ("src/dbar_fiber/cauchy.py", "if not np.isfinite(err).all():", "if False:",
     "tests/test_cli.py::test_bundle_with_an_overflowing_perturbation_is_exit_3_with_one_line"),
    # opm's real factors folded before the complex multiply, which rounds differently
    ("src/dbar_fiber/fields.py", "w[..., 0] * -a_pow * (1.0 / (a_pow + t) ** 2)",
     "w[..., 0] * (-a_pow * (1.0 / (a_pow + t) ** 2))",
     "tests/test_fields.py::test_grid_evaluators_keep_the_bits_of_the_expressions_they_replaced"),
    # verify re-solves slot 1 for the slot check
    ("src/dbar_fiber/cli.py", "[res] + [solve_point(form, p, d, spec) for d in range(2, form.k + 1)]",
     "[solve_point(form, p, d, spec) for d in range(1, form.k + 1)]",
     "tests/test_cli.py::test_verify_solves_each_sample_and_slot_once"),
    # zero_form's dimension cap removed (only the k = 9 case runs: the
    # uncapped 10**9 cases would build a billion coefficients)
    ("src/dbar_fiber/fields.py", "if max(n, k) > 8:", "if False:",
     "tests/test_cli.py::test_zero_form_dimension_cap_is_exit_2[form.k = 9-verify]"),
    # a record's verdict that lets a NaN measurement pass
    ("src/dbar_fiber/report.py", "bound, measured <= bound, detail", "bound, not measured > bound, detail",
     "tests/test_bundle.py::test_a_record_passes_iff_measured_is_at_most_its_bound"),
    # bundle.samples uncapped (the selector only reads the config, so it fails at once)
    ("src/dbar_fiber/config.py", "if not 1 <= samples <= _GRID_MAX // 2:", "if not 1 <= samples:",
     "tests/test_cli.py::test_bundle_samples_above_half_the_grid_cap_are_a_config_error"),
    # the overlap row flag back on its own rule, which rounds differently from the record's
    ("src/dbar_fiber/bundle.py", 'self.gap - self.err_sum <= TOLERANCES["tol_glue"]',
     'self.gap <= self.err_sum + TOLERANCES["tol_glue"]',
     "tests/test_bundle.py::test_an_overlap_row_at_the_rounding_edge_fails_its_flag_and_its_record"),
    # the envelope record's max drops a NaN row that comes after a number
    ("src/dbar_fiber/bundle.py", "float(np.max([r.abs_value - r.envelope - r.err_estimate for r in prof.rows]))",
     "max(r.abs_value - r.envelope - r.err_estimate for r in prof.rows)",
     "tests/test_bundle.py::test_a_nan_profile_row_after_the_first_fails_its_record"),
]

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", "*.egg-info", "build")


def run(entry, workdir: str) -> str:
    """Apply ``entry`` to a fresh copy of the checkout and run its selector;
    return "" when the mutant is killed, else why it is not."""
    path, source, mutant, selector = entry
    copy = os.path.join(workdir, "checkout")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=_SKIP)
    target = os.path.join(copy, path)
    with open(target) as fh:
        text = fh.read()
    count = text.count(source)
    if count != 1:
        return f"source text occurs {count} times"
    with open(target, "w") as fh:
        fh.write(text.replace(source, mutant))
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", selector]
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 1:
        return ""
    tail = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
    return f"survived (pytest exit {proc.returncode}: {tail[0]})"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        for entry in MUTANTS:
            start = time.perf_counter()
            why = run(entry, workdir)
            failed += bool(why)
            print(f"{'FAIL' if why else 'killed'} {time.perf_counter() - start:5.1f}s {entry[0]}: "
                  f"{entry[1]!r} -> {entry[2]!r}" + (f": {why}" if why else ""), flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
