import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import dbar_fiber
from dbar_fiber import cli
from dbar_fiber.cli import main
from dbar_fiber import config, solver
from dbar_fiber.cauchy import QuadratureSpec
from dbar_fiber.config import parse_config_text
from dbar_fiber.errors import ConfigError
from dbar_fiber.fields import builtin_form, point
from dbar_fiber.report import CHECKS

FAST_QUAD = """
quad.n_r = 16
quad.n_theta = 32
quad.tol_abs = 1e-7
quad.tol_tail = 1e-3
quad.max_refinements = 2
"""


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def pins(report):
    """``(name, passed, float.hex(measured), bound)`` of every check record."""
    return [(c["name"], c["passed"], float.hex(c["measured"]), c["bound"]) for c in report["checks"]]


# --- config parsing ---------------------------------------------------------


def test_parse_config_happy_path():
    cfg = parse_config_text(
        """
        # comment
        form = gaussian_form
        quad.n_r = 8   # trailing comment
        grid.w_re = -1:1:3
        """
    )
    assert cfg.form_name == "gaussian_form"
    assert cfg.quadrature_spec().n_r == 8
    pts = cfg.grid_w_points(1)
    assert len(pts) == 3 * 5


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("form = gaussian_form\nbogus.key = 1\n")


def test_parse_config_rejects_duplicates_and_bad_lines():
    with pytest.raises(ConfigError):
        parse_config_text("form = gaussian_form\nform = rational_form\n")
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")


def test_parse_config_value_errors():
    cfg = parse_config_text("form = gaussian_form\nquad.n_r = soup\n")
    with pytest.raises(ConfigError):
        cfg.quadrature_spec()
    cfg = parse_config_text("form = gaussian_form\ngrid.w_re = 0:1\n")
    with pytest.raises(ConfigError):
        cfg.grid_w_points(1)


def test_grid_w_points_keep_the_order_and_bits_of_the_point_loop():
    # signed zeros and subnormals on both axes, a sweep of slot 2 and one fill value per slot
    cfg = parse_config_text(
        "grid.slot = 2\ngrid.w_fill = 1+2j,-0.0-0j,-3j\n"
        "grid.w_re = -0.0:-5e-324:4\ngrid.w_im = -5e-324:-0.0:3\n"
    )
    re, im = np.linspace(-0.0, -5e-324, 4), np.linspace(-5e-324, -0.0, 3)
    loop = []
    for b in im:
        for a in re:
            w = np.asarray([complex(text) for text in ("1+2j", "-0.0-0j", "-3j")], dtype=complex)
            w[1] = a + 1j * b
            loop.append(w)
    pts = cfg.grid_w_points(3)
    assert pts.shape == (12, 3) and pts.dtype == complex
    assert pts.tobytes() == np.asarray(loop).tobytes()


def test_bundle_samples_above_half_the_grid_cap_are_a_config_error():
    # two solves a sample: a bundle run solves no more points than the largest grid
    cap = config._GRID_MAX // 2
    assert parse_config_text(f"bundle.samples = {cap}\n").bundle_samples() == cap
    for value in (cap + 1, 10 ** 9, 0):
        with pytest.raises(ConfigError, match="bundle.samples must be between 1 and 500000"):
            parse_config_text(f"bundle.samples = {value}\n").bundle_samples()


def typed(mapping):
    return {key: (value, type(value)) for key, value in mapping.items()}


def test_form_and_quad_keys_map_by_suffix_and_tol_keys_are_unknown(tmp_path, capsys):
    # distinct values per key, so a key read into the wrong name or by the wrong parser shows
    cfg = parse_config_text(
        "form = zero_form\nform.m = 3\nform.z_profile = yes\nform.n = 2\nform.k = 4\n"
        "form.epsilon = 0.25\nform.c_bound = 5\n"
        "quad.r_max = 7\nquad.n_theta = 48\nquad.n_r = 12\nquad.tol_abs = 1e-9\nquad.tol_tail = 1e-5\n"
        "quad.max_refinements = 2\n"
    )
    assert typed(cfg.form_params()) == typed(
        {"m": 3, "z_profile": True, "n": 2, "k": 4, "epsilon": 0.25, "c_bound": 5.0}
    )
    spec = QuadratureSpec(r_max=7.0, n_theta=48, n_r=12, tol_abs=1e-9, tol_tail=1e-5, max_refinements=2)
    assert typed(dataclasses.asdict(cfg.quadrature_spec())) == typed(dataclasses.asdict(spec))
    # the check bounds are fixed: a config cannot loosen them
    out = tmp_path / "out"
    for key in ("tol.residual", "tol.oracle", "tol.glue", "tol.fd_h"):
        cfg = write_config(tmp_path, f"form = opm_metric_form\ngrid.z = 0.5\n{key} = 1e300\n")
        assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"unknown key {key!r}" in err
    assert not out.exists()


def test_readme_schema_lists_exactly_the_config_keys():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    table = readme.split("## Configuration schema", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    documented = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert len(documented) == len(set(documented))
    assert set(documented) == set(config._KEYS)


def test_readme_check_tables_list_exactly_the_checks_and_their_bounds():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    tables = readme.split("`verify` writes these checks", 1)[1].split("The `_chart_<id>` checks repeat", 1)[0]
    rows = [line.split("|") for line in tables.splitlines() if line.startswith("| `")]
    names = [re.fullmatch(r" `([^`]+)` ", row[1]).group(1).replace("<id>", "{}") for row in rows]
    assert len(names) == len(set(names))
    bounds = {name: float(row[3].strip(" `")) for name, row in zip(names, rows)}
    assert bounds == {name: bound for name, (_, bound) in CHECKS.items()}


def test_config_missing_form():
    cfg = parse_config_text("quad.n_r = 8\n")
    with pytest.raises(ConfigError):
        cfg.form_name


# --- solve ------------------------------------------------------------------


def test_solve_zero_form_writes_zero_column(tmp_path):
    cfg = write_config(tmp_path, "form = zero_form\ngrid.w_re = -1:1:3\ngrid.w_im = 0:0:1\n" + FAST_QUAD)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
    header, rows = read_csv(os.path.join(out, "solution.csv"))
    assert header == ["re_w1", "im_w1", "re_B", "im_B", "abs_B", "err_estimate"]
    assert all(float(row[header.index("abs_B")]) == 0.0 for row in rows)


def test_solve_gaussian_grid_hits_oracle(tmp_path):
    cfg = write_config(
        tmp_path,
        "form = gaussian_form\ngrid.w_re = 1:1:1\ngrid.w_im = 0:0:1\n" + FAST_QUAD,
    )
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
    header, rows = read_csv(os.path.join(out, "solution.csv"))
    value = float(rows[0][header.index("abs_B")])
    assert value == pytest.approx(0.6321205588, abs=1e-6)


def test_solve_rational_grid_hits_oracle(tmp_path):
    # tol_tail drives the truncation radius, so ask for the accuracy we assert
    cfg = write_config(
        tmp_path,
        "form = rational_form\ngrid.w_re = 1:1:1\ngrid.w_im = 0:0:1\n"
        "quad.n_r = 16\nquad.n_theta = 32\nquad.tol_abs = 1e-8\nquad.tol_tail = 1e-6\n",
    )
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
    header, rows = read_csv(os.path.join(out, "solution.csv"))
    assert float(rows[0][header.index("abs_B")]) == pytest.approx(0.5, abs=1e-6)


def test_solve_grid_z_mismatch_is_config_error(tmp_path):
    cfg = write_config(tmp_path, "form = gaussian_form\ngrid.z = 1,2\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2


# --- verify -----------------------------------------------------------------


def test_verify_gaussian_passes(tmp_path):
    cfg = write_config(tmp_path, "form = gaussian_form\ngrid.w_re = -2:2:3\ngrid.w_im = -2:2:3\n" + FAST_QUAD)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["overall_pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert "oracle_gap" in names and "dbar_residual" in names
    assert report["metadata"]["timestamp"] is None
    assert all(c["claim"] for c in report["checks"])


@pytest.mark.parametrize("command,body", [
    ("verify", "form = gaussian_form\ngrid.w_re = -2:2:3\ngrid.w_im = -2:2:3\n"),
    ("verify", "form = product_form_k2\ngrid.w_re = -1:1:3\ngrid.w_im = 0:0:1\n"),
    ("verify", "form = opm_metric_form\ngrid.z = 0.5\ngrid.w_re = -1:1:3\ngrid.w_im = 0:0:1\n"),
    ("bundle", "form = opm_metric_form\nbundle.m = 1\nbundle.samples = 4\n"),
    ("bundle", "form = opm_metric_form\nbundle.m = 1\nbundle.samples = 4\nbundle.perturb = 0.05\n"),
])
def test_every_record_passes_iff_measured_is_at_most_its_bound(tmp_path, command, body):
    cfg = write_config(tmp_path, body + FAST_QUAD)
    out = str(tmp_path / "out")
    code = main([command, "--config", cfg, "--out", out, "--quiet"])
    report = json.load(open(os.path.join(out, "report.json" if command == "verify" else "bundle_report.json")))
    checks = report["checks"]
    assert [c["passed"] for c in checks] == [c["measured"] <= c["bound"] for c in checks]
    assert [(c["claim"], c["bound"]) for c in checks] == [
        CHECKS[re.sub(r"_chart_\w+$", "_chart_{}", c["name"])] for c in checks
    ]
    assert code == (0 if report["overall_pass"] else 1)


def test_verify_product_includes_slot_independence(tmp_path):
    cfg = write_config(
        tmp_path,
        "form = product_form_k2\ngrid.w_re = -1:1:3\ngrid.w_im = 0:0:1\n" + FAST_QUAD,
    )
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert any(c["name"] == "slot_independence" and c["passed"] for c in report["checks"])
    assert pins(report) == [
        ("closedness", True, "0x0.0p+0", 0.0001),
        ("decay_b_envelope", True, "0x1.0000000000000p-2", 1.0),
        ("oracle_gap", True, "0x0.0p+0", 1e-06),
        ("dbar_residual", True, "0x1.4fab680106e06p-34", 0.0001),
        ("slot_independence", True, "0x0.0p+0", 0.0),
        ("disc_reconstruction", True, "0x1.73004d801557fp-55", 1e-06),
        ("boundary_decay", True, "-0x1.f81f81f81f820p-6", 0.0),
    ]


def test_verify_solves_each_sample_and_slot_once(tmp_path, monkeypatch):
    # The oracle and slot checks share slot 1's solves: 3 samples x 2 slots.
    cfg = write_config(
        tmp_path,
        "form = product_form_k2\ngrid.w_fill = 0,0.5\ngrid.w_re = -1.5:1.5:3\ngrid.w_im = 0.5:0.5:1\n" + FAST_QUAD,
    )
    calls = []

    def counting(form, p, delta, spec):
        calls.append((tuple(p.z), tuple(p.w), delta))
        return original(form, p, delta, spec)

    original = solver.solve_point
    monkeypatch.setattr(cli, "solve_point", counting)
    monkeypatch.setattr(solver, "solve_point", counting)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(calls) == len(set(calls)) == 6


def test_verify_gaussian_z_profile_checks_base_part_and_disc(tmp_path):
    cfg = write_config(
        tmp_path,
        "form = gaussian_form\nform.z_profile = true\ngrid.z = 0.5\ngrid.w_re = -1:1:3\ngrid.w_im = 0:0:1\n"
        + FAST_QUAD,
    )
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert pins(report) == [
        ("closedness", True, "0x0.0p+0", 0.0001),
        ("decay_b_envelope", True, "0x1.2d5de91bd8c2dp-1", 1.0),
        ("decay_a_vanishing", True, "0x0.0p+0", 0.5),
        ("oracle_gap", True, "0x0.0p+0", 1e-06),
        ("dbar_residual", True, "0x1.ae80e00200000p-22", 0.0001),
        ("disc_reconstruction", True, "0x1.01be640000000p-30", 1e-06),
        ("boundary_decay", True, "-0x1.f81f81f81f820p-7", 0.0),
    ]


def test_verify_wrong_budget_fails_with_exit_1(tmp_path):
    cfg = write_config(
        tmp_path,
        "form = gaussian_form\nform.c_bound = 0.2\ngrid.radii = 0.5,1,2\n" + FAST_QUAD,
    )
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 1
    report = json.load(open(os.path.join(out, "report.json")))
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    assert "decay_b_envelope" in failing


def test_verify_noisy_residual_writes_nothing_to_stderr(tmp_path, capfd):
    # rational_form's residual stencil sits on its truncation floor at the
    # default spec; ``ResidualReport.noisy`` flags that, and nothing warns.
    # A child process, as pytest would capture a warning before stderr.
    cfg = write_config(tmp_path, "form = rational_form\ngrid.w_re = 1:1:1\ngrid.w_im = 0:0:1\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "dbar_fiber.cli", "verify", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]
    assert subprocess.run(argv, env=env).returncode == 0
    assert capfd.readouterr().err == ""


# A config per subcommand whose output carries profile envelopes or solves,
# and the exit code it gives.
RERUN_CONFIGS = {
    "solve": ("form = gaussian_form\ngrid.w_re = -1:1:3\ngrid.w_im = 0:1:2\n", 0),
    "verify": ("form = gaussian_form\n", 0),
    "bounds": ("form = gaussian_form\nbounds.xs = 0,4,16,64\n", 0),
    "profile": ("form = gaussian_form\ngrid.radii = 1,4,16\n", 0),
    "bundle": ("form = opm_metric_form\nbundle.m = 1\nbundle.samples = 4\n", 0),
    "verify failing": ("form = gaussian_form\nform.c_bound = 0.2\ngrid.radii = 0.5,1,2\n", 1),
}


@pytest.mark.parametrize("command", sorted(RERUN_CONFIGS))
def test_rerun_is_byte_identical(tmp_path, command):
    # two runs in one process, into fresh directories, give the same exit
    # code and write the same files, byte for byte
    body, code = RERUN_CONFIGS[command]
    cfg = write_config(tmp_path, body + FAST_QUAD)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main([command.split()[0], "--config", cfg, "--out", str(out), "--quiet"]) == code
    names = sorted(f.name for f in outs[0].iterdir())
    assert names and names == sorted(f.name for f in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# --- bounds -----------------------------------------------------------------


def test_bounds_tables(tmp_path):
    cfg = write_config(
        tmp_path,
        "form = gaussian_form\nbounds.epsilons = 0.5,1,2\nbounds.xs = 0,1,2,4\n"
        "quad.n_r = 10\nquad.n_theta = 64\nquad.tol_abs = 1e-5\nquad.tol_tail = 2e-3\nquad.max_refinements = 2\n",
    )
    out = str(tmp_path / "out")
    assert main(["bounds", "--config", cfg, "--out", out, "--quiet"]) == 0

    header, rows = read_csv(os.path.join(out, "bounds.csv"))
    eps_col = header.index("epsilon")
    row1 = next(r for r in rows if float(r[eps_col]) == 1.0)
    assert float(row1[header.index("kernel_mass_numeric")]) == pytest.approx(2 * np.pi ** 2, rel=1e-6)
    assert float(row1[header.index("kernel_mass_bound")]) == pytest.approx(8 * np.pi, rel=1e-9)
    assert row1[header.index("kernel_mass_pass")] == "true"
    assert float(row1[header.index("line_integral_numeric")]) == pytest.approx(np.pi, rel=1e-6)
    assert float(row1[header.index("line_integral_bound")]) == pytest.approx(4.0)
    assert all(r[header.index("kernel_mass_pass")] == "true" for r in rows)

    fheader, frows = read_csv(os.path.join(out, "f_profile.csv"))
    by_eps = {}
    for r in frows:
        by_eps.setdefault(r[fheader.index("epsilon")], []).append(float(r[fheader.index("f_value")]))
    for eps, values in by_eps.items():
        assert all(b <= a + 1e-6 for a, b in zip(values, values[1:])), eps


def test_bounds_at_a_small_exponent_meets_the_tail_tolerance(tmp_path):
    # At eps = 0.01 the upper end of the tail bracket falls like R**-eps
    # and is still about 40 at the radius limit; the half-width meets
    # tol_tail, and at x = 0 F is the kernel mass.
    cfg = write_config(tmp_path, "form = gaussian_form\nbounds.epsilons = 0.01\nbounds.xs = 0,4,16\n")
    out = str(tmp_path / "out")
    assert main(["bounds", "--config", cfg, "--out", out, "--quiet"]) == 0
    _, rows = read_csv(os.path.join(out, "bounds.csv"))
    kernel_mass = float(rows[0][1])
    header, rows = read_csv(os.path.join(out, "f_profile.csv"))
    errs = [float(r[header.index("err_estimate")]) for r in rows]
    assert len(errs) == 3 and max(errs) < 1e-3
    origin = next(r for r in rows if float(r[header.index("x")]) == 0.0)
    assert abs(float(origin[header.index("f_value")]) - kernel_mass) <= float(origin[header.index("err_estimate")])


# --- profile ----------------------------------------------------------------


def test_profile_command(tmp_path):
    cfg = write_config(tmp_path, "form = gaussian_form\ngrid.radii = 1,2,4\n" + FAST_QUAD)
    out = str(tmp_path / "out")
    assert main(["profile", "--config", cfg, "--out", out, "--quiet"]) == 0
    header, rows = read_csv(os.path.join(out, "decay_profile.csv"))
    assert header == ["radius", "abs_B", "err_estimate", "envelope"]
    values = [float(r[1]) for r in rows]
    assert values[0] == pytest.approx(1 - np.exp(-1), abs=1e-5)
    assert values[-1] < values[0]


# --- bundle -----------------------------------------------------------------


def test_bundle_product_passes(tmp_path):
    cfg = write_config(
        tmp_path,
        "form = gaussian_form\nbundle.m = 0\nbundle.form = gaussian_form\nbundle.samples = 4\n" + FAST_QUAD,
    )
    out = str(tmp_path / "out")
    assert main(["bundle", "--config", cfg, "--out", out, "--quiet"]) == 0


def test_bundle_opm_passes_and_writes_overlap(tmp_path):
    cfg = write_config(tmp_path, "form = opm_metric_form\nbundle.m = 1\nbundle.samples = 5\n" + FAST_QUAD)
    out = str(tmp_path / "out")
    assert main(["bundle", "--config", cfg, "--out", out, "--quiet"]) == 0
    header, rows = read_csv(os.path.join(out, "overlap.csv"))
    assert len(rows) == 5
    gap_col = header.index("gap")
    err_col = header.index("err_sum")
    assert all(float(r[gap_col]) <= float(r[err_col]) + 1e-6 for r in rows)
    report = json.load(open(os.path.join(out, "bundle_report.json")))
    assert report["overall_pass"] is True
    assert pins(report) == [
        ("cocycle_roundtrip", True, "0x1.f1de8a6e6f1d1p-54", 1e-12),
        ("pullback_agreement", True, "0x1.1e3779b97f4a8p-54", 1e-10),
        ("residual_chart_0", True, "0x1.c6b5a7d16460bp-24", 0.0001),
        ("fiber_decay_envelope_chart_0", True, "-0x1.b545cfa90d26cp+0", 0.0),
        ("fiber_decay_vanishing_chart_0", True, "0x1.283a3777b4458p-5", 0.5),
        ("oracle_gap_chart_0", True, "0x0.0p+0", 1e-06),
        ("residual_chart_1", True, "0x1.16017d61836acp-23", 0.0001),
        ("fiber_decay_envelope_chart_1", True, "-0x1.b4de2fb83a649p+0", 0.0),
        ("fiber_decay_vanishing_chart_1", True, "0x1.34fa6601e82fdp-5", 0.5),
        ("oracle_gap_chart_1", True, "0x0.0p+0", 1e-06),
        ("overlap_consistency", True, "-0x1.fffee8ed667c8p-10", 1e-06),
    ]


def test_bundle_perturbed_fails_and_lists_points(tmp_path):
    cfg = write_config(
        tmp_path,
        "form = opm_metric_form\nbundle.m = 1\nbundle.samples = 4\nbundle.perturb = 0.05\n" + FAST_QUAD,
    )
    out = str(tmp_path / "out")
    assert main(["bundle", "--config", cfg, "--out", out, "--quiet"]) == 1
    header, rows = read_csv(os.path.join(out, "overlap.csv"))
    within = header.index("within_bound")
    assert any(r[within] == "false" for r in rows)
    report = json.load(open(os.path.join(out, "bundle_report.json")))
    glue = next(c for c in report["checks"] if c["name"] == "overlap_consistency")
    assert not glue["passed"] and "z=" in glue["detail"]
    # the perturbed chart carries no potential, so it has no oracle check
    assert pins(report) == [
        ("cocycle_roundtrip", True, "0x1.f1de8a6e6f1d1p-54", 1e-12),
        ("pullback_agreement", False, "0x1.6c7e557d1f2e1p-7", 1e-10),
        ("residual_chart_0", True, "0x1.c3825bc168dbfp-24", 0.0001),
        ("fiber_decay_envelope_chart_0", True, "-0x1.b059e14619932p+0", 0.0),
        ("fiber_decay_vanishing_chart_0", True, "0x1.c3420eafab665p-5", 0.5),
        ("oracle_gap_chart_0", True, "0x0.0p+0", 1e-06),
        ("residual_chart_1", False, "0x1.1cc0638272673p-8", 0.0001),
        ("fiber_decay_envelope_chart_1", True, "-0x1.b14b03636d228p+0", 0.0),
        ("fiber_decay_vanishing_chart_1", True, "0x1.979b61f5b810ep-5", 0.5),
        ("overlap_consistency", False, "0x1.84e119b6568f7p-5", 1e-06),
    ]


# --- top level --------------------------------------------------------------


def test_version_and_an_unknown_flag_exit_as_argparse_does_on_every_call(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process and parses each call afresh
    cfg = write_config(tmp_path, "form = gaussian_form\n")
    cli.build_parser()
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda *args, **kwargs: built.append(1) or init(*args, **kwargs))
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as version:
            main(["--version"])
        with pytest.raises(SystemExit) as unknown:
            main(["bounds", "--config", cfg, "--bogus"])
        outputs.append(capsys.readouterr())
        assert (version.value.code, unknown.value.code) == (0, 2)
    assert outputs[0] == outputs[1] and not built
    out, err = outputs[0]
    assert out == f"dbar-fiber {dbar_fiber.__version__}\n"
    assert err.startswith("usage: dbar-fiber [-h] [--version]") and err.endswith("unrecognized arguments: --bogus\n")


def test_missing_config_is_exit_2(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg"), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err


def test_negative_seed_is_exit_2_with_one_line(tmp_path, capsys):
    # A negative seed reached np.random.default_rng in the bundle's global
    # checks and left with a traceback and exit 1.
    cfg = write_config(tmp_path, "form = gaussian_form\nbundle.m = 0\nbundle.samples = 4\n" + FAST_QUAD)
    assert main(["bundle", "--config", cfg, "--out", str(tmp_path), "--seed", "-1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --seed must be >= 0") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "verify", "bounds", "profile", "bundle"])
def test_out_naming_an_existing_file_is_exit_2_with_one_line(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "form = gaussian_form\ngrid.w_re = 0:0:1\ngrid.w_im = 0:0:1\n" + FAST_QUAD)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([command, "--config", cfg, "--out", str(taken), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create --out directory") and err.count("\n") == 1
    assert taken.read_text() == ""


def test_unknown_form_is_exit_2(tmp_path):
    # a rejected config leaves no output directory behind
    cfg = write_config(tmp_path, "form = not_a_form\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("setting", ["quad.tol_abs = nan", "quad.r_max = inf"])
def test_non_finite_quadrature_setting_is_exit_2(tmp_path, capsys, setting):
    cfg = write_config(tmp_path, f"form = gaussian_form\n{setting}\ngrid.w_re = 0:0:1\ngrid.w_im = 0:0:1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, setting", [
    ("solve", "form.epsilon = -1"),
    ("solve", "form.epsilon = nan"),
    ("solve", "form.epsilon = inf"),
    ("solve", "form.c_bound = inf"),
    ("solve", "form = zero_form\nform.k = 0"),
    ("bundle", "form.epsilon = -1"),
    ("bounds", "bounds.xs = 0,inf"),
    ("bounds", "bounds.epsilons = nan"),
    ("bounds", "bounds.off_norms = inf"),
    # finite, but 4 pi (1 + 1/eps) overflows, and inf <= inf would pass both bound checks
    ("bounds", "bounds.epsilons = 1e-320"),
    # no offsets or no norms: the profile would have no rows
    ("bounds", "bounds.xs ="),
    ("bounds", "bounds.off_norms ="),
    # no radii: the decay check has nothing to take a maximum over, the profile no rows
    ("verify", "form = opm_metric_form\ngrid.z = 0.5\ngrid.radii ="),
    ("profile", "form = opm_metric_form\ngrid.z = 0.5\ngrid.radii ="),
    # radii are distances from the origin, like bounds.xs
    ("profile", "grid.radii = -1,1"),
    ("verify", "grid.radii = -1,1"),
    # the bundle's charts have one fiber slot over one base variable
    ("bundle", "bundle.form = product_form_k2"),
    ("bundle", "bundle.form = zero_form\nform.n = 2"),
    # the norm overflows, and the ray divided by it would be 0
    ("profile", "grid.ray = 1e308"),
])
def test_bad_form_or_non_finite_setting_is_exit_2(tmp_path, capsys, command, setting):
    body = setting if setting.startswith("form =") else f"form = gaussian_form\n{setting}"
    cfg = write_config(tmp_path, f"{body}\ngrid.w_re = 0:0:1\ngrid.w_im = 0:0:1\n{FAST_QUAD}")
    assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert sorted(f.name for f in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("setting", ["decay.epsilon = 2", "decay.c = 3", "quad.r_cap = 1e9"])
def test_removed_decay_aliases_are_exit_2(tmp_path, capsys, setting):
    # The decay budget is set only through form.epsilon and form.c_bound,
    # and the largest truncation radius is fixed.
    cfg = write_config(tmp_path, f"form = gaussian_form\n{setting}\ngrid.w_re = 0:0:1\ngrid.w_im = 0:0:1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "unknown key" in err


@pytest.mark.parametrize("command", ["verify", "bundle"])
@pytest.mark.parametrize("setting", ["form.k = 9", "form.k = 1000000000", "form.n = 1000000000"])
def test_zero_form_dimension_cap_is_exit_2(tmp_path, capsys, command, setting):
    # refused before any coefficient tuple or array is built
    key = "bundle.form" if command == "bundle" else "form"
    cfg = write_config(tmp_path, f"{key} = zero_form\n{setting}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid form parameters: zero_form needs n and k <= 8")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("setting, bound", [
    ("quad.max_refinements = 60", "n_theta * 2**max_refinements must be <= 16384"),
    ("quad.n_r = 40000", "n_r * 2**max_refinements must be <= 32768"),
    ("quad.r_max = 1.7e308", "r_max must be <= 1e+150"),
])
def test_node_budget_overrun_is_exit_2(tmp_path, capsys, setting, bound):
    cfg = write_config(tmp_path, f"form = gaussian_form\n{setting}\ngrid.w_re = 0:0:1\ngrid.w_im = 0:0:1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid quadrature spec: ") and err.count("\n") == 1
    assert bound in err


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("grid, message", [
    ("grid.w_re = 0:1:1000000000000000\ngrid.w_im = 0:0:1", "grid.w_re gives 1000000000000000 grid points"),
    ("grid.w_re = 0:0:1\ngrid.w_im = 0:1:100000000", "grid.w_im gives 100000000 grid points"),
    ("grid.w_re = 0:1:1001\ngrid.w_im = 0:1:1000", "grid.w_re x grid.w_im gives 1001000 grid points"),
])
def test_oversized_grid_is_exit_2_before_any_grid_exists(tmp_path, capsys, monkeypatch, command, grid, message):
    # An axis count, or the product of the two, over the cap of 10**6
    # points is a config error; no axis is built, so none is allocated.
    def no_axis(*args, **kwargs):
        raise AssertionError("a grid axis was built")

    monkeypatch.setattr(config.np, "linspace", no_axis)
    cfg = write_config(tmp_path, f"form = gaussian_form\n{grid}\n{FAST_QUAD}")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}, above the cap of 1000000\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["run.cfg"]


def test_out_of_memory_is_exit_3_with_one_line(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "solve_point", out_of_memory)
    cfg = write_config(tmp_path, "form = gaussian_form\ngrid.w_re = 0:0:1\ngrid.w_im = 0:0:1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: out of memory") and err.count("\n") == 1


def test_numerical_failure_is_exit_3(tmp_path):
    # 2 C R**-eps / eps at eps = 0.01 is still about 6 at the radius limit
    cfg = write_config(
        tmp_path,
        "form = gaussian_form\nform.epsilon = 0.01\nquad.tol_tail = 1e-12\ngrid.w_re = 0:0:1\ngrid.w_im = 0:0:1\n",
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 3


@pytest.mark.parametrize("command, setting", [
    ("solve", "grid.w_re = 1e300:1e300:1\ngrid.w_im = 0:0:1"),
    ("bounds", "bounds.xs = 1e300"),
    ("profile", "grid.radii = 1e300"),
    ("solve", "grid.w_re = 1e20:1e20:1\ngrid.w_im = 0:0:1"),
])
def test_center_past_the_radius_cap_is_exit_3_with_one_line(tmp_path, capsys, command, setting):
    # The search's start radius 2|w| + 4 rounds to 2|w| from |w| = 2**54
    # on, as at 1e300 and 1e20: no admissible radius exists.
    cfg = write_config(tmp_path, f"form = gaussian_form\n{setting}\n{FAST_QUAD}")
    assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, setting", [
    # bounds.xs starts at 0, where F is the closed form; at x = 1 the radius does not clear 2x
    ("bounds", "quad.r_max = 1e-300"),
    # at x = 1e-300 the profile's tail bound R**-eps overflows
    ("bounds", "quad.r_max = 1e-299\nbounds.xs = 0,1e-300\nbounds.epsilons = 5"),
    # at w = 0 the transform's tail bound (R - |w|)**-eps overflows
    ("solve", "form = rational_form\nquad.r_max = 1e-300\ngrid.w_re = 0:0:1\ngrid.w_im = 0:0:1"),
])
def test_a_tiny_explicit_radius_is_exit_3_with_one_line_and_no_output(tmp_path, capsys, command, setting):
    # quad.r_max = 1e-300 made bounds raise OverflowError from the profile's
    # tail bracket, exit 1 with a traceback, after writing bounds.csv; now
    # bounds computes both tables before it writes either file.
    body = setting if setting.startswith("form =") else f"form = gaussian_form\n{setting}"
    cfg = write_config(tmp_path, body + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_past_the_envelope_overflow_reads_a_zero_sample_as_0(tmp_path, capsys):
    # At |w| = 1e300 the envelope's denominator overflows and the
    # gaussian's sample is 0: the ratio read 0 * inf = NaN, with a
    # RuntimeWarning (an error under pytest), and Python's max dropped it.
    cfg = write_config(tmp_path, "form = gaussian_form\ngrid.radii = 0,1e300\n" + FAST_QUAD)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    decay = next(c for c in report["checks"] if c["name"] == "decay_b_envelope")
    assert decay["passed"] and decay["measured"] == 1.0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_decay_past_the_envelope_overflow_bounds_by_0(tmp_path, capsys):
    # At form.epsilon = 1e8 the disc radii's envelope 1 + |R - |w||**(1+eps)
    # overflows, so the bound on the circle average is 0; the power warned
    # (an error under pytest).  The declared budget is false, so exit 1.
    cfg = write_config(tmp_path, "form = gaussian_form\nform.epsilon = 1e8\n" + FAST_QUAD)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 1
    report = json.load(open(os.path.join(out, "report.json")))
    boundary = next(c for c in report["checks"] if c["name"] == "boundary_decay")
    assert not boundary["passed"] and boundary["measured"] > 0.0
    assert capsys.readouterr().err == ""


def test_bundle_with_an_overflowing_perturbation_is_exit_3_with_one_line(tmp_path, capsys):
    # At bundle.perturb = 1e300 the perturbed chart's samples are near the
    # float limit and its quadrature estimates overflow.  The transform
    # warned and returned err_estimate = inf, which covers any error, so
    # overlap_consistency passed vacuously.
    cfg = write_config(
        tmp_path, "form = opm_metric_form\nbundle.m = 1\nbundle.samples = 4\nbundle.perturb = 1e300\n" + FAST_QUAD)
    out = tmp_path / "out"
    assert main(["bundle", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z", ["0.5", "1e200"])
def test_non_finite_analytic_derivative_is_exit_3_with_one_line(tmp_path, capsys, z):
    # At m = 100000 opm_metric_form's analytic derivatives are not finite;
    # the closedness check reads them first, and ``solve`` exits 3 too.
    body = f"form = opm_metric_form\nform.m = 100000\ngrid.z = {z}\n"
    cfg = write_config(tmp_path, f"{body}grid.w_re = 0:0:1\ngrid.w_im = 0:0:1\n{FAST_QUAD}")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1


@pytest.mark.parametrize("w", [6e8, 1.7e16])
def test_far_center_meets_its_potential(tmp_path, w):
    # Below 2**54 the start radius clears 2|w|, however far the center.
    cfg = write_config(tmp_path, f"form = gaussian_form\ngrid.w_re = {w}:{w}:1\ngrid.w_im = 0:0:1\n{FAST_QUAD}")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    header, rows = read_csv(os.path.join(tmp_path, "solution.csv"))
    value = complex(float(rows[0][header.index("re_B")]), float(rows[0][header.index("im_B")]))
    potential = builtin_form("gaussian_form").primitive_at(point(w=(w,)))
    assert abs(value - potential) <= float(rows[0][header.index("err_estimate")])


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_small_decay_exponent_solves_and_verifies(tmp_path, command):
    # At eps = 0.1 the tail bound meets tol_tail near radius 1e56.
    cfg = write_config(tmp_path, "form = gaussian_form\nform.epsilon = 0.1\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    if command == "verify":
        checks = json.load(open(os.path.join(tmp_path, "report.json")))["checks"]
        assert len(checks) == 6 and all(c["passed"] for c in checks)
