"""Property tests for the quadrature spec, the radius search, the config parser
and the whole command line."""

import contextlib
import io
import math
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from dbar_fiber import cauchy, cli, config
from dbar_fiber.cauchy import QuadratureSpec
from dbar_fiber.config import parse_config_text
from dbar_fiber.errors import ConfigError, TruncationError
from dbar_fiber.fields import DecayBudget, registered_form_names
from test_cauchy import reference_tail

INTS = st.integers(min_value=-4, max_value=70) | st.integers(min_value=-2 ** 80, max_value=2 ** 80)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=150, deadline=None)
@given(r_max=FLOATS, n_theta=INTS, n_r=INTS, tol_abs=FLOATS, tol_tail=FLOATS, max_refinements=INTS)
def test_spec_is_rejected_or_finite_and_inside_the_budget(**fields):
    try:
        spec = QuadratureSpec(**fields)
    except ValueError:
        return
    for name in ("r_max", "tol_abs", "tol_tail"):
        assert abs(getattr(spec, name)) < float("inf")
    assert spec.n_theta >= 8 and spec.n_theta % 2 == 0 and spec.n_r >= 2
    assert spec.tol_abs > 0.0 and spec.tol_tail > 0.0 and 0.0 <= spec.r_max <= cauchy._R_LIMIT
    assert 1 <= spec.max_refinements
    assert spec.n_theta * 2 ** spec.max_refinements <= cauchy._BLOCK
    assert spec.n_r * 2 ** spec.max_refinements <= 2 ** 15


def positive(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


@settings(max_examples=150, deadline=None)
@given(eps=positive(0.05, 8.0), c=positive(1e-2, 1e2),
       a=st.one_of(positive(0.0, 64.0), positive(0.0, 1e12), positive(0.0, 1e300)),
       r_max=st.one_of(st.just(0.0), positive(1e-3, 1e12)), tol_tail=positive(1e-10, 1.0))
def test_radius_search_raises_or_returns_a_doubling_whose_tail_covers_the_reference(eps, c, a, r_max, tol_tail):
    decay, spec = DecayBudget(eps, c), QuadratureSpec(r_max=r_max, tol_tail=tol_tail)
    try:
        radius, tail = cauchy._radius_and_tail(lambda r: cauchy.tail_bound(decay, a, r), a, spec)
    except TruncationError:
        return
    if r_max > 0.0:
        assert radius == r_max
    else:
        start = max(8.0, 2.0 * a + 4.0)
        k = round(math.log2(radius / start))
        assert k >= 0 and radius == start * 2.0 ** k and radius <= cauchy._R_LIMIT
        assert tail <= tol_tail
    # At large radii the bound is tight and the two agree to rounding; the
    # reference sums two rules of 256 rounded terms, so 1e-13 relative.
    assert tail >= reference_tail(decay, 0.0, a, radius) * (1.0 - 1e-13)


QUAD_KEYS = ("quad.r_max", "quad.n_theta", "quad.n_r", "quad.tol_abs", "quad.tol_tail", "quad.max_refinements")
VALUES = st.one_of(INTS.map(str), FLOATS.map(repr), st.text(max_size=12))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(QUAD_KEYS), VALUES, max_size=len(QUAD_KEYS)))
def test_quad_lines_raise_only_config_errors(lines):
    text = "".join(f"{key} = {value}\n" for key, value in lines.items())
    try:
        spec = parse_config_text(text).quadrature_spec()
    except ConfigError:
        return
    assert isinstance(spec, QuadratureSpec)


# The whole command line: every subcommand on configs that override a small,
# cheap base with edge-case values for any of the config keys.
CLI_BASE = {
    "form": "gaussian_form", "quad.n_theta": "8", "quad.n_r": "4", "quad.max_refinements": "1",
    "grid.w_re": "-1:1:2", "grid.w_im": "0:0:1", "grid.radii": "1,2", "bounds.epsilons": "1",
    "bounds.xs": "0,1", "bundle.samples": "1",
}
EDGE_NUMBERS = st.sampled_from(["0", "1", "-1", "2", "0.5", "64", "1e8", "1e300", "-1e300", "1e-300", "nan", "inf", "-inf"])
CLI_VALUES = st.one_of(
    EDGE_NUMBERS,
    st.sampled_from(["", "x", "1+", "1,,x", "0:1", "1e999", "true"]),
    st.sampled_from(registered_form_names() + ["no_such_form"]),
    st.lists(EDGE_NUMBERS, min_size=1, max_size=3).map(",".join),
    st.lists(EDGE_NUMBERS, min_size=3, max_size=3).map(":".join),
    EDGE_NUMBERS.map(lambda x: f"{x}+1j"),
)


def run_cli(command, lines):
    """``(exit code, stderr, whether --out exists, warnings)`` of one
    in-process run of ``command`` on the config ``lines``."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            fh.write("".join(f"{key} = {value}\n" for key, value in lines.items()))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = cli.main([command, "--config", cfg, "--out", out, "--quiet"])
        return code, err.getvalue(), os.path.exists(out), [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(cli._COMMANDS)),
       overrides=st.dictionaries(st.sampled_from(sorted(config._KEYS)), CLI_VALUES, max_size=3))
def test_every_cli_run_exits_with_a_documented_code_and_at_most_one_line(command, overrides):
    code, err, out_exists, caught = run_cli(command, {**CLI_BASE, **overrides})
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) == (1 if code in (2, 3) else 0), err
    assert not (code == 2 and out_exists)
    assert caught == []
