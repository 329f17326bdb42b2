import dataclasses

import numpy as np
import pytest

from dbar_fiber import fields as fields_module
from dbar_fiber.errors import NonFiniteSampleError
from dbar_fiber.fields import (
    BASE,
    FIBER,
    BaseFiberPoint,
    DecayBudget,
    ScalarField,
    VariableId,
    ZeroOneForm,
    builtin_form,
    compatibility_residual,
    decay_check,
    point,
    registered_form_names,
    wirtinger_fd,
)
from dbar_fiber.solver import _stacked_slices

ALL_BUILTINS = [
    ("zero_form", {}),
    ("gaussian_form", {}),
    ("gaussian_form", {"z_profile": True}),
    ("rational_form", {}),
    ("product_form_k2", {}),
    ("opm_metric_form", {"m": 0}),
    ("opm_metric_form", {"m": 1}),
    ("opm_metric_form", {"m": 2}),
]


def sample_points(form, count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        z = 0.8 * (rng.standard_normal(form.n) + 1j * rng.standard_normal(form.n))
        w = 0.8 * (rng.standard_normal(form.k) + 1j * rng.standard_normal(form.k))
        pts.append(BaseFiberPoint(z, w))
    return pts


def test_point_validation():
    with pytest.raises(ValueError):
        point(w=())
    with pytest.raises(ValueError):
        point(w=(np.nan,))
    p = point(z=(1 + 2j,), w=(3.0, 4j))
    assert p.n == 1 and p.k == 2
    assert p.coord(FIBER, 2) == 4j
    bad = ScalarField(evaluate=lambda z, w: np.full(np.shape(w[..., 0]), np.inf))
    with pytest.raises(NonFiniteSampleError):
        bad.at(point(w=(0.0,)))


def test_decay_budget_validation():
    with pytest.raises(ValueError):
        DecayBudget(0.0, 1.0)
    with pytest.raises(ValueError):
        DecayBudget(1.0, -1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            DecayBudget(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            DecayBudget(1.0, bad)


def test_variable_id_validation():
    with pytest.raises(ValueError):
        VariableId("weird", 1)
    with pytest.raises(ValueError):
        VariableId(BASE, 0)


def test_wirtinger_fd_holomorphic_and_conjugate():
    ident = ScalarField(evaluate=lambda z, w: w[..., 0])
    conj = ScalarField(evaluate=lambda z, w: np.conj(w[..., 0]))
    p = point(w=(0.37 - 0.21j,))
    assert abs(wirtinger_fd(ident, p, VariableId(FIBER, 1))) < 1e-9
    assert wirtinger_fd(conj, p, VariableId(FIBER, 1)) == pytest.approx(1.0, abs=1e-9)


def test_wirtinger_fd_gaussian_oracle():
    gauss = builtin_form("gaussian_form").b_coeffs[0]
    got = wirtinger_fd(gauss, point(w=(1.0,)), VariableId(FIBER, 1), h=1e-4)
    assert got == pytest.approx(-np.exp(-1.0), abs=1e-7)


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_analytic_wirtinger_matches_fd_with_quadratic_rate(name, params):
    form = builtin_form(name, params)
    for p in sample_points(form, 3, seed=11):
        for coeff in form.a_coeffs + form.b_coeffs:
            for kind, index in (coeff.wirtinger or {}):
                v = VariableId(kind, index)
                exact = coeff.analytic_wirtinger(p, v)
                err_h = abs(wirtinger_fd(coeff, p, v, h=2e-3) - exact)
                err_h2 = abs(wirtinger_fd(coeff, p, v, h=1e-3) - exact)
                assert err_h <= 1e-4
                if err_h > 1e-10:
                    ratio = err_h / max(err_h2, 1e-300)
                    assert 2.5 < ratio < 6.0


def test_compatibility_zero_form_exact():
    zero = builtin_form("zero_form", {"n": 2, "k": 2})
    assert compatibility_residual(zero, point(z=(1.0, 2.0), w=(1.0, 2.0))) == 0.0


def _zero(z, w):
    return np.zeros(np.shape(w[..., 0]), complex)


@pytest.mark.parametrize("part, index, coeff", [
    ("a", 0, lambda z, w: np.conj(z[..., 1])),  # base/base: da_1/dzbar_2 = 1, da_2/dzbar_1 = 0
    ("a", 0, lambda z, w: np.conj(w[..., 0])),  # base/fiber: da_1/dwbar_1 = 1, db_1/dzbar_1 = 0
    ("b", 0, lambda z, w: np.conj(w[..., 1])),  # fiber/fiber: db_1/dwbar_2 = 1, db_2/dwbar_1 = 0
], ids=["base-base", "mixed", "fiber-fiber"])
def test_compatibility_residual_sees_each_pair_group_fail(part, index, coeff):
    # Linear coefficients without analytic maps: the finite differences are
    # exact up to rounding, so the one broken identity reads 1.
    coeffs = {"a": [_zero, _zero], "b": [_zero, _zero]}
    coeffs[part][index] = coeff
    form = ZeroOneForm(2, 2, [ScalarField(f) for f in coeffs["a"]], [ScalarField(f) for f in coeffs["b"]],
                       DecayBudget(1.0, 1.0))
    p = point(z=(0.3 - 0.2j, -0.5 + 0.1j), w=(0.7 + 0.4j, -0.2 - 0.9j))
    assert compatibility_residual(form, p) == pytest.approx(1.0, abs=1e-9)
    assert compatibility_residual(builtin_form("zero_form", {"n": 2, "k": 2}), p) == 0.0


@pytest.mark.parametrize(
    "name,params",
    [
        ("gaussian_form", {"z_profile": True}),
        ("product_form_k2", {}),
        ("opm_metric_form", {"m": 1}),
        ("opm_metric_form", {"m": 2}),
    ],
)
def test_compatibility_residual_quadratic_in_h(name, params):
    form = builtin_form(name, params)
    # without the analytic maps every identity takes finite differences
    form = dataclasses.replace(
        form,
        a_coeffs=tuple(dataclasses.replace(f, wirtinger=None) for f in form.a_coeffs),
        b_coeffs=tuple(dataclasses.replace(f, wirtinger=None) for f in form.b_coeffs),
    )
    p = sample_points(form, 1, seed=5)[0]
    res_h = compatibility_residual(form, p, h=2e-2)
    res_h2 = compatibility_residual(form, p, h=1e-2)
    assert res_h2 <= 0.35 * res_h + 1e-11


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_compatibility_analytic_path_is_tiny(name, params):
    form = builtin_form(name, params)
    for p in sample_points(form, 2, seed=7):
        # analytic derivatives exist for every builtin pair used by the
        # identities, so the residual is pure floating point noise
        assert compatibility_residual(form, p) <= 1e-10


def test_decay_check_zero_form():
    zero = builtin_form("zero_form")
    rep = decay_check(zero, (), [1.0, 2.0, 4.0], [(1.0,)])
    assert rep.ok and rep.max_b_ratio == 0.0


def test_decay_check_fails_a_nan_ratio(monkeypatch):
    # A NaN ratio fails the check; Python's max dropped it when it came
    # after a number.
    monkeypatch.setattr(fields_module, "fiber_decay_denominator", lambda w, eps: np.nan)
    rep = decay_check(builtin_form("gaussian_form"), (), [1.0, 2.0], [(1.0,)])
    assert not rep.b_ok and np.isnan(rep.max_b_ratio)


def test_decay_check_gaussian_budget():
    gauss = builtin_form("gaussian_form")  # declared budget (1, 1)
    rep = decay_check(gauss, (), [1.0, 2.0, 4.0, 8.0], [(1.0,), (1j,)])
    assert rep.b_ok
    assert rep.max_b_ratio <= 1.0


def test_decay_check_product_budget_both_axes():
    form = builtin_form("product_form_k2")  # declared budget (1, 2)
    rep = decay_check(form, (), [1.0, 2.0, 4.0, 8.0], [(1.0, 0.0), (0.0, 1.0)])
    assert rep.ok
    assert rep.max_b_ratio <= 1.0


def test_decay_check_opm_with_base_coefficient():
    form = builtin_form("opm_metric_form", {"m": 1})
    rep = decay_check(form, (2.0,), [1.0, 2.0, 4.0, 8.0, 16.0], [(1.0,)])
    assert rep.ok


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_every_builtin_meets_its_default_budget(name, params):
    form = builtin_form(name, params)
    z = 0.8 * np.ones(form.n)
    directions = [np.eye(form.k)[i] for i in range(form.k)]
    rep = decay_check(form, z, [1.0, 2.0, 4.0, 8.0, 16.0], directions)
    assert rep.b_ok, rep.max_b_ratio


def test_decay_check_flags_undersized_budget():
    tight = builtin_form("gaussian_form", {"c_bound": 0.5})
    rep = decay_check(tight, (), [0.5, 1.0, 2.0], [(1.0,)])
    assert not rep.b_ok


def test_decay_check_requires_increasing_radii():
    gauss = builtin_form("gaussian_form")
    with pytest.raises(ValueError):
        decay_check(gauss, (), [2.0, 1.0], [(1.0,)])


def test_builtin_registry():
    assert "gaussian_form" in registered_form_names()
    with pytest.raises(ValueError):
        builtin_form("not_a_form")


def test_primitive_oracles():
    gauss = builtin_form("gaussian_form")
    assert gauss.primitive_at(point(w=(1.0,))) == pytest.approx(1.0 - np.exp(-1.0))
    assert gauss.primitive_at(point(w=(0.0,))) == 0.0
    assert gauss.primitive_at(point(w=(1e-310 - 1e-310j,))) == 0.0  # no overflow warning

    rational = builtin_form("rational_form")
    assert rational.primitive_at(point(w=(1.0,))) == pytest.approx(0.5)

    product = builtin_form("product_form_k2")
    assert product.primitive_at(point(w=(0.0, 0.0))) == pytest.approx(1.0)
    assert product.primitive_at(point(w=(1.0, 2.0j))) == pytest.approx(0.1)

    opm = builtin_form("opm_metric_form", {"m": 1})
    assert opm.primitive_at(point(z=(2.0,), w=(1.0,))) == pytest.approx(5.0 / 6.0)


def test_primitives_differentiate_back_to_coefficients():
    # The potential is the oracle: its conjugate derivatives must reproduce
    # every coefficient, by finite differences (independent of the stored
    # analytic derivative entries).
    for name, params in ALL_BUILTINS:
        form = builtin_form(name, params)
        if form.primitive is None:
            continue
        prim = ScalarField(evaluate=form.primitive)
        for p in sample_points(form, 2, seed=3):
            for v, coeff in form.terms():
                fd = wirtinger_fd(prim, p, v, h=1e-4)
                assert fd == pytest.approx(coeff.at(p), abs=2e-7)


def test_purity_bit_identical():
    form = builtin_form("opm_metric_form", {"m": 1})
    p = point(z=(0.3 + 0.4j,), w=(1.2 - 0.7j,))
    first = form.b_coeffs[0].at(p)
    second = form.b_coeffs[0].at(p)
    assert first == second


# ---------------------------------------------------------------------------
# Bit guard for the grid evaluators.  They multiply a complex grid by real
# factors only (see the ``fields`` docstring); below are the expressions
# they replaced, which divided a complex grid by a real one or negated it.
# Every sample must keep its bits, but for the sign of an exact zero.
# ---------------------------------------------------------------------------


def _abs2(x):
    return np.abs(x) ** 2


def _gaussian_reference(z_profile):
    g, e = fields_module._gaussian_potential_fiber, lambda w: np.exp(-_abs2(w[..., 0]))
    if not z_profile:
        return {
            ("b", 0, "evaluate"): lambda z, w: e(w) + 0.0j,
            ("b", 0, "primitive"): lambda z, w: g(w[..., 0]),
            ("b", 0, (FIBER, 1)): lambda z, w: -w[..., 0] * e(w),
        }
    p = lambda z: 1.0 / (1.0 + _abs2(z[..., 0]))
    prim = lambda z, w: p(z) * g(w[..., 0])
    return {
        ("b", 0, "evaluate"): lambda z, w: p(z) * e(w) + 0.0j,
        ("b", 0, "primitive"): prim,
        ("b", 0, (FIBER, 1)): lambda z, w: -p(z) * w[..., 0] * e(w),
        ("b", 0, (BASE, 1)): lambda z, w: -z[..., 0] * p(z) ** 2 * e(w),
        ("a", 0, "evaluate"): lambda z, w: -z[..., 0] * p(z) ** 2 * g(w[..., 0]),
        ("a", 0, "primitive"): prim,
        ("a", 0, (FIBER, 1)): lambda z, w: -z[..., 0] * p(z) ** 2 * e(w),
        ("a", 0, (BASE, 1)): lambda z, w: 2.0 * z[..., 0] ** 2 * p(z) ** 3 * g(w[..., 0]),
    }


def _rational_reference():
    return {
        ("b", 0, "evaluate"): lambda z, w: 1.0 / (1.0 + _abs2(w[..., 0])) ** 2 + 0.0j,
        ("b", 0, "primitive"): lambda z, w: np.conj(w[..., 0]) / (1.0 + _abs2(w[..., 0])),
        ("b", 0, (FIBER, 1)): lambda z, w: -2.0 * w[..., 0] / (1.0 + _abs2(w[..., 0])) ** 3,
    }


def _product_reference():
    t = lambda w, i: _abs2(w[..., i])
    out = {}
    for i, j in ((0, 1), (1, 0)):
        out[("b", i, "evaluate")] = lambda z, w, i=i, j=j: -w[..., i] / ((1.0 + t(w, i)) ** 2 * (1.0 + t(w, j)))
        out[("b", i, "primitive")] = lambda z, w: 1.0 / ((1.0 + t(w, 0)) * (1.0 + t(w, 1))) + 0.0j
        out[("b", i, (FIBER, i + 1))] = (
            lambda z, w, i=i, j=j: 2.0 * w[..., i] ** 2 / ((1.0 + t(w, i)) ** 3 * (1.0 + t(w, j))))
        out[("b", i, (FIBER, j + 1))] = (
            lambda z, w: w[..., 0] * w[..., 1] / ((1.0 + t(w, 0)) ** 2 * (1.0 + t(w, 1)) ** 2))
    return out


def _opm_reference(m):
    def pieces(z, w):
        s, t = _abs2(z[..., 0]), _abs2(w[..., 0])
        return s, t, (1.0 + s) ** m

    def prim(z, w):
        s, t, a_pow = pieces(z, w)
        return a_pow / (a_pow + t) + 0.0j

    def cross(z, w):
        s, t, a_pow = pieces(z, w)
        return m * z[..., 0] * w[..., 0] * (1.0 + s) ** (m - 1) * (a_pow - t) / (a_pow + t) ** 3

    def a_eval(z, w):
        s, t, a_pow = pieces(z, w)
        return m * z[..., 0] * (1.0 + s) ** (m - 1) * t / (a_pow + t) ** 2

    def a_dzbar(z, w):
        s, t, a_pow = pieces(z, w)
        return (m * z[..., 0] ** 2 * t * (1.0 + s) ** (m - 2) * ((m - 1) * (a_pow + t) - 2.0 * m * a_pow)
                / (a_pow + t) ** 3)

    def b_eval(z, w):
        s, t, a_pow = pieces(z, w)
        return -w[..., 0] * a_pow / (a_pow + t) ** 2

    def b_dwbar(z, w):
        s, t, a_pow = pieces(z, w)
        return 2.0 * w[..., 0] ** 2 * a_pow / (a_pow + t) ** 3

    return {
        ("a", 0, "evaluate"): a_eval, ("a", 0, "primitive"): prim,
        ("a", 0, (FIBER, 1)): cross, ("a", 0, (BASE, 1)): a_dzbar,
        ("b", 0, "evaluate"): b_eval, ("b", 0, "primitive"): prim,
        ("b", 0, (FIBER, 1)): b_dwbar, ("b", 0, (BASE, 1)): cross,
    }


def _zero_reference(params):
    zero = lambda z, w: np.zeros(np.shape(w[..., 0]), dtype=complex)
    parts = [("a", i) for i in range(params.get("n", 0))] + [("b", i) for i in range(params.get("k", 1))]
    return {(part, i, entry): zero for part, i in parts for entry in ("evaluate", "primitive")}


PRE_REWRITE = {
    "zero_form": _zero_reference,
    "gaussian_form": lambda params: _gaussian_reference(params.get("z_profile", False)),
    "rational_form": lambda params: _rational_reference(),
    "product_form_k2": lambda params: _product_reference(),
    "opm_metric_form": lambda params: _opm_reference(params["m"]),
}


def _entries(form):
    """``{(part, index, entry): fn}`` for every coefficient of ``form``:
    its ``evaluate``, its ``primitive`` and each Wirtinger map."""
    out = {}
    for part, coeffs in (("a", form.a_coeffs), ("b", form.b_coeffs)):
        for index, coeff in enumerate(coeffs):
            out[(part, index, "evaluate")] = coeff.evaluate
            out[(part, index, "primitive")] = coeff.primitive
            out.update(((part, index, key), fn) for key, fn in (coeff.wirtinger or {}).items())
    return out


def _wide_grid(rng, shape):
    """Complex samples with |w| log-uniform on [1e-3, 1e3], so that
    ``exp(-|w|**2)`` underflows on part of the grid."""
    return 10.0 ** rng.uniform(-3.0, 3.0, shape) * np.exp(2j * np.pi * rng.uniform(size=shape))


def _guard_grids(form, seed=29):
    """``(label, fn -> samples)`` for a lone grid ``w`` of shape (rows, n, k)
    and, for each slot, a stack of three slices (see ``_stacked_slices``)
    on a (rows, n) grid of that slot."""
    rng = np.random.default_rng(seed)
    z = 0.8 * (rng.standard_normal(form.n) + 1j * rng.standard_normal(form.n))
    lone = _wide_grid(rng, (16, 24, form.k))
    p = BaseFiberPoint(z, 0.5 * (rng.standard_normal(form.k) + 1j * rng.standard_normal(form.k)))
    points = [p] + [BaseFiberPoint(p.z + 1e-3 * (1 + 1j) * s, p.w + 1e-3 * s) for s in (1.0, -1.0)]
    x = _wide_grid(rng, (16, 24))
    grids = [("lone", lambda fn: fn(z, lone))]
    for delta in range(1, form.k + 1):
        stacked = lambda fn, d=delta: _stacked_slices(fn, points, d, complex(p.w[d - 1]))(x)
        grids.append((f"stacked slot {delta}", stacked))
    return grids


def _same_bits_but_zero_signs(got, want):
    assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
    g, w = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return np.all((g.view(np.uint64) == w.view(np.uint64)) | ((g.view(float) == 0.0) & (w.view(float) == 0.0)))


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_grid_evaluators_keep_the_bits_of_the_expressions_they_replaced(name, params):
    form = builtin_form(name, params)
    reference = PRE_REWRITE[name](params)
    entries = _entries(form)
    assert entries.keys() == reference.keys()
    for label, sample in _guard_grids(form):
        for key, fn in entries.items():
            assert _same_bits_but_zero_signs(sample(fn), sample(reference[key])), (label, key)


def test_guard_grids_reach_the_underflow_of_exp():
    gauss = builtin_form("gaussian_form")
    for label, sample in _guard_grids(gauss):
        values = sample(gauss.b_coeffs[0].evaluate)
        assert np.any(values == 0.0) and np.all(np.isfinite(values)), label


def test_numpy_divides_a_complex_grid_by_a_real_one_as_a_multiply_by_the_reciprocal():
    # The rewrite's premise, checked by name: a numpy whose complex division
    # loop changed would otherwise show only as moved transform pins.
    rng = np.random.default_rng(29)
    for x in (_wide_grid(rng, (16, 24)), _wide_grid(rng, (3, 16, 24))):
        for d in ((1.0 + _abs2(x)) ** 3, -(2.0 + _abs2(x))):
            assert (x / d).tobytes() == (x * (1.0 / d)).tobytes()
            assert (-x * d).tobytes() == (x * -d).tobytes()
