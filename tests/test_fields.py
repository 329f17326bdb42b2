import numpy as np
import pytest

from dbar_fiber.errors import NonFiniteSampleError
from dbar_fiber.fields import (
    BASE,
    FIBER,
    BaseFiberPoint,
    DecayBudget,
    ScalarField,
    VariableId,
    builtin_form,
    compatibility_residual,
    decay_check,
    point,
    registered_form_names,
    wirtinger_fd,
)

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
    p = sample_points(form, 1, seed=5)[0]
    res_h = compatibility_residual(form, p, h=2e-2, prefer_analytic=False)
    res_h2 = compatibility_residual(form, p, h=1e-2, prefer_analytic=False)
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
            for gamma in range(1, form.k + 1):
                fd = wirtinger_fd(prim, p, VariableId(FIBER, gamma), h=1e-4)
                assert fd == pytest.approx(form.b_coeffs[gamma - 1].at(p), abs=2e-7)
            for alpha in range(1, form.n + 1):
                fd = wirtinger_fd(prim, p, VariableId(BASE, alpha), h=1e-4)
                assert fd == pytest.approx(form.a_coeffs[alpha - 1].at(p), abs=2e-7)


def test_purity_bit_identical():
    form = builtin_form("opm_metric_form", {"m": 1})
    p = point(z=(0.3 + 0.4j,), w=(1.2 - 0.7j,))
    first = form.b_coeffs[0].at(p)
    second = form.b_coeffs[0].at(p)
    assert first == second
