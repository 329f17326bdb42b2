import cmath
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbar_fiber.cauchy import QuadratureSpec, f_profile, kernel_mass_bound
from dbar_fiber.errors import MissingDerivativeError, NonFiniteSampleError, TruncationError
from dbar_fiber.fields import (
    FIBER,
    DecayBudget,
    ScalarField,
    ZeroOneForm,
    _fd_stencil,
    _gaussian_potential_fiber,
    builtin_form,
    point,
)
from dbar_fiber import cauchy, quadrature, solver
from dbar_fiber.solver import (
    bm_reconstruct,
    decay_profile,
    delta_consistency,
    oracle_excess,
    residual,
    solve_point,
)
from test_cauchy import one_center, one_center_radius, one_center_tail

SPEC = QuadratureSpec(n_r=24, n_theta=64, tol_abs=1e-8, tol_tail=1e-4)


def slow_decay_form(epsilon):
    """A form of the paper's regime, decaying at order p = 1 + eps: the
    potential u = conj(w) (1 + t)**(-p/2), t = |w|**2, and b = du/dwbar,
    evaluated so that no factor overflows below the radius limit.  |b| <=
    (1 + t)**(-p/2), and (1 + r**p) (1 + r**2)**(-p/2) <= 2 for p <= 2, so
    C = 2."""
    half = -(1.0 + epsilon) / 2.0

    def b(z, w):
        t = np.abs(w[..., 0]) ** 2
        return (1.0 + t) ** half * (1.0 + t * (1.0 - epsilon) / 2.0) / (1.0 + t) + 0.0j

    def u(z, w):
        return np.conj(w[..., 0]) * (1.0 + np.abs(w[..., 0]) ** 2) ** half

    return ZeroOneForm(0, 1, (), (ScalarField(b, primitive=u),), DecayBudget(epsilon, 2.0), "slow_decay")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("epsilon", [0.1, 0.25, 0.5, 1.0])
def test_slow_decay_solves_meet_the_potential(epsilon):
    # The tail bound 2 C R**-eps / eps needs radii up to about 1e56 at eps
    # = 0.1, on both sides of the switch radius.
    form = slow_decay_form(epsilon)
    for w in (0.0, 1.0 + 0.5j, -2.0 + 1.5j, 7.0j, 20.0):
        p = point(w=(w,))
        res = solve_point(form, p, 1, SPEC)
        assert res.tail <= SPEC.tol_tail
        assert abs(res.value - form.primitive_at(p)) <= res.err_estimate


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("epsilon", [0.1, 0.25, 0.5, 1.0])
def test_slow_decay_solution_decays_at_order_eps(epsilon):
    # The theorem's solution decays, but not with the data's order 1 + eps:
    # |u| r**eps = (r**2 / (1 + r**2))**((1+eps)/2) tends to 1.
    prof = decay_profile(slow_decay_form(epsilon), [], [1.0], [16.0, 256.0], SPEC)
    assert prof.within_envelope()
    for row in prof.rows:
        scaled = row.abs_value * row.radius ** epsilon
        exact = (row.radius ** 2 / (1.0 + row.radius ** 2)) ** ((1.0 + epsilon) / 2.0)
        assert abs(scaled - exact) <= row.err_estimate * row.radius ** epsilon
        assert 0.99 < scaled <= 1.0


def shifted_bump_form(c, s):
    """gaussian_form moved to ``c`` and scaled to width ``s``: b = exp(-|w -
    c|**2 / s**2) and u = s u_0((w - c) / s) with gaussian_form's potential
    u_0, that is u = s**2 (1 - exp(-|w - c|**2 / s**2)) / (w - c).  Past |w|
    = |c| + 3 s, |b| < e**-9, so C = (|c| + 3 s)**2 + 1 bounds |b| (1 +
    |w|**2)."""

    def b(z, w):
        return np.exp(-np.abs((w[..., 0] - c) / s) ** 2) + 0.0j

    def u(z, w):
        return s * _gaussian_potential_fiber((w[..., 0] - c) / s)

    return ZeroOneForm(0, 1, (), (ScalarField(b, primitive=u),), DecayBudget(1.0, (abs(c) + 3.0 * s) ** 2 + 1.0), "bump")


# The resolution contract of the default spec: a bump of width s at distance
# d from the center is resolved when the level-0 ray gap 2 pi d / n_theta is
# at most RAY_GAP_WIDTHS * s, that is d <= 35.6 s at n_theta = 32.  Mapped
# for s in [0.02, 1] and centers |w| <= 3: inside, the worst true error was
# 1e-3 of err_estimate at the edge and 4.1e-4 in 5,700 random cases; just
# past it, random cases missed by up to 198 times (see BUMP_MISSES).
RAY_GAP_WIDTHS = 7.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_s=st.floats(math.log(0.02), 0.0), reach=st.floats(0.0, 1.0), angle=st.floats(0.0, 2.0 * math.pi),
       center=st.complex_numbers(max_magnitude=3.0))
def test_err_estimate_covers_a_bump_the_level_0_rays_resolve(log_s, reach, angle, center):
    spec, s = QuadratureSpec(), math.exp(log_s)
    d = reach * RAY_GAP_WIDTHS * s * spec.n_theta / (2.0 * math.pi)
    form, p = shifted_bump_form(center + d * cmath.exp(1j * angle), s), point(w=(center,))
    res = solve_point(form, p, 1, spec)
    # with margin: a tenth of the estimate, 100 times the worst ratio measured
    assert abs(res.value - form.primitive_at(p)) <= 0.1 * res.err_estimate


# Measured misses at the default spec, center 0, bump at d e^(2 pi i j / 7):
# (s, d, j, true error / err_estimate).  Each solve stops at level 1 with 32
# angles, all samples beside the bump.  A remedy that resolves one of them
# fails its row here: move it into the contract above.
BUMP_MISSES = [
    (0.02, 1.5, 4, 5.1), (0.03, 2.5, 4, 6.1), (0.05, 5.0, 4, 9.5), (0.07, 5.0, 6, 18.3), (0.1, 5.0, 1, 36.0),
    (0.1, 7.0, 4, 27.6), (0.14, 10.0, 6, 37.5), (0.2, 10.0, 1, 74.0), (0.2, 11.0, 6, 56.3),
]


@pytest.mark.parametrize("s, d, j, measured", BUMP_MISSES)
def test_bumps_past_the_resolution_contract_still_miss(s, d, j, measured):
    form, p = shifted_bump_form(d * cmath.exp(2j * math.pi * j / 7), s), point(w=(0.0,))
    assert 2.0 * math.pi * d / QuadratureSpec().n_theta > RAY_GAP_WIDTHS * s
    res = solve_point(form, p, 1, QuadratureSpec())
    ratio = abs(res.value - form.primitive_at(p)) / res.err_estimate
    assert ratio > 1.0, f"measured {measured}, now {ratio:.3g}: the contract widened"


def test_zero_form_solves_to_exact_zero():
    zero = builtin_form("zero_form", {"k": 2})
    res = solve_point(zero, point(w=(1.0, 2.0j)), 1, SPEC)
    assert res.value == 0.0


def test_gaussian_solve_oracle():
    gauss = builtin_form("gaussian_form")
    res = solve_point(gauss, point(w=(1.0,)), 1, SPEC)
    assert abs(res.value - (1.0 - np.exp(-1.0))) <= res.err_estimate
    assert res.value.real == pytest.approx(0.6321205588, abs=1e-8)


def test_product_solve_oracle_both_slots():
    form = builtin_form("product_form_k2")
    res1 = solve_point(form, point(w=(0.0, 0.0)), 1, SPEC)
    assert abs(res1.value - 1.0) <= 1e-8
    res2 = solve_point(form, point(w=(1.0, 2.0j)), 2, SPEC)
    assert abs(res2.value - 0.1) <= 1e-8


def last_axis_slotted(fn, p, delta):
    """``x -> fn(p.z, w)`` with ``w`` laid out slot by slot on its last axis."""
    def value(x):
        x = np.asarray(x, dtype=complex)
        w = np.empty(x.shape + (p.w.size,), dtype=complex)
        w[...] = p.w
        w[..., delta - 1] = x
        return fn(p.z, w)
    return value


def test_slotted_values_match_the_last_axis_layout_bitwise():
    # Slot-major arguments: each slot a form reads is contiguous, and the
    # values on a 2-D sample grid are those of the last-axis layout, for
    # product_form_k2 and for forms that reduce over all slots, with the
    # frozen slots and the samples scaled so that the order of a sum shows.
    contiguous = []

    def whole(reduce):
        def fn(z, w):
            contiguous.extend(w[..., i].flags.c_contiguous for i in range(w.shape[-1]))
            return reduce(w)
        return fn

    sums = [whole(lambda w: w.sum(axis=-1)), whole(lambda w: np.sum(np.abs(w) ** 1.5, axis=-1))]
    x = 1e-16 * (1.0 + np.arange(1.0, 9.0)[:, None] * np.exp(2j * np.pi * np.arange(16) / 16)[None, :])
    product = builtin_form("product_form_k2")
    cases = [(f.evaluate, point(w=(0.6 - 0.2j, 1.0 + 0.5j))) for f in product.b_coeffs]
    cases += [(fn, point(w=w)) for fn in sums for w in [(1.0, 1e-16), (1.0, 1e-16, 3e-17 + 1e-16j)]]
    for fn, p in cases:
        for delta in range(1, p.w.size + 1):
            contiguous.clear()
            got = solver._slotted(fn, p, delta)(x)
            assert all(contiguous)
            want = last_axis_slotted(fn, p, delta)(x)
            assert got.shape == x.shape
            assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def test_solve_point_slot_bounds():
    gauss = builtin_form("gaussian_form")
    with pytest.raises(IndexError):
        solve_point(gauss, point(w=(1.0,)), 2, SPEC)


def test_delta_consistency_product():
    form = builtin_form("product_form_k2")
    for w in [(0.0, 0.0), (1.0, 2.0j), (0.5 - 0.5j, 1.0 + 1.0j)]:
        p = point(w=w)
        gap, excess = delta_consistency(form, p, SPEC)
        r1, r2 = (solve_point(form, p, d, SPEC) for d in (1, 2))
        assert gap == abs(r1.value - r2.value)
        assert excess == gap - (r1.err_estimate + r2.err_estimate)
        assert excess <= 0.0
        assert gap <= 1e-5


def test_delta_consistency_zero_form_exact():
    zero = builtin_form("zero_form", {"k": 3})
    gap, excess = delta_consistency(zero, point(w=(1.0, 2.0, 3.0)), SPEC)
    assert gap == 0.0
    # the largest excess over the three pairs, each with its own estimates
    results = [solve_point(zero, point(w=(1.0, 2.0, 3.0)), d, SPEC) for d in (1, 2, 3)]
    assert excess == max(-(a.err_estimate + b.err_estimate)
                         for i, a in enumerate(results) for b in results[i + 1:])


def test_delta_consistency_requires_multiple_slots():
    gauss = builtin_form("gaussian_form")
    with pytest.raises(ValueError):
        delta_consistency(gauss, point(w=(1.0,)), SPEC)


def test_residual_zero_form_exact():
    zero = builtin_form("zero_form", {"k": 2})
    rep = residual(zero, point(w=(0.5, 0.5)), SPEC, h=1e-3)
    assert rep.max_residual == 0.0


def test_residual_gaussian():
    gauss = builtin_form("gaussian_form")
    rep = residual(gauss, point(w=(1.0,)), SPEC, h=1e-3)
    assert rep.w_residuals[0] <= 1e-4
    assert rep.noisy is False


def test_residual_opm_both_parts():
    form = builtin_form("opm_metric_form", {"m": 1})
    rep = residual(form, point(z=(1.0,), w=(1.0,)), SPEC, h=1e-3)
    assert rep.w_residuals[0] <= 1e-4
    assert rep.z_residuals[0] <= 1e-4


def test_residual_quadratic_decrease():
    form = builtin_form("opm_metric_form", {"m": 1})
    p = point(z=(1.0,), w=(1.0,))
    rep_h = residual(form, p, SPEC, h=2e-3)
    rep_h2 = residual(form, p, SPEC, h=1e-3)
    rep_floor = residual(form, p, SPEC, h=1e-5)
    assert rep_floor.noisy is True
    floor = rep_floor.max_residual
    if rep_h.max_residual > 25.0 * floor:
        assert rep_h2.max_residual <= 0.3 * rep_h.max_residual


@pytest.mark.parametrize("name, params, p", [
    ("gaussian_form", {}, point(w=(1.0,))),
    ("opm_metric_form", {"m": 1}, point(z=(1.0,), w=(1.0,))),
])
def test_residual_solves_only_its_stencil(monkeypatch, name, params, p):
    # 4 shifted points per variable, stacked in one transform; the center
    # point itself is not solved, alone or as a stacked field.
    form = builtin_form(name, params)
    stacks, solves = [], []

    def stacking(form_, p_, points, *args):
        stacks.append(points)
        return stencil(form_, p_, points, *args)

    stencil = solver._solve_stencil
    monkeypatch.setattr(solver, "_solve_stencil", stacking)
    monkeypatch.setattr(solver, "solve_point", lambda *args, **kwargs: solves.append(args))
    residual(form, p, SPEC, h=1e-3)
    assert solves == [] and len(stacks) == 1
    assert len(stacks[0]) == 4 * (form.n + form.k)
    assert not any(np.array_equal(q.w, p.w) and np.array_equal(q.z, p.z) for q in stacks[0])


def stencil_of(form, p, h):
    """The points of ``residual``'s stencil at ``p``."""
    return [q for v, _ in form.terms() for q in _fd_stencil(p, v, h)]


@pytest.mark.parametrize("name, p, delta", [
    ("gaussian_form", point(w=(0.7 + 0.4j,)), 1),
    ("opm_metric_form", point(z=(0.5,), w=(0.9 + 0.8j,)), 1),
    ("product_form_k2", point(w=(0.6 - 0.2j, 1.0 + 0.5j)), 2),
    ("gaussian_form", point(w=(13.0 * np.exp(0.3j),)), 1),
])
def test_stacked_stencil_values_match_their_own_solves(name, p, delta):
    # Each stacked field is its point's slice, translated to the common
    # center: its value is that point's solve, on another layout, so the
    # two agree within their refinement estimates and rounding.  The last
    # center is past the switch radius, where the stack splits.
    form = builtin_form(name)
    frozen = replace(SPEC, r_max=solve_point(form, p, delta, SPEC).r_used)
    points = stencil_of(form, p, 1e-3)
    stack = solver._solve_stencil(form, p, points, delta, frozen)
    values, richardson = stack.value, stack.richardson
    assert len(values) == len(points) == 4 * (form.n + form.k)
    for q, value in zip(points, values):
        res = solve_point(form, q, delta, frozen)
        assert abs(value - res.value) <= richardson + res.richardson + solver._ROUNDING * abs(res.value)
        assert abs(value - form.primitive_at(q)) <= richardson + res.tail


@pytest.mark.parametrize("name, p, delta", [
    ("gaussian_form", point(w=(0.7 + 0.4j,)), 1),
    ("opm_metric_form", point(z=(0.5,), w=(0.9 + 0.8j,)), 1),
    ("product_form_k2", point(w=(0.6 - 0.2j, 1.0 + 0.5j)), 2),
    ("rational_form", point(w=(13.0 * np.exp(0.3j),)), 1),
])
def test_stack_of_one_field_returns_the_solve_bits(name, p, delta):
    form = builtin_form(name)
    frozen = replace(SPEC, r_max=solve_point(form, p, delta, SPEC).r_used)
    stack = solver._solve_stencil(form, p, [p], delta, frozen)
    (value,), richardson = stack.value, stack.richardson
    res = solve_point(form, p, delta, frozen)
    assert (value.real.hex(), value.imag.hex(), richardson.hex()) == (
        res.value.real.hex(), res.value.imag.hex(), res.richardson.hex())


def test_residual_floor_counts_the_truncation_circle(monkeypatch):
    # At the acceptance spec rational_form's radius is 32, and the
    # boundary term of the truncation circle, about 9.5e-7 (its circle
    # mean of b), is far above h^2 = 1e-8; the refinement and rounding
    # floors alone stay below h^2.
    form = builtin_form("rational_form")
    p = point(w=(0.3 + 0.2j,))
    rep = residual(form, p, SPEC, h=1e-4)
    assert rep.noisy is True
    assert solve_point(form, p, 1, SPEC).r_used == 32.0
    assert rep.w_residuals[0] > 1e-8
    monkeypatch.setattr(solver, "_boundary_floor", lambda *args: 0.0)
    assert residual(form, p, SPEC, h=1e-4).noisy is False


@pytest.mark.parametrize("name, p, delta, spec", [
    ("gaussian_form", point(w=(0.7 + 0.4j,)), 1, SPEC),
    ("product_form_k2", point(w=(0.6 - 0.2j, 1.0 + 0.5j)), 2, SPEC),
    ("rational_form", point(w=(13.0 * np.exp(0.3j),)), 1, SPEC),
    ("gaussian_form", point(w=(0.7 + 0.4j,)), 1, replace(SPEC, r_max=40.0)),
])
def test_stencil_radius_is_the_solve_radius_at_its_center(name, p, delta, spec):
    # The stencil resolves its one radius at p, as the solve at p does:
    # below and past the switch radius, and an explicit r_max as given.
    form = builtin_form(name)
    points = stencil_of(form, p, 1e-3)
    stack = solver._solve_stencil(form, p, points, delta, spec)
    assert stack.r_used == solve_point(form, p, delta, spec).r_used
    assert spec.r_max == 0.0 or stack.r_used == spec.r_max


def test_residual_rejects_an_explicit_radius_that_does_not_clear_its_center():
    form = builtin_form("gaussian_form")
    with pytest.raises(TruncationError):
        residual(form, point(w=(3.0,)), replace(SPEC, r_max=6.0), h=1e-3)


@pytest.mark.parametrize("delta", [0, 3])
def test_residual_rejects_a_slot_out_of_range(delta):
    form = builtin_form("product_form_k2")
    with pytest.raises(IndexError):
        residual(form, point(w=(0.5, 0.3)), SPEC, h=1e-3, delta=delta)


def test_oracle_excess_reads_the_given_solves(monkeypatch):
    gauss = builtin_form("gaussian_form")
    p = point(w=(1.0,))
    res = solve_point(gauss, p, 1, SPEC)

    def no_solve(*args, **kwargs):
        raise AssertionError("oracle_excess must not solve")

    monkeypatch.setattr(solver, "solve_point", no_solve)
    assert oracle_excess(gauss, []) == 0.0
    assert oracle_excess(gauss, [(p, res)]) == 0.0
    off = replace(res, value=res.value + 1.0)
    assert oracle_excess(gauss, [(p, res), (p, off)]) == abs(off.value - gauss.primitive_at(p)) - res.err_estimate


def test_residual_rejects_bad_step():
    gauss = builtin_form("gaussian_form")
    with pytest.raises(ValueError):
        residual(gauss, point(w=(1.0,)), SPEC, h=0.0)


def test_decay_profile_gaussian_matches_potential():
    gauss = builtin_form("gaussian_form")
    prof = decay_profile(gauss, (), (1.0,), [1.0, 2.0, 4.0, 8.0], SPEC)
    for row in prof.rows:
        exact = (1.0 - np.exp(-row.radius ** 2)) / row.radius
        assert row.abs_value == pytest.approx(exact, abs=1e-7)
    assert prof.within_envelope()
    values = [r.abs_value for r in prof.rows]
    assert values[-1] < values[0]


def test_decay_profile_product_matches_potential():
    form = builtin_form("product_form_k2")
    prof = decay_profile(form, (), (1.0, 0.0), [1.0, 2.0, 4.0, 8.0], SPEC)
    for row in prof.rows:
        assert row.abs_value == pytest.approx(1.0 / (1.0 + row.radius ** 2), abs=1e-7)
    assert prof.within_envelope()


def test_decay_profile_zero_form():
    zero = builtin_form("zero_form")
    prof = decay_profile(zero, (), (1.0,), [1.0, 2.0], SPEC)
    assert all(row.abs_value == 0.0 for row in prof.rows)


def test_solution_bounded_by_kernel_mass():
    # |B| <= (C / 2 pi) * (kernel mass) everywhere, straight from the
    # envelope chain; sample a grid to confirm with room to spare.
    gauss = builtin_form("gaussian_form")
    cap = (gauss.decay.c_bound / (2.0 * np.pi)) * kernel_mass_bound(gauss.decay.epsilon).numeric_value
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = 3.0 * (rng.standard_normal() + 1j * rng.standard_normal())
        res = solve_point(gauss, point(w=(w,)), 1, SPEC)
        assert abs(res.value) <= cap


@pytest.mark.parametrize("radius", [2.0, 4.0, 8.0])
def test_bm_reconstruction_gaussian(radius):
    gauss = builtin_form("gaussian_form").b_coeffs[0]
    rec = bm_reconstruct(gauss, point(w=(0.0,)), 1, radius, SPEC)
    assert rec.reconstruction_gap <= 1e-6
    # boundary term is the circle mean, exp(-R^2) for this field
    assert abs(rec.boundary) == pytest.approx(np.exp(-radius ** 2), rel=1e-6, abs=1e-20)
    assert abs(rec.boundary) <= 1.0 / (1.0 + radius ** 2)


def test_bm_boundary_decreasing_in_radius():
    gauss = builtin_form("gaussian_form").b_coeffs[0]
    values = [
        abs(bm_reconstruct(gauss, point(w=(0.0,)), 1, radius, SPEC).boundary)
        for radius in (2.0, 4.0, 8.0)
    ]
    assert values[0] > values[1] > values[2]


def test_bm_constant_field():
    const = ScalarField(
        evaluate=lambda z, w: np.full(np.shape(w[..., 0]), 2.5 + 1.0j, dtype=complex),
        wirtinger={(FIBER, 1): lambda z, w: np.zeros(np.shape(w[..., 0]), complex)},
    )
    rec = bm_reconstruct(const, point(w=(0.7 + 0.1j,)), 1, 3.0, SPEC)
    assert rec.interior == 0.0
    assert rec.boundary == pytest.approx(2.5 + 1.0j, abs=1e-12)


def test_bm_requires_analytic_derivative():
    plain = ScalarField(evaluate=lambda z, w: np.exp(-np.abs(w[..., 0]) ** 2))
    with pytest.raises(MissingDerivativeError):
        bm_reconstruct(plain, point(w=(0.0,)), 1, 2.0, SPEC)


def test_bm_non_finite_boundary_sample_raises():
    # NaN on the circle |w - center| = radius alone: the interior integral
    # and the value at the center stay finite, the circle average does not.
    center, radius = 0.7 + 0.1j, 3.0

    def nan_on_circle(z, w):
        return np.where(np.isclose(np.abs(w[..., 0] - center), radius), np.nan, 1.0) + 0j

    field = ScalarField(evaluate=nan_on_circle,
                        wirtinger={(FIBER, 1): lambda z, w: np.zeros(np.shape(w[..., 0]), complex)})
    with pytest.raises(NonFiniteSampleError):
        bm_reconstruct(field, point(w=(center,)), 1, radius, SPEC)


@pytest.mark.parametrize("name, p", [
    ("gaussian_form", point(w=(0.7 + 0.4j,))),
    ("opm_metric_form", point(z=(0.5,), w=(0.9 + 0.8j,))),
    ("product_form_k2", point(w=(0.6 - 0.2j, 1.0 + 0.5j))),
])
def test_slices_equal_the_explicit_embedding_bitwise(name, p):
    # A one-slot fiber passes the samples as the slot column without
    # copying them; every slot of every fiber evaluates the coefficient
    # on the embedding of the samples into the frozen fiber point.
    form = builtin_form(name)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    for delta in range(1, form.k + 1):
        w = np.empty(x.shape + (p.k,), dtype=complex)
        w[...] = p.w
        w[..., delta - 1] = x
        want = form.b_coeffs[delta - 1].evaluate(p.z, w)
        got = solver.fiber_slice(form, p, delta).value(x)
        assert got.shape == x.shape
        assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def test_solve_determinism():
    form = builtin_form("opm_metric_form", {"m": 1})
    p = point(z=(0.5,), w=(1.0 + 0.5j,))
    r1 = solve_point(form, p, 1, SPEC)
    r2 = solve_point(form, p, 1, SPEC)
    assert r1.value == r2.value and r1.err_estimate == r2.err_estimate


def test_solve_point_threads_match_serial_bitwise():
    # Backs the README claim that calls may run concurrently from threads,
    # which share the cached rule tables: the threads start from cold
    # caches and switch often.  The profile rows read the panel tables.
    def solve(form, p):
        res = solve_point(form, p, 1, SPEC)
        return res.value.real, res.value.imag, res.err_estimate, res.r_used

    def profile(off_norm, epsilon, x):
        pt = f_profile(off_norm, epsilon, [x], SPEC)[0]
        return pt.value, pt.err_estimate, pt.r_used

    cases = [
        (solve, builtin_form("gaussian_form"), point(w=(0.7 + 0.4j,))),
        (solve, builtin_form("rational_form"), point(w=(-1.1 + 0.3j,))),
        (solve, builtin_form("product_form_k2"), point(w=(0.6 - 0.2j, 1.0 + 0.5j))),
        (solve, builtin_form("opm_metric_form"), point(z=(0.5,), w=(0.9 + 0.8j,))),
        (profile, 0.0, 1.0, 1.3),
        (profile, 1.0, 0.5, 16.0),
    ] * 2

    def fingerprint(case):
        return tuple(float.hex(x) for x in case[0](*case[1:]))

    serial = [fingerprint(c) for c in cases]
    for cache in (quadrature._panel_table, quadrature._radial_panels, quadrature._unit_tables, cauchy._unit_circle,
                  cauchy._half_circle):
        cache.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(fingerprint, cases, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


@pytest.mark.parametrize("name, p", [
    ("gaussian_form", point(w=(0.7 + 0.4j,))),
    ("gaussian_form", point(w=(-1.2 - 1.6j,))),
    ("rational_form", point(w=(-1.1 + 0.3j,))),
    ("rational_form", point(w=(1.0 + 1.0j,))),
    ("product_form_k2", point(w=(0.6 - 0.2j, 1.0 + 0.5j))),
    ("product_form_k2", point(w=(2.0j, 0.5 - 0.3j))),
    ("opm_metric_form", point(z=(0.5,), w=(0.9 + 0.8j,))),
    ("opm_metric_form", point(z=(0.5,), w=(-2.0,))),
])
def test_smooth_slices_keep_the_initial_angle_count(name, p):
    # Only the radial rule needs refining here; the angles stay put.  (From
    # |w| ~ 1.5 on, rational_form takes one doubling: the half-angle
    # estimate is the error of the n/2-point rule, 1.5e-8 at |w| = 1.5.)
    res = solve_point(builtin_form(name), p, 1, SPEC)
    assert res.n_theta == SPEC.n_theta
    assert 1 <= res.levels <= SPEC.max_refinements


def test_narrow_angular_bump_doubles_the_angles():
    # Far from the origin the gaussian is a narrow bump on each ring of the
    # one-center rule, so the half-angle estimate asks for more angles; the
    # estimate still dominates the true error.  Past the switch radius a
    # solve splits, so the one-center rule is called directly.
    form = builtin_form("gaussian_form")
    p = point(w=(64.0 * np.exp(0.37j),))
    value, richardson, _, n_theta, _ = one_center(form, p, SPEC)()
    assert n_theta > SPEC.n_theta
    tail = one_center_tail(form.decay, 64.0, one_center_radius(form.decay, 64.0, SPEC))
    assert abs(value - form.primitive_at(p)) <= richardson + tail


@pytest.mark.parametrize("n_theta, w", [
    (32, 64.0 * np.exp(1j * np.pi / 32)),
    (64, 128.0 * np.exp(1j * np.pi / 64)),
])
def test_bump_between_all_initial_rays_is_found(n_theta, w):
    # On the one-center rule the origin lies midway between two of the
    # n_theta rays, 6.3 from both, so every sample of the n_theta-point
    # rule is below 1e-17 and its half-angle estimate reads 0.  The reach
    # probe (twice the angles on the level-0 radii at level 1) puts a ray
    # on the bump.
    form = builtin_form("gaussian_form")
    p = point(w=(w,))
    spec = QuadratureSpec(n_theta=n_theta)
    value, richardson, _, got_n_theta, _ = one_center(form, p, spec)()
    assert got_n_theta > n_theta
    tail = one_center_tail(form.decay, abs(w), one_center_radius(form.decay, abs(w), spec))
    assert abs(value - form.primitive_at(p)) <= richardson + tail


def test_angular_estimate_above_the_radial_difference_doubles_at_the_cap():
    # At the last radial level the angular estimate (about 0.81 tol) is
    # below the tolerance but larger than the radial estimate (about 0.26
    # tol), and the two together are above it; doubling the angles brings
    # the solve under the tolerance.  The coarse radial order keeps the
    # radial estimate above the tolerance until level 2, and the angular
    # estimate below it at level 0, so no panel doubles before the cap.
    # At n_r = 3 and -0.78 - 1.29i the half-order radial estimate took
    # this path; the extrapolated one stops there with 64 angles.
    form = builtin_form("rational_form")
    for n_r, w, doubles in [(3, -0.78 - 1.29j, False), (4, 0.15 - 1.44j, True)]:
        spec = QuadratureSpec(n_r=n_r, n_theta=64, tol_abs=1e-8, tol_tail=1e-4, max_refinements=2)
        p = point(w=(w,))
        res = solve_point(form, p, 1, spec)
        assert res.levels == spec.max_refinements
        assert res.richardson <= spec.tol_abs
        assert (res.n_theta > spec.n_theta) == doubles
        assert abs(res.value - form.primitive_at(p)) <= res.err_estimate
