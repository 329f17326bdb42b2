from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from dbar_fiber.cauchy import QuadratureSpec, kernel_mass_bound
from dbar_fiber.errors import MissingDerivativeError
from dbar_fiber.fields import FIBER, ScalarField, builtin_form, point
from dbar_fiber import solver
from dbar_fiber.solver import (
    bm_reconstruct,
    decay_profile,
    delta_consistency,
    freeze_spec,
    oracle_excess,
    residual,
    solve_point,
)

SPEC = QuadratureSpec(n_r=24, n_theta=64, tol_abs=1e-8, tol_tail=1e-4)


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


def test_freeze_spec_pins_radius():
    gauss = builtin_form("gaussian_form")
    frozen = freeze_spec(gauss, point(w=(1.0,)), 1, SPEC)
    assert frozen.r_max > 0
    # an explicit radius passes through untouched
    explicit = QuadratureSpec(r_max=40.0)
    assert freeze_spec(gauss, point(w=(1.0,)), 1, explicit).r_max == 40.0


def test_residual_zero_form_exact():
    zero = builtin_form("zero_form", {"k": 2})
    rep = residual(zero, point(w=(0.5, 0.5)), SPEC, h=1e-3)
    assert rep.max_residual == 0.0


def test_residual_gaussian():
    gauss = builtin_form("gaussian_form")
    rep = residual(gauss, point(w=(1.0,)), SPEC, h=1e-3)
    assert rep.w_residuals[0] <= 1e-4
    assert not rep.noisy


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
    with pytest.warns(UserWarning, match="noise limited"):
        floor = residual(form, p, SPEC, h=1e-5).max_residual
    if rep_h.max_residual > 25.0 * floor:
        assert rep_h2.max_residual <= 0.3 * rep_h.max_residual


@pytest.mark.parametrize("name, params, p", [
    ("gaussian_form", {}, point(w=(1.0,))),
    ("opm_metric_form", {"m": 1}, point(z=(1.0,), w=(1.0,))),
])
def test_residual_solves_only_its_stencil(monkeypatch, name, params, p):
    # 4 shifted points per variable; the center point itself is not solved.
    form = builtin_form(name, params)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_point(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_point", counting)
    residual(form, p, SPEC, h=1e-3)
    assert len(calls) == 4 * (form.n + form.k)
    assert not any(np.array_equal(q.w, p.w) and np.array_equal(q.z, p.z) for q in calls)


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


def test_solve_determinism():
    form = builtin_form("opm_metric_form", {"m": 1})
    p = point(z=(0.5,), w=(1.0 + 0.5j,))
    r1 = solve_point(form, p, 1, SPEC)
    r2 = solve_point(form, p, 1, SPEC)
    assert r1.value == r2.value and r1.err_estimate == r2.err_estimate


def test_solve_point_threads_match_serial_bitwise():
    # Backs the README claim that calls may run concurrently from threads.
    cases = [
        (builtin_form("gaussian_form"), point(w=(0.7 + 0.4j,))),
        (builtin_form("rational_form"), point(w=(-1.1 + 0.3j,))),
        (builtin_form("product_form_k2"), point(w=(0.6 - 0.2j, 1.0 + 0.5j))),
        (builtin_form("opm_metric_form"), point(z=(0.5,), w=(0.9 + 0.8j,))),
    ] * 2

    def fingerprint(case):
        res = solve_point(*case, 1, SPEC)
        return tuple(float.hex(x) for x in (res.value.real, res.value.imag, res.err_estimate, res.r_used))

    serial = [fingerprint(c) for c in cases]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(fingerprint, cases, timeout=120))
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
    # Far from the origin the gaussian is a narrow bump on each ring, so
    # the half-angle estimate asks for more angles; the estimate still
    # dominates the true error.
    form = builtin_form("gaussian_form")
    p = point(w=(64.0 * np.exp(0.37j),))
    res = solve_point(form, p, 1, SPEC)
    assert res.n_theta > SPEC.n_theta
    assert abs(res.value - form.primitive_at(p)) <= res.err_estimate


@pytest.mark.parametrize("n_theta, w", [
    (32, 64.0 * np.exp(1j * np.pi / 32)),
    (64, 128.0 * np.exp(1j * np.pi / 64)),
])
def test_bump_between_all_initial_rays_is_found(n_theta, w):
    # The origin lies midway between two of the n_theta rays, 6.3 from
    # both, so every sample of the n_theta-point rule is below 1e-17 and
    # its half-angle estimate reads 0.  The reach probe (twice the angles
    # on the level-0 radii at level 1) puts a ray on the bump.
    form = builtin_form("gaussian_form")
    p = point(w=(w,))
    res = solve_point(form, p, 1, QuadratureSpec(n_theta=n_theta))
    assert res.n_theta > n_theta
    assert abs(res.value - form.primitive_at(p)) <= res.err_estimate


def test_angular_estimate_above_the_radial_difference_doubles_at_the_cap():
    # At the last radial level the angular estimate (about 0.88 tol) is
    # below the tolerance but larger than the radial difference (about 0.22
    # tol), and the two together are above it; doubling the angles brings
    # the solve under the tolerance.  The coarse radial order keeps the
    # radial difference above the tolerance until level 2, and the angular
    # estimate below it at level 0, so no panel doubles before the cap.
    spec = QuadratureSpec(n_r=3, n_theta=64, tol_abs=1e-8, tol_tail=1e-4, max_refinements=2)
    form = builtin_form("rational_form")
    p = point(w=(-0.78 - 1.29j,))
    res = solve_point(form, p, 1, spec)
    assert res.levels == spec.max_refinements
    assert res.richardson <= spec.tol_abs
    assert res.n_theta > spec.n_theta
    assert abs(res.value - form.primitive_at(p)) <= res.err_estimate
