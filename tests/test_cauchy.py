import dataclasses
import functools

import numpy as np
import pytest

from dbar_fiber import cauchy
from dbar_fiber.cauchy import (
    QuadratureSpec,
    SliceField,
    cauchy_transform,
    f_profile,
    g_bound_check,
    kernel_mass_bound,
    tail_bound,
)
from dbar_fiber.errors import NonFiniteSampleError, TruncationError
from dbar_fiber.fields import DecayBudget, builtin_form, point
from dbar_fiber.quadrature import half_line_decay_mass, radial_panel_rule
from dbar_fiber.solver import fiber_slice, solve_point
from test_quadrature import moment_weights, panel_partition, reference_tail_integral

SPEC = QuadratureSpec(n_r=24, n_theta=64, tol_abs=1e-8, tol_tail=1e-4)


def gaussian_slice():
    return SliceField(value=lambda z: np.exp(-np.abs(z) ** 2) + 0.0j, decay=DecayBudget(1.0, 1.0))


def gaussian_oracle(w):
    w = complex(w)
    return 0.0 if w == 0 else -np.expm1(-abs(w) ** 2) / w


def rational_slice():
    return SliceField(
        value=lambda z: 1.0 / (1.0 + np.abs(z) ** 2) ** 2 + 0.0j, decay=DecayBudget(3.0, 1.5)
    )


def rational_oracle(w):
    w = complex(w)
    return np.conj(w) / (1.0 + abs(w) ** 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n_theta=7)
    with pytest.raises(ValueError):
        QuadratureSpec(n_theta=10, n_r=1)
    with pytest.raises(ValueError):
        QuadratureSpec(tol_abs=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(r_max=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_refinements=0)


@pytest.mark.parametrize("name", ["r_max", "tol_abs", "tol_tail"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_spec_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        QuadratureSpec(**{name: bad})


def test_zero_field_transforms_to_exact_zero():
    zero = SliceField(value=lambda z: np.zeros(np.shape(z), complex), decay=DecayBudget(1.0, 1.0))
    res = cauchy_transform(zero, 0.7 + 0.3j, SPEC)
    assert res.value == 0.0


def test_gaussian_center_zero_vanishes_by_symmetry():
    res = cauchy_transform(gaussian_slice(), 0.0, SPEC)
    assert abs(res.value) < 1e-13


@pytest.mark.parametrize("w", [1.0, 0.5 + 0.5j, -2.0 + 1.0j, 3.5j])
def test_gaussian_transform_oracle(w):
    res = cauchy_transform(gaussian_slice(), w, SPEC)
    exact = gaussian_oracle(w)
    assert abs(res.value - exact) <= res.err_estimate
    assert abs(res.value - exact) <= 1e-8


@pytest.mark.parametrize("w", [1.0, 2.0 + 1.0j, 0.1j])
def test_rational_transform_oracle(w):
    res = cauchy_transform(rational_slice(), w, QuadratureSpec(n_r=24, n_theta=64, tol_tail=1e-6))
    exact = rational_oracle(w)
    assert abs(res.value - exact) <= res.err_estimate
    assert abs(res.value - exact) <= 1e-6


def test_transform_rejects_non_finite_samples():
    bad = SliceField(
        value=lambda z: np.where(np.abs(z) > 1.0, np.inf, 1.0) + 0.0j, decay=DecayBudget(1.0, 1.0)
    )
    with pytest.raises(NonFiniteSampleError):
        cauchy_transform(bad, 0.0, SPEC)


def bad_ring_field(bad, row):
    """1 on every sample but those of ring ``row`` named by ``bad``: a NaN;
    +inf and -inf; or +inf at angle 0, where the kernel phase 1 - 0i has a
    zero component."""
    def fn(x):
        vals = np.ones(x.shape, dtype=complex)
        at = np.isclose(np.abs(x[:, 0]), row + 1.0)
        if bad == "nan":
            vals[at, 3] = np.nan
        elif bad == "both infinities":
            vals[at, 1], vals[at, 5] = np.inf, -np.inf
        else:
            vals[at, 0] = np.inf
        return vals
    return fn


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("with_kernel_phase", [False, True])
@pytest.mark.parametrize("bad", ["nan", "both infinities", "inf on a zero phase component"])
@pytest.mark.parametrize("row", [0, 4])
def test_ring_sums_raise_on_a_non_finite_sample(monkeypatch, bad, row, with_kernel_phase):
    # Blocks of two rings of 8 angles over 5 radii: row 0 in the first,
    # full block, row 4 alone in the last, partial one.  The check reads
    # the ring sums, which a non-finite sample makes non-finite.
    monkeypatch.setattr(cauchy, "_BLOCK", 16)
    radii, unit = np.arange(1.0, 6.0), cauchy._unit_circle(8)
    phase = np.conj(unit) if with_kernel_phase else None
    ones = cauchy._ring_sums(lambda x: np.ones(x.shape, dtype=complex), 1, 0j, radii, unit, phase)
    assert np.all(np.isfinite(ones))
    with pytest.raises(NonFiniteSampleError):
        cauchy._ring_sums(bad_ring_field(bad, row), 1, 0j, radii, unit, phase)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("with_kernel_phase", [False, True])
def test_ring_sums_raise_when_finite_samples_overflow(with_kernel_phase):
    # 1e308 on each of 8 angles, times the conjugate phase where there is
    # one: every sample is finite, the ring sum is not.
    unit = cauchy._unit_circle(8)

    def huge(x):
        return 1e308 * (x / np.abs(x) if with_kernel_phase else np.ones(x.shape, dtype=complex))

    with pytest.raises(NonFiniteSampleError):
        cauchy._ring_sums(huge, 1, 0j, np.array([1.0, 2.0]), unit, np.conj(unit) if with_kernel_phase else None)


def test_tail_bound_closed_form_and_monotone():
    budget = DecayBudget(1.0, 1.0)
    # center 0: bound is 2*C/R, above the envelope's tail 2*C*(pi/2 - arctan R)
    for radius in (10.0, 100.0):
        assert tail_bound(budget, 0.0, radius) == 2.0 / radius
        assert tail_bound(budget, 0.0, radius) >= 2.0 * (np.pi / 2 - np.arctan(radius))
    assert tail_bound(budget, 0.0, 100.0) <= 2e-2
    radii = [8.0, 16.0, 64.0, 256.0]
    bounds = [tail_bound(budget, 1.0, r) for r in radii]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    # R * bound(R) tends to the constant 2 C / eps
    assert 1e5 * tail_bound(budget, 0.0, 1e5) == pytest.approx(2.0, rel=1e-4)
    # past the switch radius: 2 C R / (R - a) * R**-eps / eps
    assert tail_bound(DecayBudget(0.5, 1.5), 20.0, 64.0) == pytest.approx(3.0 * 64.0 / 44.0 * 2.0 / 8.0, rel=1e-15)


def test_tail_bound_rejects_small_radius():
    with pytest.raises(ValueError):
        tail_bound(DecayBudget(1.0, 1.0), 2.0, 3.9)


def transform_radius(budget, a, spec):
    """The transform's truncation radius at a center of magnitude ``a``."""
    return cauchy._radius_and_tail(lambda r: tail_bound(budget, a, r), a, spec)[0]


def test_resolve_radius_respects_explicit_and_cap():
    budget = DecayBudget(1.0, 1.0)
    spec = QuadratureSpec(r_max=32.0)
    assert transform_radius(budget, 1.0, spec) == 32.0
    with pytest.raises(TruncationError):
        transform_radius(budget, 20.0, QuadratureSpec(r_max=32.0))
    # 2 C x**-eps / eps with eps = 0.01 is still above 1e-9 at the radius limit
    with pytest.raises(TruncationError):
        transform_radius(DecayBudget(0.01, 1.0), 0.0, QuadratureSpec(tol_tail=1e-9))


@pytest.mark.parametrize("profile", [False, True])
def test_radius_search_raises_when_its_start_is_not_admissible(profile):
    # The start max(8, 2|w| + 4) rounds to 2|w| from |w| = 2**54 on, as at
    # 1e300 and 1e20: no radius is tried, for the transform's tail bound
    # and for the profile's alike.
    budget = DecayBudget(1.0, 1.0)
    for a in (1e300, 1e20):
        tail = (lambda r: profile_tail_bound(1.0, a, r)) if profile else (lambda r: tail_bound(budget, a, r))
        with pytest.raises(TruncationError):
            cauchy._radius_and_tail(tail, a, QuadratureSpec())
        with pytest.raises(TruncationError):
            if profile:
                f_profile(0.0, 1.0, [a], QuadratureSpec())
            else:
                cauchy_transform(SliceField(lambda x: 0.0 * x, budget), a, QuadratureSpec())


# The sweep's budgets share their integrals across the constants C.
cached_tail_integral = functools.lru_cache(maxsize=4096)(reference_tail_integral)


def reference_tail(decay, off_norm, a, radius):
    """The tail bound as the reference quadrature gives it: ``2 C`` times
    the decay tail integral with ``q = 1 + off_norm`` from ``R - a``, and
    past the switch radius ``2 C R / (R - a)`` times the one from R."""
    eps, q = decay.epsilon, 1.0 + off_norm
    if a < cauchy._SWITCH:
        return 2.0 * decay.c_bound * cached_tail_integral(eps, q, radius - a)
    return 2.0 * decay.c_bound * radius / (radius - a) * cached_tail_integral(eps, q, radius)


def reference_radius_search(decay, off_norm, a, spec):
    """``(radius, tail)`` of the doubling search on ``reference_tail``, or
    None when the next doubling passes the radius limit first."""
    radius = max(8.0, 2.0 * a + 4.0)
    while True:
        tail = reference_tail(decay, off_norm, a, radius)
        if tail <= spec.tol_tail:
            return radius, tail
        radius *= 2.0
        if radius > cauchy._R_LIMIT:
            return None


def test_closed_form_radius_is_the_reference_radius_on_the_sweep(monkeypatch):
    # 600 cases at the acceptance spec, both sides of the switch radius:
    # the closed-form tail is at least the reference tail with q = 1 +
    # off_norm, so its radius is never smaller; it is the same radius on
    # all 600, and none raises: eps = 0.5 meets 1e-4 below the radius limit.
    monkeypatch.setattr(cauchy, "_refined_polar", lambda *args, **kwargs: (0j, 0.0, 1, 32, 0))
    same = raised = 0
    for eps in (0.5, 1.0, 2.0, 3.0):
        for c in (1.0, 1.5, 2.0):
            for off in (0.0, 1.0, 4.0, 9.0, 16.0):
                for a in (0.0, 1.0, 2.0, 4.0, 8.0, 11.5, 12.0, 16.0, 32.0, 64.0):
                    decay = DecayBudget(eps, c)
                    want = reference_radius_search(decay, off, a, SPEC)
                    if want is None:
                        raised += 1
                        with pytest.raises(TruncationError):
                            cauchy_transform(SliceField(lambda z: 0.0 * z, decay), a, SPEC)
                        continue
                    res = cauchy_transform(SliceField(lambda z: 0.0 * z, decay), a, SPEC)
                    assert res.r_used >= want[0]
                    assert res.tail >= reference_tail(decay, off, a, res.r_used)
                    same += res.r_used == want[0]
    assert (same, raised) == (600, 0)


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
def test_kernel_mass_under_bound(eps):
    km = kernel_mass_bound(eps)
    assert km.numeric_value <= km.analytic_bound
    p = 1.0 + eps
    reflection = 4.0 * np.pi * (np.pi / p) / np.sin(np.pi / p)
    assert km.numeric_value == pytest.approx(reflection, rel=1e-9)


def test_kernel_mass_exact_at_eps_one():
    km = kernel_mass_bound(1.0)
    assert km.numeric_value == pytest.approx(2.0 * np.pi ** 2, rel=1e-10)
    assert km.analytic_bound == pytest.approx(8.0 * np.pi, rel=1e-15)


def test_kernel_mass_large_eps_limit():
    km = kernel_mass_bound(50.0)
    assert km.analytic_bound == pytest.approx(4.0 * np.pi * 1.02, rel=1e-12)
    assert km.numeric_value <= km.analytic_bound


def test_g_bound_values():
    gb = g_bound_check(0.0, 1.0)
    assert gb.numeric_value == pytest.approx(np.pi, rel=1e-10)
    assert gb.analytic_bound == 4.0
    assert gb.ok
    shifted = g_bound_check(3.0, 1.0)
    assert shifted.numeric_value < gb.numeric_value
    # off_norm enters as an additive constant: exact closed form at eps = 1
    assert shifted.numeric_value == pytest.approx(np.pi / np.sqrt(4.0), rel=1e-10)


PROFILE_SPEC = QuadratureSpec(n_r=12, n_theta=128, tol_abs=1e-6, tol_tail=2e-3, max_refinements=3)


def test_f_profile_matches_kernel_mass_at_origin():
    prof = f_profile(0.0, 1.0, [0.0], PROFILE_SPEC)[0]
    assert abs(prof.value - 2.0 * np.pi ** 2) <= 1.2 * prof.err_estimate + 1e-6


def test_f_profile_monotone_and_vanishing():
    prof = f_profile(0.0, 1.0, [0.0, 1.0, 2.0, 4.0, 8.0, 16.0], PROFILE_SPEC)
    values = [p.value for p in prof]
    errs = [p.err_estimate for p in prof]
    for (v1, e1), (v2, e2) in zip(zip(values, errs), zip(values[1:], errs[1:])):
        assert v2 <= v1 + 2.0 * max(e1, e2)
    # strict decrease is far larger than the error bars here
    assert values[-1] < 0.25 * values[0]


def test_f_profile_large_offset_kills_mass():
    tiny = f_profile(1e8, 1.0, [0.0], PROFILE_SPEC)[0]
    base = f_profile(0.0, 1.0, [0.0], PROFILE_SPEC)[0]
    assert tiny.value <= 1e-2 * base.value


def test_f_profile_input_validation():
    with pytest.raises(ValueError):
        f_profile(0.0, 1.0, [1.0, 1.0], PROFILE_SPEC)
    with pytest.raises(ValueError):
        f_profile(0.0, 1.0, [-1.0], PROFILE_SPEC)
    with pytest.raises(TruncationError):
        f_profile(0.0, 1.0, [8.0], QuadratureSpec(r_max=10.0))


def test_f_profile_raises_when_no_radius_under_the_cap_meets_tol_tail():
    # The profile's tail is a hard contract, as the transform's is: at eps
    # = 0.01 and x = 64 the tail bound pi t/(1 - t) R**-eps / eps, t =
    # (x/R)**2, is about 4e-295 at the radius limit, above tol_tail = 1e-300.
    # At x = 0 there is no tail, so no radius fails, at any off_norm.
    with pytest.raises(TruncationError):
        f_profile(0.0, 0.01, [64.0], QuadratureSpec(tol_tail=1e-300))
    assert f_profile(1e200, 0.01, [0.0], QuadratureSpec())[0].r_used == 8.0


def test_f_profile_at_the_origin_is_the_closed_form():
    # At x = 0, A = 2 pi, so F is 4 pi half_line_decay_mass(eps, q) with no
    # tail and no quadrature: bit for bit, its estimate a rounding floor.
    for eps in (0.01, 0.1, 1.0, 7.0):
        for off in (0.0, 4.0, 1e8, 1e200):
            pt = f_profile(off, eps, [0.0, 1.0], QuadratureSpec())[0]
            closed = 4.0 * np.pi * half_line_decay_mass(eps, 1.0 + off)
            assert pt.value == closed and (pt.r_used, pt.err_estimate) == (8.0, cauchy._ROUNDING * closed)


# --- the profile's tail bound --------------------------------------------------


def profile_tail_bound(off_norm, epsilon, x, radius):
    """U = (pi/2) t/(1 - t) * min(2 R**-eps / eps, 2 R / q) with t = (x/R)**2
    and q = 1 + off_norm: the bound on the profile's omitted mass past R
    that its docstring states."""
    t = (x / radius) ** 2
    return np.pi / 2.0 * t / (1.0 - t) * min(2.0 * radius ** -epsilon / epsilon, 2.0 * radius / (1.0 + off_norm))


def reference_profile_tail(off_norm, epsilon, x, radius):
    """The omitted mass ``integral_R^inf g (A - 2 pi) ds`` as the reference
    quadrature gives it: 20-point Gauss-Legendre on 200 octaves past R, with
    A from ``agm``; past them the integrand is below 2 pi x**2 s**(-3-eps)."""
    q, p = 1.0 + off_norm, 1.0 + epsilon
    nodes, weights = np.polynomial.legendre.leggauss(20)
    lo = radius * 2.0 ** np.arange(200.0)[:, None]
    s = 1.5 * lo + 0.5 * lo * nodes
    kernel = 2.0 * np.pi * s / ((s + x) * agm(1.0, (s - x) / (s + x))) - 2.0 * np.pi
    return float(np.sum(0.5 * lo * weights * 2.0 / (q + s ** p) * kernel))


def test_f_profile_radius_and_tail_are_the_transform_search():
    # r_used is the first doubling of max(8, 2x + 4) whose tail bound U
    # meets tol_tail, and U bounds the omitted mass T from both sides:
    # 0 <= T <= U, as A - 2 pi >= 0 past x and g <= min(2 s**-p, 2/q).
    spec = QuadratureSpec(tol_tail=1e-4)
    for eps in (0.1, 0.5, 1.0, 2.0):
        for off in (0.0, 3.0, 1e4):
            for x in (0.0, 4.0, 16.0, 64.0):
                pt = f_profile(off, eps, [x], spec)[0]
                radius, bound = linear_radius_search(lambda r: profile_tail_bound(off, eps, x, r), x, spec)
                assert pt.r_used == radius and pt.err_estimate >= 0.5 * bound
                assert 0.0 <= reference_profile_tail(off, eps, x, radius) <= bound


def test_transform_computes_the_tail_once_per_radius_tried(monkeypatch):
    radii = []
    real = cauchy.tail_bound
    monkeypatch.setattr(cauchy, "tail_bound", lambda decay, a, radius: radii.append(radius) or real(decay, a, radius))
    res = cauchy_transform(gaussian_slice(), 1.0, SPEC)
    # Radii 8, 16, ... up to r_used, each tried once.
    doublings = [8.0 * 2.0 ** i for i in range(int(np.log2(res.r_used / 8.0)) + 1)]
    assert radii == doublings
    assert res.tail == tail_bound(gaussian_slice().decay, 1.0, res.r_used)
    assert all(tail_bound(gaussian_slice().decay, 1.0, r) > SPEC.tol_tail for r in doublings[:-1])


def linear_radius_search(tail, a, spec):
    """``(radius, tail(radius))`` of the search that tries every doubling
    of ``max(8, 2a + 4)``: the first whose bound meets tol_tail; None when
    that start does not clear 2a, or when the next doubling passes the
    radius limit first."""
    radius = max(8.0, 2.0 * a + 4.0)
    if radius <= 2.0 * a:
        return None
    while True:
        bound = tail(radius)
        if bound <= spec.tol_tail:
            return radius, bound
        radius *= 2.0
        if radius > cauchy._R_LIMIT:
            return None


def test_radius_search_matches_the_search_over_every_doubling(monkeypatch):
    # Seeded budgets, centers below and past the switch radius and past
    # 2**54, and tail tolerances: the transform's radius and tail and its
    # TruncationError are those of the search that tries every doubling on
    # the tail bound, bit for bit, and the profile's radius and
    # TruncationError those of the same search on its tail bound.
    monkeypatch.setattr(cauchy, "_refined_polar", lambda *args, **kwargs: (0j, 0.0, 1, 32, 0))
    rng = np.random.default_rng(20261018)
    raised = profile_raised = resolved = 0
    for _ in range(300):
        eps, c = float(10.0 ** rng.uniform(-2.0, 0.7)), float(10.0 ** rng.uniform(-2.0, 2.0))
        off = float(rng.choice([0.0, 10.0 ** rng.uniform(-2.0, 6.0)]))
        a = float(rng.choice([0.0, rng.uniform(0.0, 12.0), rng.uniform(12.0, 600.0), 1e20]))
        spec = QuadratureSpec(tol_tail=float(10.0 ** rng.uniform(-8.0, 0.0)))
        field = SliceField(lambda z: 0.0 * z, DecayBudget(eps, c))
        want = linear_radius_search(lambda r: tail_bound(field.decay, a, r), a, spec)
        if want is None:
            raised += 1
            with pytest.raises(TruncationError):
                cauchy_transform(field, a, spec)
        else:
            res = cauchy_transform(field, a, spec)
            assert (res.r_used.hex(), res.tail.hex()) == (want[0].hex(), want[1].hex())
        # the profile's search, on its tail bound
        want = linear_radius_search(lambda r: profile_tail_bound(off, eps, a, r), a, spec)
        if want is None:
            profile_raised += 1
            with pytest.raises(TruncationError):
                f_profile(off, eps, [a], spec)
            continue
        resolved += 1
        assert f_profile(off, eps, [a], spec)[0].r_used.hex() == want[0].hex()
    assert raised and profile_raised and resolved


def test_richardson_estimate_shrinks_with_resolution():
    coarse_spec = QuadratureSpec(n_r=6, n_theta=16, tol_abs=1e-30, max_refinements=1, r_max=12.0)
    fine_spec = QuadratureSpec(n_r=12, n_theta=32, tol_abs=1e-30, max_refinements=1, r_max=12.0)
    coarse = cauchy_transform(gaussian_slice(), 1.0, coarse_spec)
    fine = cauchy_transform(gaussian_slice(), 1.0, fine_spec)
    assert fine.richardson < coarse.richardson


def test_linearity_translation_conjugation_quick():
    rng = np.random.default_rng(42)
    spec = QuadratureSpec(n_r=12, n_theta=32, tol_abs=1e-7, r_max=14.0)
    budget = DecayBudget(1.0, 4.0)
    for _ in range(3):
        mu1, mu2 = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.5
        c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f1 = SliceField(value=lambda z, m=mu1: np.exp(-np.abs(z - m) ** 2) + 0j, decay=budget)
        f2 = SliceField(value=lambda z, m=mu2: np.exp(-np.abs(z - m) ** 2) + 0j, decay=budget)
        combo = SliceField(
            value=lambda z, m1=mu1, m2=mu2, a=c1, b=c2: a * np.exp(-np.abs(z - m1) ** 2)
            + b * np.exp(-np.abs(z - m2) ** 2),
            decay=budget,
        )
        w = complex(rng.standard_normal() + 1j * rng.standard_normal()) * 0.7

        lhs = cauchy_transform(combo, w, spec)
        rhs1 = cauchy_transform(f1, w, spec)
        rhs2 = cauchy_transform(f2, w, spec)
        gap = abs(lhs.value - (c1 * rhs1.value + c2 * rhs2.value))
        assert gap <= lhs.err_estimate + abs(c1) * rhs1.err_estimate + abs(c2) * rhs2.err_estimate
        assert gap <= 1e-6

        shift = complex(rng.standard_normal() + 1j * rng.standard_normal()) * 0.5
        shifted = SliceField(value=lambda z, m=mu1, c=shift: np.exp(-np.abs(z + c - m) ** 2) + 0j, decay=budget)
        lhs2 = cauchy_transform(shifted, w, spec)
        rhs3 = cauchy_transform(f1, w + shift, spec)
        assert abs(lhs2.value - rhs3.value) <= lhs2.err_estimate + rhs3.err_estimate + 1e-8

        mirrored = SliceField(
            value=lambda z, m=mu1: np.conj(np.exp(-np.abs(np.conj(z) - m) ** 2)) + 0j, decay=budget
        )
        lhs3 = cauchy_transform(mirrored, w, spec)
        rhs4 = cauchy_transform(f1, np.conj(w), spec)
        assert abs(lhs3.value - np.conj(rhs4.value)) <= lhs3.err_estimate + rhs4.err_estimate + 1e-8


def test_rotation_reduction_for_radial_fields():
    # for radial fields the transform magnitude depends on |w| only
    spec = QuadratureSpec(n_r=16, n_theta=64, tol_abs=1e-9, r_max=16.0)
    base = cauchy_transform(gaussian_slice(), 1.3, spec)
    for theta in (0.7, 2.1):
        rotated = cauchy_transform(gaussian_slice(), 1.3 * np.exp(1j * theta), spec)
        assert abs(abs(rotated.value) - abs(base.value)) <= (
            base.err_estimate + rotated.err_estimate + 1e-10
        )


def test_transform_determinism():
    res1 = cauchy_transform(gaussian_slice(), 0.9 - 0.4j, SPEC)
    res2 = cauchy_transform(gaussian_slice(), 0.9 - 0.4j, SPEC)
    assert res1.value == res2.value
    assert res1.err_estimate == res2.err_estimate


# --- the nested, blocked core against the dense formula ----------------------


cached_moment_weights = functools.lru_cache(maxsize=None)(moment_weights)


def dense_refined_polar(fn, center, r_end, r_core, spec, with_kernel_phase, prefactor):
    """Reference core, the dense formula of the per-panel rule: every value
    it compares is a fresh evaluation of the full ``nodes x n`` grid of one
    radial panel, one radial order and one angle count.  The radial rules
    are rebuilt panel by panel, their weights solved from the moment
    system; the octaves start at half the order of the core's unit
    length unless ``fn`` names its own.  A panel's radial estimate is e =
    |rule - rule of half its order|, each evaluated on its own nodes,
    except where its order n >= 12 is a multiple of 4 and e <= q / 2, q =
    |rule of half its order - rule of a quarter of it|: there it is 10 e**2
    / q, but at least e / 30.  The radial estimate is the sum of the panels'.  From level 1
    on, the reach probe compares, on the nodes of half the level-0 order of
    each panel still at ``n_theta`` angles, that rule at ``2 * n_theta``
    angles with the same rule at ``n_theta``."""
    tol = spec.tol_abs / max(abs(prefactor), 1e-300)
    evals = 0

    parts = panel_partition(r_end, r_core, spec.n_r, getattr(fn, "_octave", spec.n_r // 2))
    n_panels = len(parts)
    seen = {}

    def rule(order, q, n):
        # (value, value - n/2-angle value) of panel q = [a, b] under the
        # Clenshaw-Curtis rule of radial order ``order`` and n angles
        if (order, q, n) not in seen:
            nonlocal evals
            a, b, _ = parts[q]
            nodes = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(order + 1) / order)
            weights = 0.5 * (b - a) * cached_moment_weights(order)
            unit = np.exp(1j * (2.0 * np.pi / n) * np.arange(n))
            vals = np.asarray(fn(center + nodes[:, None] * unit[None, :]), dtype=complex)
            evals += vals.size
            if not np.all(np.isfinite(vals)):
                raise NonFiniteSampleError("non-finite field sample on the quadrature grid")
            if with_kernel_phase:
                vals = vals * np.conj(unit)[None, :]
            full = (2.0 * np.pi / n) * complex((weights @ vals).sum())
            half = (4.0 * np.pi / n) * complex((weights @ vals[:, 0::2]).sum())
            seen[order, q, n] = full, full - half
        return seen[order, q, n]

    def pick(shares, open_, capped, room):
        # the open panels whose share exceeds tol over the panel count;
        # when there are none and the capped panels' estimate fits in the
        # room, the open panels by decreasing share until the shares left
        # undoubled fit in what is left of it
        grow = [q for q in open_ if shares[q] > tol / n_panels]
        room -= capped
        if not grow and room >= 0.0:
            left = sum(shares[q] for q in open_)
            for q in sorted(open_, key=lambda q: -shares[q]):
                if left <= room or shares[q] == 0.0:
                    break
                grow.append(q)
                left -= shares[q]
        return grow

    base = [m for _, _, m in parts]
    levels = [0] * n_panels
    counts = [spec.n_theta] * n_panels
    n_max = spec.n_theta * 2 ** spec.max_refinements
    for level in range(spec.max_refinements + 1):
        if level and diff + ang > tol:
            # the panels with a large radial difference add one level
            for q in pick(radial, range(n_panels), 0.0, tol - ang):
                levels[q] += 1
        while True:
            orders = [m * 2 ** lev for m, lev in zip(base, levels)]
            full = [rule(orders[q], q, counts[q]) for q in range(n_panels)]
            cur = sum(value for value, _ in full)
            halves = [half for _, half in full]
            radial = []
            for q in range(n_panels):
                e = abs(full[q][0] - rule(orders[q] // 2, q, counts[q])[0])
                if orders[q] % 4 == 0 and orders[q] >= 12:
                    gap = abs(rule(orders[q] // 2, q, counts[q])[0] - rule(orders[q] // 4, q, counts[q])[0])
                    if 0.0 < gap and e <= 0.5 * gap:
                        e = max(10.0 * e * e / gap, e / 30.0)
                radial.append(e)
            reach = spec.n_theta * 2 ** min(level, 1)
            # the reach probe: more angles on the even level-0 radii, by
            # the rule of half the level-0 order
            probes = [rule(base[q] // 2, q, reach)[0] - rule(base[q] // 2, q, counts[q])[0] if counts[q] < reach
                      else 0.0 for q in range(n_panels)]
            ang = abs(sum(halves)) + abs(sum(probes))
            diff = sum(radial)
            if diff + ang <= tol or ang < diff:
                break
            shares = [abs(halves[q]) + abs(probes[q]) for q in range(n_panels)]
            capped = [q for q in range(n_panels) if counts[q] == n_max]
            grow = pick(shares, [q for q in range(n_panels) if counts[q] < n_max],
                        abs(sum(halves[q] for q in capped)) + abs(sum(probes[q] for q in capped)), tol - diff)
            if not grow:
                break
            for q in grow:
                counts[q] *= 2
        if level and (diff + ang <= tol or level == spec.max_refinements):
            return prefactor * cur, abs(prefactor) * (diff + ang), level, max(counts), evals
    raise AssertionError("unreachable")


def run_with_core(monkeypatch, core, call):
    """``call()`` with ``cauchy._refined_polar`` replaced by ``core``;
    returns its result and the ``(value, richardson, level, n_theta, n_evals)``
    of each core call."""
    seen = []

    def recording(*args, **kwargs):
        out = core(*args, **kwargs)
        seen.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(cauchy, "_refined_polar", recording)
        return call(), seen


def assert_cores_agree(monkeypatch, call):
    new, new_seen = run_with_core(monkeypatch, cauchy._refined_polar, call)
    old, old_seen = run_with_core(monkeypatch, dense_refined_polar, call)
    assert new_seen
    assert [s[2:4] for s in new_seen] == [s[2:4] for s in old_seen]
    for (v_new, r_new, *_), (v_old, r_old, *_) in zip(new_seen, old_seen):
        # Summation order differs, so agreement is to rounding, relative to
        # the size of the transform value (richardson is a difference of
        # two such values).
        scale = 1e-12 * abs(v_old)
        assert abs(v_new - v_old) <= scale
        assert abs(r_new - r_old) <= scale
    return new, old


BUILTIN_POINTS = {
    "gaussian_form": point(w=(0.7 + 0.4j,)),
    "rational_form": point(w=(-1.1 + 0.3j,)),
    "product_form_k2": point(w=(0.6 - 0.2j, 1.0 + 0.5j)),
    "opm_metric_form": point(z=(0.5,), w=(0.9 + 0.8j,)),
}


@pytest.mark.parametrize("block", [None, 100])
@pytest.mark.parametrize("name", sorted(BUILTIN_POINTS))
def test_nested_core_matches_dense_on_builtin_forms(monkeypatch, name, block):
    if block is not None:
        # A few rows per block, so block boundaries cut through segments.
        monkeypatch.setattr(cauchy, "_BLOCK", block)
    form = builtin_form(name)
    new, old = assert_cores_agree(monkeypatch, lambda: solve_point(form, BUILTIN_POINTS[name], 1, SPEC))
    assert new.r_used == old.r_used


@pytest.mark.parametrize("block", [None, 100])
def test_nested_core_matches_dense_on_profile(monkeypatch, block):
    # The profile's integrand without the kernel phase, as the far part of
    # a split solve sums its field, with its cusp at the center and on the
    # ring of radius 5.  (f_profile does not use the core.)
    if block is not None:
        monkeypatch.setattr(cauchy, "_BLOCK", block)
    spec = QuadratureSpec(n_r=8, n_theta=16, tol_abs=1e-6, tol_tail=1e-3, max_refinements=2)

    def profile(y):
        return 2.0 / (1.0 + np.abs(y) ** 1.5)

    def call():
        return [cauchy._refined_polar(profile, x + 0j, 4096.0, 2.0 * x + 4.0, spec, False, 1.0) for x in (0.0, 5.0)]

    assert_cores_agree(monkeypatch, call)


def one_center_tail(decay, a, radius):
    """Tail bound of the one polar rule around a center of magnitude ``a``
    (no frozen slots): ``2 C * integral_(R - a)^inf ds / (1 + s**(1+eps))``
    by the reference quadrature."""
    return 2.0 * decay.c_bound * reference_tail_integral(decay.epsilon, 1.0, radius - a)


def one_center_radius(decay, a, spec):
    """The smallest doubling of ``max(8, 2a + 4)`` whose one-center tail
    bound meets ``spec.tol_tail``."""
    radius = max(8.0, 2.0 * a + 4.0)
    while one_center_tail(decay, a, radius) > spec.tol_tail:
        radius *= 2.0
    return radius


def one_center(form, p, spec):
    """``() -> (value, richardson, level, n_theta, n_evals)`` of the one polar
    rule around the slot-1 center of ``p``, as a solve below the switch
    radius calls it.  Past the switch a solve splits, so tests of
    one-center angle doubling at far centers call the core directly."""
    center = complex(p.w[0])
    radius = one_center_radius(form.decay, abs(center), spec)
    return lambda: cauchy._refined_polar(
        fiber_slice(form, p, 1).value, center, radius, max(4.0, 2.0 * abs(center) + 4.0), spec, True, -1.0 / np.pi
    )


@pytest.mark.parametrize("block", [None, 100])
def test_nested_core_matches_dense_when_the_angles_double(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(cauchy, "_BLOCK", block)
    # rational_form at |w| = 2 doubles the angles once.  rational_form
    # with a coarse radial order doubles at the last level, where the
    # angular estimate is the larger part of the error: at n_r = 4 and
    # 0.15 - 1.44i.  At n_r = 3 and -0.78 - 1.29i, where it did so with the
    # half-order radial estimate, it now stops at the last level with 64
    # angles.
    def radially_coarse(n_r):
        return QuadratureSpec(n_r=n_r, n_theta=64, tol_abs=1e-8, tol_tail=1e-4, max_refinements=2)

    for w, spec, doubles in [(2.0j, SPEC, True), (-0.78 - 1.29j, radially_coarse(3), False),
                             (0.15 - 1.44j, radially_coarse(4), True)]:
        form, p = builtin_form("rational_form"), point(w=(w,))
        new, old = assert_cores_agree(monkeypatch, lambda: solve_point(form, p, 1, spec))
        assert (new.n_theta > spec.n_theta) == doubles
        assert (new.levels, new.n_theta, new.r_used) == (old.levels, old.n_theta, old.r_used)
    # On the one-center rule, the gaussian at |w| = 16 reaches the cap of
    # two doublings with the angular estimate still above the tolerance,
    # which forces a second radial level.  The gaussian at |w| = 64 sits
    # between all 32 initial rays, so only the reach probe sees it.
    capped = QuadratureSpec(n_r=24, n_theta=64, tol_abs=1e-8, tol_tail=1e-4, max_refinements=2)
    coarse = QuadratureSpec(n_r=8, n_theta=32, tol_abs=1e-8, tol_tail=1e-4, max_refinements=2)
    for w, spec in [(16.0 * np.exp(0.37j), capped), (64.0 * np.exp(1j * np.pi / 32), coarse)]:
        new, old = assert_cores_agree(monkeypatch, one_center(builtin_form("gaussian_form"), point(w=(w,)), spec))
        assert new[3] > spec.n_theta
        assert new[2:4] == old[2:4]


# --- per-panel angle counts ---------------------------------------------------


# Recorded with the octaves at half the radial order, the extrapolated
# radial estimate and the closed-form tail bound.  None of these solves doubles a panel's angles or adds
# radii past level 0, so every sum is that of a single angle count; the
# bits change only with the radial rule or estimate, the probe's rule or
# the order of summation.
PINNED_HEX = {
    "gaussian_form": ("0x1.07895efb41056p-1", "-0x1.2d2f47fa9373ep-2", "0x1.85b0a1398e418p-46", "0x1.00019ccdbf3eap-14"),
    "opm_metric_form": ("0x1.da12f67fbb83cp-2", "-0x1.2f538d3446b74p-55", "0x1.0eb5103ff7533p-28", "0x1.00056f197f879p-14"),
    "product_form_k2": ("0x1.451451434c652p-2", "0x1.d549c602581ddp-59", "0x1.cecd532525674p-30", "0x1.000270b6549e0p-14"),
    "rational_form": ("-0x1.e9bcf1360d820p-2", "-0x1.0b213dc064757p-3", "0x1.2b54100192d58p-30", "0x1.1d72169578cb3p-15"),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_POINTS))
def test_solves_without_doubling_keep_their_bits(name):
    res = solve_point(builtin_form(name), BUILTIN_POINTS[name], 1, SPEC)
    assert res.n_theta == SPEC.n_theta
    got = (res.value.real, res.value.imag, res.richardson, res.err_estimate)
    assert tuple(float.hex(x) for x in got) == PINNED_HEX[name]


def counting_form(name):
    """The built-in form with a counter of the b-coefficient samples."""
    form = builtin_form(name)
    seen = [0]

    def counted(field):
        def evaluate(z, w):
            seen[0] += w[..., 0].size
            return field.evaluate(z, w)
        return dataclasses.replace(field, evaluate=evaluate)

    return dataclasses.replace(form, b_coeffs=tuple(counted(f) for f in form.b_coeffs)), seen


@pytest.mark.parametrize("w, spec, doubles", [
    (0.7 + 0.4j, SPEC, False),
    (64.0 * np.exp(1j * np.pi / 32), QuadratureSpec(n_theta=32), True),
])
def test_n_evals_counts_every_field_sample(w, spec, doubles):
    form, seen = counting_form("gaussian_form")
    p = point(w=(w,))
    res = solve_point(form, p, 1, spec)
    assert res.n_evals == seen[0]
    if abs(w) >= cauchy._SWITCH:
        # the split solve counts both of its parts; the one-center rule
        # at this center doubles its angles
        seen[0] = 0
        _, _, _, n_theta, n_evals = one_center(form, p, spec)()
        assert n_evals == seen[0]
    else:
        n_theta = res.n_theta
    assert (n_theta > spec.n_theta) == doubles


def record_rings(monkeypatch):
    """Record ``(radii, angle count)`` of every ring evaluation and the
    result of every core call."""
    rings, cores = [], []
    ring_sums, core = cauchy._ring_sums, cauchy._refined_polar

    def ring_recording(fn, fields, center, radii, unit, phase):
        rings.append((radii.copy(), 2 * unit.size))
        return ring_sums(fn, fields, center, radii, unit, phase)

    def core_recording(*args, **kwargs):
        cores.append(core(*args, **kwargs))
        return cores[-1]

    monkeypatch.setattr(cauchy, "_ring_sums", ring_recording)
    monkeypatch.setattr(cauchy, "_refined_polar", core_recording)
    return rings, cores


def off_mesh_counts(rings, base, lo, hi):
    """Angle counts used at radii in [lo, hi) off the level-0 mesh (the
    reach probe samples the level-0 radii with more angles)."""
    return [n for radii, n in rings for r in radii if lo <= r < hi and r not in base]


def assert_partial_doubling(rings, core_out, r_end, r_core, spec, near, far, octave=None):
    # ``octave``: the core's octave order, by default the one-center rule's
    levels, n_theta, n_evals = core_out[2:]
    octave = spec.n_r // 2 if octave is None else octave
    base = set(radial_panel_rule(r_end, r_core, spec.n_r, 0, octave)[0].tolist())
    if near is not None:
        assert max(off_mesh_counts(rings, base, *near)) > spec.n_theta
    # The far ranges add no radii: no ring there is off the level-0 mesh,
    # at any angle count.
    for lo, hi in far:
        assert off_mesh_counts(rings, base, lo, hi) == []
    assert n_theta > spec.n_theta
    # Every node of the level-L mesh at the reported angle count: the least
    # a single angle count and radial level for all radii would have
    # evaluated.
    uniform = radial_panel_rule(r_end, r_core, spec.n_r, levels, octave)[0].size * n_theta
    assert n_evals < uniform


def test_gaussian_far_off_center_doubles_only_near_the_bump(monkeypatch):
    # On the one-center rule the bump sits at radius 64 from the center;
    # rings far inside and far outside it see only exact zeros and add no
    # radii.  The bump's own panels need no new radii either; they double
    # their angles ahead of the reach probe, which samples every other
    # panel's level-0 radii at a count only once the level reaches it, so
    # the first ring at the final count is theirs alone.
    spec = QuadratureSpec(n_theta=32)
    form = builtin_form("gaussian_form")
    p = point(w=(64.0 * np.exp(1j * np.pi / 32),))
    radius = one_center_radius(form.decay, 64.0, spec)
    rings, cores = record_rings(monkeypatch)
    value, richardson, *_ = one_center(form, p, spec)()
    assert abs(value - form.primitive_at(p)) <= richardson + one_center_tail(form.decay, 64.0, radius)
    assert_partial_doubling(rings, cores[0], radius, 132.0, spec,
                            near=None, far=[(0.0, 48.0), (80.0, 132.0), (256.0, np.inf)])
    first = next(radii for radii, n in rings if n == cores[0][3])
    assert 56.0 <= first.min() and first.max() < 72.0


def test_f_profile_doubles_only_near_the_cusp(monkeypatch):
    # The polar core on the profile's integrand, without the kernel phase,
    # as the far part of a split solve sums its field: on the one-center
    # rule at offset x the integrand has its cusp on the ring of radius x.
    # (f_profile does not use the core.)  The radius is 2**24
    # times 2x + 4, about 6e8, so 24 octaves lie past the core.
    spec = QuadratureSpec(n_r=24, n_theta=64, tol_abs=1e-8, tol_tail=1e-3)

    def run(x, octave=None):
        def profile(y):
            return 2.0 / (1.0 + np.abs(y) ** 1.5)
        if octave is not None:
            profile._octave = octave
        rings, cores = record_rings(monkeypatch)
        radius = (2.0 * x + 4.0) * 2.0 ** 24
        cauchy._refined_polar(profile, x + 0j, radius, 2.0 * x + 4.0, spec, False, 1.0)
        monkeypatch.undo()
        return rings, cores[0], radius

    # At x = 16 the cusp sits on the core panels' edge at 16, and no core
    # panel adds radii.  The octaves start at half the order, 12, and add
    # radii once, the nodes of the full order, 24, which they started at
    # before.
    rings, core, radius = run(16.0)
    assert_partial_doubling(rings, core, radius, 36.0, spec, near=None, far=[(0.0, 36.0)])
    full = set(radial_panel_rule(radius, 36.0, spec.n_r, 0, spec.n_r)[0].tolist())
    base = set(radial_panel_rule(radius, 36.0, spec.n_r, 0, spec.n_r // 2)[0].tolist())
    added = {r for radii, _ in rings for r in radii if r not in base}
    assert added and min(added) > 36.0 and added <= full
    # Inside the panel [14, 16] at x = 15, with the octaves at the full
    # order as the split parts have them, the panels near the cusp add
    # radii and more angles; the far octaves are smooth in angle and in
    # radius and add no radii.
    rings, core, radius = run(15.0, spec.n_r)
    assert_partial_doubling(rings, core, radius, 34.0, spec, near=(13.0, 17.0), far=[(64.0, np.inf)], octave=spec.n_r)


def test_far_octaves_of_a_level_1_solve_get_no_new_radii(monkeypatch):
    # At n_r = 8 the panels near the center of opm_metric_form's solve ask
    # for level 1; the octaves past 1024, out to r_used = 65536, are
    # resolved at level 0 already and keep their nodes.
    spec = QuadratureSpec(n_r=8)
    form, p = builtin_form("opm_metric_form"), BUILTIN_POINTS["opm_metric_form"]
    rings, cores = record_rings(monkeypatch)
    res = solve_point(form, p, 1, spec)
    assert res.levels == 1 and abs(res.value - form.primitive_at(p)) <= res.err_estimate
    base = set(radial_panel_rule(res.r_used, max(4.0, 2.0 * abs(p.w[0]) + 4.0), spec.n_r, 0)[0].tolist())
    added = {r for radii, _ in rings for r in radii if r not in base}
    assert added and max(added) < 1024.0 < res.r_used


def test_narrow_radial_bump_refines_only_its_own_panel(monkeypatch):
    # A ring of width 0.1 at r = 11 lies inside the core panel [10, 12]
    # and is 0 to rounding at its edges.  That panel alone adds radii, at
    # each level; the field has no angular error, so no panel doubles its
    # angles.  Without the kernel phase the integral is 2 pi times the
    # bump's radial integral, 0.1 sqrt(pi).
    spec = QuadratureSpec(n_r=8, n_theta=16, tol_abs=1e-8)
    rings, cores = record_rings(monkeypatch)
    fn = lambda x: np.exp(-((np.abs(x) - 11.0) / 0.1) ** 2) + 0j  # noqa: E731
    value, richardson, level, n_theta, n_evals = cauchy._refined_polar(fn, 0j, 128.0, 64.0, spec, False, 1.0)
    assert (level, n_theta) == (3, 16) and richardson <= spec.tol_abs
    # The reach probe samples half of each panel's level-0 radii, once, at
    # 32 angles: 4,688 of the 15,328 samples.  On all level-0 radii it
    # took 72,576 samples; again at 64 and 128 angles on levels 2 and 3,
    # 43,456.  No panel doubles its angles, so no ring on the level-0
    # radii has more than the probe's 32.
    assert n_evals <= 15_328
    assert abs(value - 2.0 * np.pi * 0.1 * np.sqrt(np.pi)) <= richardson
    base = set(radial_panel_rule(128.0, 64.0, spec.n_r, 0)[0].tolist())
    assert max(n for radii, n in rings for r in radii if r in base) == 2 * spec.n_theta
    added = {r for radii, _ in rings for r in radii if r not in base}
    # the level-3 rule of [10, 12], 129 nodes, less its 17 level-0 ones
    assert len(added) == 112 and all(10.0 < r < 12.0 for r in added)


def test_radial_estimate_adds_the_magnitudes_of_the_panels_differences():
    # The gaussian's core panels end at different radial levels: the
    # half-order differences of [2, 4.35] (level 1) and [4.35, 8.7]
    # (level 0) nearly cancel (+4.2e-10 and -4.1e-10), while the level-0
    # panel's own rule is still off by 2.9e-11.  Summed with their signs
    # they read 1.1e-11; the sum of their magnitudes covers the error.  The
    # field is 0 to rounding past r_max = 64, so the primitive is exact.
    form = builtin_form("gaussian_form")
    p = point(w=(0.08845916250117057 - 0.1505847565440041j,))
    res = solve_point(form, p, 1, QuadratureSpec(n_theta=32, n_r=4, r_max=64.0))
    assert abs(res.value - form.primitive_at(p)) <= res.richardson


@pytest.mark.parametrize("kwargs, name, bound", [
    (dict(n_theta=32, max_refinements=10), "n_theta", 16384),
    (dict(n_r=64, n_theta=8, max_refinements=10), "n_r", 32768),
])
def test_spec_rejects_a_node_budget_overrun(kwargs, name, bound):
    with pytest.raises(ValueError, match=rf"{name} \* 2\*\*max_refinements must be <= {bound}"):
        QuadratureSpec(**kwargs)
    # one refinement fewer fits
    QuadratureSpec(**{**kwargs, "max_refinements": 9})


def spread_field(n, amplitude, bump):
    """Around center 0: ``amplitude * (1 + r / 1280)`` for r < 64 on the
    angular mode that the ``n``-point rule integrates exactly (to zero) and
    the ``n/2``-point rule does not, so its angular error is spread almost
    evenly over the 32 core panels; plus a radial bump at r = 10.3 on the
    mode with no angular error, which sets the radial estimate."""
    def fn(x):
        r = np.abs(x)
        u = np.divide(x, r, out=np.zeros_like(x), where=r > 0.0)
        h = np.where(r < 64.0, amplitude * (1.0 + r / 1280.0), 0.0)
        g = bump * np.exp(-((r - 10.3) / 0.3) ** 2)
        return h * u ** (n // 2 + 1) + g * u
    return fn


@pytest.mark.parametrize("block", [None, 100])
def test_angular_error_spread_over_many_panels_still_converges(monkeypatch, block):
    # With a bump of 0.094, at level 1 the radial estimate is about 0.4
    # tol and the angular estimate about 0.85 tol, but no panel's share
    # reaches tol / 33.  Doubling the largest shares until the rest fit in
    # tol - diff brings the solve under the tolerance, as doubling every
    # panel would.  With a bump of 0.00346 the half-order radial estimate
    # read about 0.4 tol there; the extrapolated one reads 0.015 tol, and
    # the solve stops at level 1 with 16 angles.
    if block is not None:
        monkeypatch.setattr(cauchy, "_BLOCK", block)
    spec = QuadratureSpec(n_r=8, n_theta=16, tol_abs=1e-8, tol_tail=1e-4, max_refinements=1)
    fn = spread_field(16, 2.06e-11, 0.00346)
    new, _ = assert_cores_agree(monkeypatch, lambda: cauchy._refined_polar(fn, 0j, 128.0, 64.0, spec, True, 1.0))
    assert new[2:4] == (1, 16) and new[1] <= spec.tol_abs
    fn = spread_field(16, 2.06e-11, 0.094)
    new, old = assert_cores_agree(monkeypatch, lambda: cauchy._refined_polar(fn, 0j, 128.0, 64.0, spec, True, 1.0))
    value, richardson, level, n_theta, n_evals = new
    assert (level, n_theta) == (1, 32)
    assert richardson <= spec.tol_abs
    # fewer samples than doubling every panel, which costs 32 angles at
    # every level-1 node
    nodes = radial_panel_rule(128.0, 64.0, spec.n_r, 1)[0]
    assert n_evals < nodes.size * 32


@pytest.mark.parametrize("block", [None, 100])
def test_nested_core_matches_dense_when_every_panel_outruns_the_probe(monkeypatch, block):
    # The angular error is large on every core panel, so all of them
    # double at level 0 and the level-1 reach probe, which takes only the
    # panels still at 16 angles, covers none of them.  Probing them again
    # at every level, at 64 angles on level 2, took 34,112 samples and
    # ended with 64 angles, error 1.8e-8 and richardson 1.3e-7; now 22,048
    # samples, 32 angles, error 2.1e-8 and richardson 1.7e-7.
    if block is not None:
        monkeypatch.setattr(cauchy, "_BLOCK", block)
    spec = QuadratureSpec(n_r=8, n_theta=16, tol_abs=1e-8, tol_tail=1e-4, max_refinements=2)
    fn = spread_field(16, 1e-6, 0.01)
    new, _ = assert_cores_agree(monkeypatch, lambda: cauchy._refined_polar(fn, 0j, 128.0, 64.0, spec, True, 1.0))
    assert new[2:4] == (2, 32)
    ref = cauchy._refined_polar(fn, 0j, 128.0, 64.0, QuadratureSpec(n_r=64, n_theta=512, max_refinements=2),
                                True, 1.0)
    assert abs(new[0] - ref[0]) <= new[1] + ref[1]


# --- far field, past acceptance criterion 1's |w| <= 4 ------------------------


FAR_FIELD_FORMS = [("gaussian_form", {}, ()), ("rational_form", {}, ()), ("opm_metric_form", {"m": 1}, (0.5,))]

# Sweep points where err_estimate is below the true error.
FAR_FIELD_MISSES = []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, params, z", FAR_FIELD_FORMS)
def test_far_field_err_estimate_covers_the_true_error(name, params, z):
    # Two seeded angles per radius, the default spec at 32 and 64 initial
    # angles and the acceptance spec.  On the one-center rule, rays 2 pi
    # |w| / n apart around the center could all pass beside the field's
    # unit-width mass at the origin, and err_estimate missed the true error
    # from |w| = 64 on; past the switch radius the far part puts that mass
    # at its own center, and its octaves outside phi's band start at half
    # the radial order.
    form = builtin_form(name, params)
    rng = np.random.default_rng(0)
    misses = []
    for radius in (8.0, 16.0, 32.0, 64.0, 96.0, 128.0, 256.0, 512.0):
        for angle in rng.uniform(0.0, 2.0 * np.pi, 2):
            p = point(z=z, w=(radius * np.exp(1j * angle),))
            for spec in (QuadratureSpec(n_theta=32), QuadratureSpec(n_theta=64), SPEC):
                res = solve_point(form, p, 1, spec)
                if abs(res.value - form.primitive_at(p)) > res.err_estimate:
                    misses.append((radius, float(angle), spec.n_r, spec.n_theta))
    assert misses == FAR_FIELD_MISSES


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cutoff_is_one_inside_zero_outside_and_smooth_between():
    # The band is (0, 1).  Next to its ends one exponential underflows to 0,
    # silently, and next to 0 the reciprocal of t overflows: the cutoff is
    # 1 there without dividing, on both sides of where it stops dividing.
    low = 1.0 / 745.0
    t = np.array([-1.0, 0.0, np.nextafter(0.0, 1.0), 1e-300, low, np.nextafter(low, 1.0),
                  0.5, np.nextafter(1.0, 0.0), 1.0, 3.0])
    phi = cauchy._cutoff(t)
    assert phi[:6].tolist() == [1.0] * 6
    assert phi[6] == 0.5 and phi[7] == 0.0
    assert phi[[8, 9]].tolist() == [0.0, 0.0]
    band = cauchy._cutoff(np.linspace(0.0, 1.0, 101))
    assert np.all(np.diff(band) <= 0.0)
    # NaN stays NaN, and every value is that of the formula evaluated on
    # the band alone, bit for bit
    assert np.isnan(cauchy._cutoff(np.array([0.5, np.nan])))[1]
    t = np.concatenate([t, np.linspace(-0.5, 1.5, 2001), np.random.default_rng(3).uniform(0.0, 1.0, 2000)])
    assert np.array_equal(cauchy._cutoff(t).view(np.uint64), masked_cutoff(t).view(np.uint64))


def masked_cutoff(t):
    """The cutoff with the exponentials taken on the band's samples only."""
    out = (t <= 1.0 / 745.0).astype(float)
    band = (t > 1.0 / 745.0) & (t < 1.0)
    inner = np.exp(-1.0 / (1.0 - t[band]))
    out[band] = inner / (inner + np.exp(-1.0 / t[band]))
    return out


def test_split_parts_sample_the_masked_formulas_and_only_the_band_octaves_take_the_full_order(monkeypatch):
    # The far part at |w| = 40 around 0 on [0, R] with a core of 4 units:
    # the octaves that overlap phi's band [20, 60] take order n_r = 24,
    # the others 12; every octave of the near part takes 24.  Both parts
    # sample the masked formulas bit for bit.
    form, w = builtin_form("rational_form"), 40.0 * np.exp(0.3j)
    b = fiber_slice(form, point(w=(w,)), 1)
    calls, rules = [], []
    core, rule = cauchy._refined_polar, cauchy.radial_panel_rule
    monkeypatch.setattr(cauchy, "_refined_polar", lambda *args: calls.append(args) or core(*args))
    monkeypatch.setattr(cauchy, "radial_panel_rule", lambda *args: rules.append(args) or rule(*args))
    cauchy_transform(b, w, SPEC)
    (near, *_), (far, *_) = calls
    # the level-0 rules of the near part (on [0, 20]) and of the far part
    level_0 = [args for args in rules if isinstance(args[3], int)]
    assert level_0[0][0] == 20.0 and level_0[-1][0] > 60.0
    for args, band in ((level_0[0], (0.0, np.inf)), (level_0[-1], (20.0, 60.0))):
        nodes, _, _, _, panel, _ = rule(*args)
        first = np.searchsorted(panel, np.arange(panel[-1] + 1))
        lo, hi = nodes[first], nodes[np.append(first[1:], panel.size) - 1]
        orders, octave = (np.bincount(panel) - 1)[lo >= 4.0], (lo < band[1]) & (hi > band[0])
        assert orders.size >= 2 and set(orders.tolist()) <= {12, 24}
        assert np.array_equal(orders == 24, octave[lo >= 4.0])
    xi = w + np.linspace(0.0, 100.0, 4001)[:, None] * np.exp(1j * np.linspace(0.0, 6.3, 7))
    rho = 20.0
    d = xi - w
    weight = (1.0 - masked_cutoff(np.abs(d) / rho)) * np.abs(xi)
    want = b.value(xi) * np.divide(weight, d, out=np.zeros_like(d), where=weight > 0.0)
    assert np.array_equal(far(xi).view(np.uint64), want.view(np.uint64))
    want = masked_cutoff(np.abs(d) / rho) * b.value(xi)
    assert np.array_equal(near(xi).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n_theta", [32, 64])
def test_gaussian_between_the_rays_at_128_is_covered_and_cheap(n_theta):
    # On the one-center rule this center lies between all the rays: with
    # 32 angles the solve returned about 0 with err_estimate 6.0e-5 against
    # a true value of 0.0078, and with 64 it ended unconverged at level 3
    # with 512 angles after 4.7M samples.
    form = builtin_form("gaussian_form")
    p = point(w=(128.0 * np.exp(1j * np.pi / 64),))
    spec = QuadratureSpec(n_theta=n_theta)
    res = solve_point(form, p, 1, spec)
    assert abs(res.value - form.primitive_at(p)) <= res.err_estimate
    assert res.richardson <= spec.tol_abs
    assert res.n_evals < 470_000


@pytest.mark.parametrize("radius", [128.0, 512.0])
def test_split_solve_spends_few_samples_where_the_near_part_is_zero(radius):
    # The gaussian's mass sits at the origin, so the near part around w is
    # 0 on all of its disc of radius |w| / 2.  Its core ends at 4 and
    # octave panels cover the rest; with 2-unit panels over the whole disc
    # the solve took 87,040 samples at |w| = 128 and 289,792 at 512.
    form = builtin_form("gaussian_form")
    p = point(w=(radius * np.exp(0.37j),))
    res = solve_point(form, p, 1, QuadratureSpec())
    assert abs(res.value - form.primitive_at(p)) <= res.err_estimate
    assert res.n_evals < 40_000


# --- the one-center rule below the switch radius ------------------------------


def seeded_centers(seed, count):
    """``count`` seeded centers with |w| < 12, below the switch radius."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 11.9, count) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


# (value.real, value.imag, err_estimate, r_used) as float hex, recorded
# with the octaves at half the radial order, the extrapolated radial
# estimate and the closed-form tail bound: below the switch radius the
# transform makes one core call, with the radius and tail of the
# one-center search.  The profile's entries are those of its panel
# integral with the tail bound U.
PINNED_BELOW_SWITCH = {
    ("gaussian", 0): ("-0x1.7d7e27880cdccp-6", "-0x1.a0ce46d606930p-4", "0x1.61df43a924f3bp-14", "0x1.728b8c8c9f6fdp+14"),
    ("gaussian", 1): ("0x1.91cc381322b10p-4", "-0x1.1b3a5b986106ep-5", "0x1.60ce5561b8d14p-14", "0x1.73a9f240abd39p+14"),
    ("gaussian", 2): ("-0x1.f0780c2cb9e86p-4", "-0x1.bed267830ce03p-4", "0x1.f7c24e71fde66p-15", "0x1.043c68c4cf56cp+15"),
    ("rational", 0): ("-0x1.795f44cda4f9ep-6", "-0x1.9c4dbecb10364p-4", "0x1.5258fc0ce183bp-16", "0x1.728b8c8c9f6fdp+5"),
    ("rational", 1): ("0x1.8d7d291087937p-4", "-0x1.1830cf4a9a6f9p-5", "0x1.4f79c9e3bceb1p-16", "0x1.73a9f240abd39p+5"),
    ("rational", 2): ("-0x1.e3975655139a3p-4", "-0x1.b33b5db58aaccp-4", "0x1.c81356664c686p-15", "0x1.043c68c4cf56cp+5"),
    ("profile", 4.084923350778727): ("0x1.d9b72c29f23c2p+2", "0x1.dff5dfa7bf702p-13", "0x1.856f625990ba4p+5"),
    ("profile", 4.391900153565001): ("0x1.c683273174989p+2", "0x1.decec3e41368ap-13", "0x1.9914e461b6fadp+5"),
    ("profile", 6.404155782516124): ("0x1.68f0e61ce94c7p+2", "0x1.c0ab5749018ccp-13", "0x1.0ceed81b8cac6p+6"),
}


def test_transform_and_profile_below_the_switch_keep_their_bits():
    got = {}
    for name, slice_ in (("gaussian", gaussian_slice()), ("rational", rational_slice())):
        for k, w in enumerate(seeded_centers(5, 3)):
            res = cauchy_transform(slice_, w, SPEC)
            got[name, k] = tuple(float.hex(v) for v in (res.value.real, res.value.imag, res.err_estimate, res.r_used))
    xs = sorted(abs(seeded_centers(6, 3)))
    for pt in f_profile(1.0, 1.0, xs, PROFILE_SPEC):
        got["profile", pt.x] = tuple(float.hex(v) for v in (pt.value, pt.err_estimate, pt.r_used))
    assert got == PINNED_BELOW_SWITCH


GUARD_FORMS = {
    "gaussian": ("gaussian_form", {}, (), None),
    "rational": ("rational_form", {}, (), None),
    "opm": ("opm_metric_form", {"m": 1}, (0.5,), None),
    "product_k2": ("product_form_k2", {}, (), 1.0 + 0.5j),
    "gaussian_z": ("gaussian_form", {"z_profile": True}, (0.5 - 0.3j,), None),
}

# (form, center, n_theta, n_r) added to the seeded sweep below.  With the
# quarter rule allowed from order 4, rational_form at -0.603 - 5.0923i
# misses by 4.3 times its estimates, and without the floor on the
# extrapolated estimate also the first two, by 1.3 and 9.2 times.  Without
# the floor, the order-12 core panels of n_r = 6 miss at the last three,
# by 2.5, 16.6 and 1.9 times.
QUADRATURE_GUARD = [
    ("rational", 6.9025 - 5.6768j, 64, 4), ("opm", -5.0689 + 8.1960j, 64, 4), ("rational", -0.6030 - 5.0923j, 64, 4),
    ("rational", -1.7621 - 1.1954j, 64, 6), ("product_k2", -1.2337 - 1.4536j, 64, 6), ("opm", -2.3240 + 0.0755j, 64, 6),
]


def test_quadrature_only_error_is_covered_at_a_fixed_radius():
    # At a fixed radius R no tail enters: a solve and a reference with 512
    # angles and n_r = 64 differ by at most the sum of their quadrature
    # estimates.  Three seeded centers per form below the switch radius at
    # n_theta 16 and 64 and n_r 4 and 16, and the points of
    # QUADRATURE_GUARD, each at R = 64 and at R = 4096, where the longer
    # octaves take more of the solves to radial levels 2 and 3.
    rng = np.random.default_rng(2026)
    centers = rng.uniform(0.0, 11.9, 3) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3))
    cases = [(name, w, n_theta, n_r) for name in GUARD_FORMS for w in centers
             for n_theta in (16, 64) for n_r in (4, 16)] + QUADRATURE_GUARD
    refs, misses = {}, []
    for r_max in (64.0, 4096.0):
        for name, w, n_theta, n_r in cases:
            form_name, params, z, w2 = GUARD_FORMS[name]
            form = builtin_form(form_name, params)
            p = point(z=z, w=(w,) if w2 is None else (w, w2))
            if (name, w, r_max) not in refs:
                refs[name, w, r_max] = solve_point(form, p, 1, QuadratureSpec(r_max=r_max, n_theta=512, n_r=64))
            ref = refs[name, w, r_max]
            res = solve_point(form, p, 1, QuadratureSpec(r_max=r_max, n_theta=n_theta, n_r=n_r))
            if abs(res.value - ref.value) > res.richardson + ref.richardson:
                misses.append((name, w, n_theta, n_r, r_max))
    assert misses == []


def test_reach_probe_sees_the_gaussian_between_all_rays_below_the_switch():
    # Just below the switch radius, the 8 rays around w pass beside the
    # gaussian's unit-width mass at the origin.  Without the reach probe
    # the solve stopped at level 1 with 8 angles and err_estimate 7.0e-5
    # against a true error of 8.4e-2; the probe sees the mass on the
    # level-0 radii, the angles double, and err_estimate (2.4e-2, the
    # solve ends unconverged) covers the true error of 7.0e-5.
    form = builtin_form("gaussian_form")
    p = point(w=(11.9 * np.exp(1.98j),))
    res = solve_point(form, p, 1, QuadratureSpec(n_theta=8))
    assert abs(res.value - form.primitive_at(p)) <= res.err_estimate
    assert res.n_theta > 8


# --- f_profile against a one-dimensional reference ----------------------------


def agm(a, b):
    """Arithmetic-geometric mean, elementwise."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    while np.any(np.abs(a - b) > 1e-15 * a):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return a


def profile_reference(off_norm, epsilon, x):
    """F(x) = integral_0^inf 2 / (q + s**p) * 4 s K(m) / (s + x) ds, with
    m = 4 s x / (s + x)**2, q = 1 + off_norm and p = 1 + epsilon: the
    profile's angular integral in closed form.  K(m) = pi / (2 agm(1,
    sqrt(1 - m))), and sqrt(1 - m) = |s - x| / (s + x).  The integral is
    taken in t = |s - x| on both sides of x, so the log singularity of K at
    s = x sits at t = 0 exactly; Gauss-Legendre panels are graded toward it
    and toward the cusp of s**p at s = 0, octave panels run out to 2**100
    max(x, 1), and the rest is the leading term 4 pi T**-eps / eps."""
    q, p = 1.0 + off_norm, 1.0 + epsilon
    nodes, weights = np.polynomial.legendre.leggauss(20)

    def integrand(s, t):
        return 4.0 * np.pi * s / ((q + s ** p) * (s + x) * agm(1.0, t / (s + x)))

    def panels(edges, f):
        lo, hi = edges[:-1, None], edges[1:, None]
        return np.sum(0.5 * (hi - lo) * weights * f(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes))

    grade = 2.0 ** -np.arange(51.0)
    scale = max(x, 1.0)
    right = np.concatenate([[0.0], scale * grade[::-1], scale * 2.0 ** np.arange(1.0, 101.0)])
    total = panels(right, lambda t: integrand(x + t, t)) + 4.0 * np.pi * right[-1] ** -epsilon / epsilon
    if x > 0.0:
        left = np.concatenate([[0.0], 0.5 * x * grade[::-1], x * (1.0 - grade[2:41]), [x]])
        total += panels(left, lambda t: integrand(x - t, t))
    return total


def test_profile_reference_matches_the_kernel_mass():
    # At x = 0, F = 4 pi * integral_0^inf ds / (q + s**2) = 2 pi**2 / sqrt(q)
    # for epsilon = 1.
    assert profile_reference(0.0, 1.0, 0.0) == pytest.approx(2.0 * np.pi ** 2, rel=1e-14)
    assert profile_reference(3.0, 1.0, 0.0) == pytest.approx(np.pi ** 2, rel=1e-14)


def graded_gauss(edges, order=16):
    """Nodes and weights of ``order``-point Gauss-Legendre on each panel
    between consecutive ``edges``."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    lo, hi = np.asarray(edges[:-1])[:, None], np.asarray(edges[1:])[:, None]
    return (0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes).ravel(), (0.5 * (hi - lo) * weights).ravel()


@functools.lru_cache(maxsize=None)
def plane_profile_terms(epsilon, x):
    """``(|x + zeta|**p, weights, T)`` of the plane reference's tensor rule."""
    grade = np.concatenate([[0.0], 2.0 ** -np.arange(30.0, -1.0, -1.0)])
    phi, phi_w = graded_gauss(np.pi * grade)
    scale = x if x > 0.0 else 1.0
    left = x - scale * grade[:0:-1] if x > 0.0 else np.array([])
    octaves = (x + scale) * 2.0 ** np.arange(1.0, 101.0)
    r, r_w = graded_gauss(np.concatenate([left, x + scale * grade, octaves]))
    rho = np.sqrt((r[:, None] - x) ** 2 + 4.0 * r[:, None] * x * np.sin(0.5 * phi) ** 2)
    return rho ** (1.0 + epsilon), 2.0 * r_w[:, None] * phi_w, octaves[-1]


def plane_profile_reference(off_norm, epsilon, x):
    """F(x) as a plane integral, both variables by quadrature: in polar
    coordinates around the kernel's pole, ``integral_0^inf dr integral_0^2pi
    g(|x + r e^{i theta}|) dtheta`` with g(s) = 2/(q + s**p), the area
    element cancelling 1/|zeta|.  With phi = pi - theta and the symmetry
    theta -> -theta, |x + zeta|**2 = (r - x)**2 + 4 r x sin(phi/2)**2 on
    phi in [0, pi], twice.  16-point Gauss-Legendre panels in phi are graded
    toward 0 and in r toward x from both sides, down to 2**-30, where g has
    its cusp; octaves in r run to T = 2**101 max(x, 1) and past T the rest
    is the leading term 4 pi T**-eps / eps.  It shares no code with
    ``f_profile`` or ``profile_reference``."""
    powered, weights, end = plane_profile_terms(epsilon, x)
    return float(np.sum(weights * (2.0 / (1.0 + off_norm + powered)))) + 4.0 * np.pi * end ** -epsilon / epsilon


def test_plane_reference_matches_the_kernel_mass():
    # At x = 0 every ring of g is constant: F = 2 pi**2 / sqrt(q) at eps = 1.
    assert plane_profile_reference(0.0, 1.0, 0.0) == pytest.approx(2.0 * np.pi ** 2, rel=1e-14)
    assert plane_profile_reference(3.0, 1.0, 0.0) == pytest.approx(np.pi ** 2, rel=1e-14)


PROFILE_SWEEP_XS = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]


@pytest.mark.parametrize("off_norm", [0.0, 4.0, 1e8])
@pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0, 2.0])
def test_f_profile_err_estimate_covers_the_reference(epsilon, off_norm):
    # The spec of the bounds command, at eight offsets: err_estimate covers
    # the true error against the one-dimensional reference and against the
    # plane reference, with 1e-14 of F to spare for the references' own
    # rounding.  At off_norm = 1e8 the value's U/2 is still most of its
    # error, with U from g <= 2/q there.
    for pt in f_profile(off_norm, epsilon, PROFILE_SWEEP_XS, QuadratureSpec()):
        for reference in (profile_reference(off_norm, epsilon, pt.x), plane_profile_reference(off_norm, epsilon, pt.x)):
            assert pt.err_estimate >= abs(pt.value - reference) + 1e-14 * reference


def test_f_profile_refined_err_estimate_covers_the_reference():
    # At order 12 with a tight tolerance the panels refine to order 48; the
    # estimate still covers the true error.
    spec = QuadratureSpec(n_r=12, tol_abs=1e-12, tol_tail=1e-6, max_refinements=3)
    for epsilon in (0.1, 1.0):
        for pt in f_profile(0.0, epsilon, [0.5, 3.0, 40.0], spec):
            reference = profile_reference(0.0, epsilon, pt.x)
            assert pt.err_estimate >= abs(pt.value - reference) + 1e-14 * reference


def test_f_profile_is_the_same_in_small_blocks(monkeypatch):
    # The panels are evaluated in blocks of rows; blocks of two rows give
    # the same bits.
    xs = [0.0, 1.3, 64.0]
    whole = f_profile(1.0, 0.5, xs, PROFILE_SPEC)
    monkeypatch.setattr(cauchy, "_BLOCK", 40)
    assert f_profile(1.0, 0.5, xs, PROFILE_SPEC) == whole


def test_f_profile_tail_keeps_the_offset_constant():
    # With U from g <= 2 s**-p alone, the value at off_norm = 1e8 read
    # 1.19e-4 against 7.05e-5, 69% of F off; with g <= 2/q as well it is
    # 1.0e-4 of F off, within err_estimate, at the first radius tried.
    pt = f_profile(1e8, 2.0, [2.0], QuadratureSpec())[0]
    reference = profile_reference(1e8, 2.0, 2.0)
    assert abs(pt.value - reference) <= min(pt.err_estimate, 2e-4 * reference)
    assert pt.r_used == 8.0


def direct_profile_integral(x, q, power, radius, n):
    """``cauchy._profile_integral`` with every panel's terms evaluated at
    its offset: the panels listed one tuple at a time, then evaluated in
    blocks of rows."""
    rows = [(2.0 ** -k, 2.0 ** (1 - k), 1.0, sign, 1.0) for sign in (1.0, -1.0) for k in range(1 + (sign < 0), 53)]
    edge = x / 2.0
    while edge > 2.0 ** -20:
        rows.append((edge / 2.0, edge, 0.0, 1.0, x))
        edge /= 2.0
    rows.append((0.0, edge, 0.0, 1.0, x))
    edge = 2.0 * x
    while edge < radius:
        rows.append((edge, min(2.0 * edge, radius), 0.0, 1.0, x))
        edge *= 2.0
    rows, table, step = np.array(rows), cauchy._panel_table(n), max(1, cauchy._BLOCK // (n + 1))
    sums = np.empty((len(rows), 3))
    for start in range(0, len(rows), step):
        lo, hi, shift, sign, base = rows[start:start + step].T[:, :, None]
        half = 0.5 * (hi - lo)
        y = 0.5 * (lo + hi) - half * table[0]
        a = shift + sign * y
        h = np.maximum(a, base)
        big, small = (a + base) / h, np.abs(shift - base + sign * y) / h
        while np.any(big - small > 1e-8 * big):
            big, small = 0.5 * (big + small), np.sqrt(big * small)
        mean = 0.5 * (big + small)
        with np.errstate(over="ignore"):
            g = 2.0 / (q + (a * (x / base)) ** power)
        sums[start:start + step] = (half * g * (2.0 * np.pi * (x / base)) * (a / h - mean) / mean) @ table[1:].T
    estimate = cauchy._panel_estimate(np.abs(sums[:, 0] - sums[:, 1]), np.abs(sums[:, 1] - sums[:, 2]))
    return float(sums[:, 0].sum()), float(estimate.sum())


def test_cached_near_terms_give_the_direct_evaluations_bits():
    # The offsets and radii of the 96-case sweep, at the default spec's
    # orders 16 to 128 and refined ones up to 1024, past the cached orders;
    # and offsets whose edges lie on and next to powers of two.
    cases = [(1.0 + off, 1.0 + eps, pt.r_used, pt.x) for eps in (0.1, 0.5, 1.0, 2.0) for off in (0.0, 4.0, 1e8)
             for pt in f_profile(off, eps, PROFILE_SWEEP_XS[1:], QuadratureSpec())]
    cases += [(2.0, 1.5, 2.0 ** 20 * r, x) for x in (2.0 ** -19, np.nextafter(2.0 ** -19, 1.0), 3e-7, 0.75, 1e6)
              for r in (1.0, np.nextafter(1.0, 2.0))]
    for n in (16, 24, 32, 64, 128, 192, 1024):
        for q, power, radius, x in cases[::7] if n > 128 else cases:
            got = cauchy._profile_integral(x, q, power, radius, n)
            assert [v.hex() for v in got] == [v.hex() for v in direct_profile_integral(x, q, power, radius, n)]
    # The cache holds at most 16 blocks of near-x terms, each array of at
    # most _BLOCK values, read-only.
    assert cauchy._near_terms.cache_info().maxsize == 16
    for n in (24, 192, 1024):
        step = cauchy._BLOCK // (n + 1)
        for start in range(0, len(cauchy._NEAR_ROWS), step):
            terms = cauchy._near_terms(n, start, min(start + step, len(cauchy._NEAR_ROWS)))
            assert all(t.size <= cauchy._BLOCK and not t.flags.writeable for t in terms)

