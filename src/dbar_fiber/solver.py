"""Pointwise solution of the fiber conjugate-derivative equation.

``solve_point`` transforms one fiber slot of the b-part; the remaining
operations verify everything the solution is supposed to satisfy: slot
independence, derivative residuals against the original coefficients,
decay along fiber rays with the profile envelope, and the disc
reconstruction identity (boundary circle integral plus interior kernel
integral reproduces the field value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence, Tuple

import numpy as np

from .cauchy import (
    _SWITCH,
    CauchyResult,
    QuadratureSpec,
    SliceField,
    cauchy_transform,
    f_profile,
    _one_center,
    _ring_sums,
    _unit_circle,
)
from .errors import MissingDerivativeError
from .fields import (
    FIBER,
    BaseFiberPoint,
    ScalarField,
    ZeroOneForm,
    _fd_quotient,
    _fd_stencil,
)
from .report import TOLERANCES

__all__ = [
    "ResidualReport",
    "DecayProfile",
    "BmReconstruction",
    "solve_point",
    "delta_consistency",
    "oracle_excess",
    "residual",
    "decay_profile",
    "bm_reconstruct",
]

# Relative rounding floor of a transform value.  The refinement error is
# smooth across a shared layout, so central differences cancel it, but
# rounding noise is not and reaches a difference quotient as about
# ``_ROUNDING * |value| / h``.  2**-46 is 64 ulps of the value: the polar
# sum adds thousands of ring sums of field samples of about its size.
_ROUNDING = 2.0 ** -46


def _slices(fn, points, delta: int, center: complex):
    """``x -> fn(z, w)`` at each of ``points``, with ``w`` the point's fiber
    coordinates, slot-major (each slot ``w[..., i]`` contiguous), and slot
    ``delta`` set to ``x`` plus the point's offset from ``center`` there:
    each field's transform at ``center`` is that of its point's own slice
    at its own slot coordinate.  A single point at ``center`` is a lone
    field, whose one-slot fiber reads ``x`` itself; other ``points`` are
    stacked on a leading axis (``_fields``), which ``z`` and the frozen
    slots carry, broadcast over the grid."""
    slot = delta - 1
    if len(points) == 1 and points[0].w[slot] == center:
        z, frozen = points[0].z, points[0].w

        def lone(x):
            x = np.asarray(x, dtype=complex)
            if frozen.size == 1:
                return fn(z, x[..., None])
            w = np.empty((frozen.size,) + x.shape, dtype=complex)
            for i, value in enumerate(frozen):
                w[i] = x if i == slot else value
            return fn(z, w.transpose(*range(1, w.ndim), 0))

        return lone

    zs = np.stack([q.z for q in points])
    ws = np.stack([q.w for q in points])
    ws[:, slot] -= center

    def stacked(x):
        x = np.asarray(x, dtype=complex)
        lead = (len(points),) + (1,) * x.ndim
        w = np.empty((ws.shape[1],) + lead[:1] + x.shape, dtype=complex)
        for i, frozen in enumerate(ws.T):
            if i == slot:
                np.add(frozen.reshape(lead), x, out=w[i])
            else:
                w[i] = frozen.reshape(lead)
        return fn(zs.reshape(lead + zs.shape[1:]), w.transpose(*range(1, w.ndim), 0))

    stacked._fields = len(points)
    return stacked


def _slice_field(form: ZeroOneForm, p: BaseFiberPoint, points, delta: int) -> SliceField:
    """b_delta's slices at ``points`` through slot ``delta``, around ``p``'s slot coordinate (see :func:`_slices`)."""
    if not 1 <= delta <= form.k:
        raise IndexError(f"slot {delta} out of range for k={form.k}")
    fn = _slices(form.b_coeffs[delta - 1].evaluate, points, delta, complex(p.w[delta - 1]))
    return SliceField(fn, form.decay)


def fiber_slice(form: ZeroOneForm, p: BaseFiberPoint, delta: int) -> SliceField:
    """Freeze everything but fiber slot ``delta`` of coefficient b_delta."""
    return _slice_field(form, p, [p], delta)


def solve_point(
    form: ZeroOneForm,
    p: BaseFiberPoint,
    delta: int = 1,
    spec: QuadratureSpec = QuadratureSpec(),
) -> CauchyResult:
    """Solution value at ``p`` through fiber slot ``delta`` (1-based)."""
    return cauchy_transform(fiber_slice(form, p, delta), complex(p.w[delta - 1]), spec)


def delta_consistency(results: Sequence[CauchyResult]) -> tuple:
    """``(gap, excess)`` over all pairs of the caller's per-slot solves at
    one point: the largest disagreement, and the largest disagreement minus
    the sum of the pair's ``err_estimate`` values.

    The transform through any slot solves the same equation, and decaying
    solutions are unique, so all slots must agree up to quadrature error.
    """
    if len(results) < 2:
        raise ValueError("slot consistency needs k >= 2")
    pairs = [(abs(a.value - b.value), a.err_estimate + b.err_estimate) for a, b in combinations(results, 2)]
    return max(gap for gap, _ in pairs), max(gap - errs for gap, errs in pairs)


def oracle_excess(form: ZeroOneForm, solved: Sequence[Tuple[BaseFiberPoint, CauchyResult]]) -> float:
    """Largest ``|value - primitive| - err_estimate`` over the caller's
    ``(point, result)`` solves of ``form``, floored at 0: how far the solution
    misses the form's closed-form potential beyond its own error estimate."""
    return max([0.0] + [abs(res.value - form.primitive_at(p)) - res.err_estimate for p, res in solved])


@dataclass(frozen=True)
class ResidualReport:
    """Wirtinger residuals of the computed solution against the form."""

    w_residuals: tuple
    z_residuals: tuple
    noisy: bool

    @property
    def max_residual(self) -> float:
        return max(self.w_residuals + self.z_residuals, default=0.0)


def _solve_stencil(form: ZeroOneForm, p: BaseFiberPoint, points, delta: int, spec: QuadratureSpec) -> CauchyResult:
    """The solution values at ``points``, small shifts of ``p``, through
    slot ``delta``: one transform of their stacked slices (see
    :func:`_slices`) at ``p``'s slot coordinate, on one layout and at the
    one radius resolved there."""
    return cauchy_transform(_slice_field(form, p, points, delta), complex(p.w[delta - 1]), spec)


def _boundary_floor(form: ZeroOneForm, a: float, radius: float, h: float) -> float:
    """Envelope bound on the Cauchy-Pompeiu term left in the fiber
    difference quotients of a stencil of step h at a center of magnitude
    ``a``: the conjugate derivative of the truncated transform is the
    field minus a mean over the disc's edge, which moves with the shift.
    Below the switch radius that edge is the circle of radius R around
    the shifted center, where ``|b| <= C (R - a - h)**-(1+eps)``; past it,
    the far part's circle about the shifted origin, with ``|xi| >= R - h``
    and ``R / |xi - w| <= R / (R - a)``.  The a-part declares no decay
    rate, so nothing bounds the base quotients' term."""
    gap = radius - a - h
    if gap <= 0.0:
        return math.inf
    power = 1.0 + form.decay.epsilon
    if a < _SWITCH:
        return form.decay.c_bound * gap ** -power
    return form.decay.c_bound * radius / (radius - a) * (radius - h) ** -power


def residual(
    form: ZeroOneForm,
    p: BaseFiberPoint,
    spec: QuadratureSpec = QuadratureSpec(),
    h: float = TOLERANCES["fd_h"],
    delta: int = 1,
) -> ResidualReport:
    """Compare conjugate derivatives of the computed solution with the
    coefficients they must equal.

    Derivatives are central differences of the solution over a stencil of
    4 * (n + k) shifted points and no solve at ``p`` itself.  The stencil
    is one transform of its 4 * (n + k) stacked fields at ``p`` (see
    :func:`_solve_stencil`): one grid, one layout and one refinement loop,
    at the truncation radius resolved at ``p``.  Residuals decrease like
    h^2 until the noise floor; ``noisy`` is set when that floor exceeds
    h^2: the stencil's largest refinement estimate, plus its rounding
    floor over h (``_ROUNDING * |value| / h`` at its largest value), plus
    the bound on the truncation circle's boundary term (see
    :func:`_boundary_floor`).
    """
    if h <= 0.0:
        raise ValueError("fd step must be positive")
    terms = form.terms()
    points = [q for v, _ in terms for q in _fd_stencil(p, v, h)]
    res = _solve_stencil(form, p, points, delta, spec)
    # Python complex values, so that ``abs`` below is Python's, not numpy's
    values = [complex(v) for v in res.value]
    residuals = [abs(_fd_quotient(values[4 * i:4 * i + 4], h) - coeff.at(p)) for i, (_, coeff) in enumerate(terms)]
    floor = _boundary_floor(form, abs(complex(p.w[delta - 1])), res.r_used, h)
    noisy = res.richardson + _ROUNDING * max(abs(v) for v in values) / h + floor > h * h
    return ResidualReport(tuple(residuals[:form.k]), tuple(residuals[form.k:]), noisy)


@dataclass(frozen=True)
class DecayProfileRow:
    radius: float
    abs_value: float
    err_estimate: float
    envelope: float


@dataclass(frozen=True)
class DecayProfile:
    rows: tuple


def decay_profile(
    form: ZeroOneForm,
    z_fixed,
    ray,
    radii: Sequence[float],
    spec: QuadratureSpec = QuadratureSpec(),
    delta: int = 1,
) -> DecayProfile:
    """|solution| along ``w = radius * ray`` at fixed base point.

    Each row also carries the envelope ``(C / 2 pi) * F(|w_delta|)`` built
    from the declared budget and the profile integral with the matching
    frozen-slot norm; the magnitudes must stay inside it and tend to 0.
    """
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    ray = np.asarray(ray, dtype=complex).reshape(-1)
    if ray.size != form.k:
        raise ValueError("ray length must equal k")
    z = np.asarray(z_fixed, dtype=complex).reshape(-1)
    eps, c = form.decay.epsilon, form.decay.c_bound
    envelope_spec = replace(spec, r_max=0.0)  # an explicit solve radius need not clear 2|w_delta|
    rows = []
    for r in radii:
        p = BaseFiberPoint(z, r * ray)
        res = solve_point(form, p, delta, spec)
        off = float(np.sum(np.abs(np.delete(p.w, delta - 1)) ** (1.0 + eps)))
        x = abs(p.w[delta - 1])
        prof = f_profile(off, eps, [x], envelope_spec)[0]
        envelope = (c / (2.0 * np.pi)) * (prof.value + prof.err_estimate)
        rows.append(DecayProfileRow(r, abs(res.value), res.err_estimate, envelope))
    return DecayProfile(tuple(rows))


@dataclass(frozen=True)
class BmReconstruction:
    interior: complex
    boundary: complex
    field_value: complex

    @property
    def reconstruction_gap(self) -> float:
        return abs(self.interior + self.boundary - self.field_value)


def bm_reconstruct(
    b: ScalarField,
    p: BaseFiberPoint,
    delta: int,
    radius: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> BmReconstruction:
    """Disc reconstruction of ``b`` at ``p`` through slot ``delta``.

    Splits the field value into the circle average over ``|zeta| = radius``
    (recentered at the slot coordinate; the trapezoid rule, its angles
    doubled until two averages agree to ``tol_abs``) and the interior
    integral of the conjugate slot derivative against the kernel.  The
    derivative must be supplied analytically; differencing inside the
    singular integral is not stable enough at the assumed smoothness.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if not 1 <= delta <= p.k:
        raise IndexError(f"slot {delta} out of range")
    if b.wirtinger is None or (FIBER, delta) not in b.wirtinger:
        raise MissingDerivativeError(
            "reconstruction requires the analytic conjugate slot derivative"
        )
    center = complex(p.w[delta - 1])
    interior = _one_center(_slices(b.wirtinger[(FIBER, delta)], [p], delta, center), center, radius, spec)[0]

    on_slot = _slices(b.evaluate, [p], delta, center)
    means = []
    for level in range(spec.max_refinements + 1):
        n = spec.n_theta * 2 ** level
        means.append(complex(_ring_sums(on_slot, 1, center, np.array([radius]), _unit_circle(n), None)[0, 0] / n))
        if level and abs(means[-1] - means[-2]) <= spec.tol_abs:
            break
    return BmReconstruction(interior, means[-1], b.at(p))
