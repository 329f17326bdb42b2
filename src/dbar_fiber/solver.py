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
import warnings
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
    resolve_truncation_radius,
    _polar_sum,
    _refined_polar,
    _ring_sums,
    _unit_circle,
)
from .errors import MissingDerivativeError
from .fields import (
    BASE,
    FIBER,
    BaseFiberPoint,
    ScalarField,
    VariableId,
    ZeroOneForm,
    _fd_quotient,
    _fd_stencil,
)

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
    "freeze_spec",
]

_ENVELOPE_SLACK = 1e-9

# Relative rounding floor of a transform value.  The refinement error is
# smooth across a shared layout, so central differences cancel it, but
# rounding noise is not and reaches a difference quotient as about
# ``_ROUNDING * |value| / h``.  2**-46 is 64 ulps of the value: the polar
# sum adds thousands of ring sums of field samples of about its size.
_ROUNDING = 2.0 ** -46


def _slot_norm_split(w: np.ndarray, delta: int, epsilon: float):
    mask = np.arange(w.size) != (delta - 1)
    off = float(np.sum(np.abs(w[mask]) ** (1.0 + epsilon)))
    return off


def _slotted(fn, p: BaseFiberPoint, delta: int):
    """``x -> fn(p.z, w)``, where ``w`` is ``p.w`` with fiber slot ``delta``
    set to ``x``; broadcasts over arrays of ``x``."""
    z, w_frozen = p.z, p.w

    def value(x):
        x = np.asarray(x, dtype=complex)
        if w_frozen.size == 1:
            return fn(z, x[..., None])
        # slot-major, so that each slot ``w[..., i]`` a form reads is contiguous
        w_arr = np.empty((w_frozen.size,) + x.shape, dtype=complex)
        for i, frozen in enumerate(w_frozen):
            w_arr[i] = x if i == delta - 1 else frozen
        return fn(z, np.moveaxis(w_arr, 0, -1))

    return value


def _stacked_slices(fn, points, delta: int, center: complex):
    """``x -> fn`` at each of ``points``, stacked on a leading axis, with
    slot ``delta`` of each set to ``x`` plus the point's offset from
    ``center`` there: each stacked field's transform at ``center`` is the
    transform of the point's own slice at its own slot coordinate, on the
    disc of the same radius around it.  ``z`` and the frozen slots carry
    the stack axis and broadcast over the grid."""
    zs = np.stack([q.z for q in points])
    ws = np.stack([q.w for q in points])
    ws[:, delta - 1] -= center

    def value(x):
        x = np.asarray(x, dtype=complex)
        lead = (len(points),) + (1,) * x.ndim
        # slot-major, so that each slot ``w[..., i]`` a form reads is contiguous
        w = np.empty((ws.shape[1],) + lead[:1] + x.shape, dtype=complex)
        for i, frozen in enumerate(ws.T):
            if i == delta - 1:
                np.add(frozen.reshape(lead), x, out=w[i])
            else:
                w[i] = frozen.reshape(lead)
        return fn(zs.reshape(lead + zs.shape[1:]), w.transpose(*range(1, w.ndim), 0))

    value._fields = len(points)
    return value


def fiber_slice(form: ZeroOneForm, p: BaseFiberPoint, delta: int) -> SliceField:
    """Freeze everything but fiber slot ``delta`` of coefficient b_delta."""
    if not 1 <= delta <= form.k:
        raise IndexError(f"slot {delta} out of range for k={form.k}")
    return SliceField(
        value=_slotted(form.b_coeffs[delta - 1].evaluate, p, delta),
        decay=form.decay,
    )


def freeze_spec(form: ZeroOneForm, p: BaseFiberPoint, delta: int, spec: QuadratureSpec) -> QuadratureSpec:
    """Pin the truncation radius chosen at ``p`` into the spec.

    The radius is all a spec can pin.  A residual's stencil shares the
    rest by construction: its points are one stacked transform at ``p``
    (see :func:`residual`), so they share every panel's radial level and
    angle count, and the refinement error, smooth across that one layout,
    cancels in the differences instead of reaching them as error/h.
    """
    if spec.r_max > 0.0:
        return spec
    return replace(spec, r_max=resolve_truncation_radius(form.decay, abs(p.w[delta - 1]), spec))


def solve_point(
    form: ZeroOneForm,
    p: BaseFiberPoint,
    delta: int = 1,
    spec: QuadratureSpec = QuadratureSpec(),
) -> CauchyResult:
    """Solution value at ``p`` through fiber slot ``delta`` (1-based)."""
    return cauchy_transform(fiber_slice(form, p, delta), complex(p.w[delta - 1]), spec)


def delta_consistency(form: ZeroOneForm, p: BaseFiberPoint, spec: QuadratureSpec) -> tuple:
    """``(gap, excess)`` over all pairs of per-slot solution candidates:
    the largest disagreement, and the largest disagreement minus the sum of
    the pair's ``err_estimate`` values.

    The transform through any slot solves the same equation, and decaying
    solutions are unique, so all slots must agree up to quadrature error.
    """
    if form.k < 2:
        raise ValueError("slot consistency needs k >= 2")
    results = [solve_point(form, p, d, spec) for d in range(1, form.k + 1)]
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


def _solve_stencil(form: ZeroOneForm, p: BaseFiberPoint, points, delta: int, spec: QuadratureSpec):
    """``(values, richardson)``: the solution values at ``points``, small
    shifts of ``p``, through slot ``delta``, as one transform of their
    stacked slices (see :func:`_stacked_slices`) at ``p``'s slot
    coordinate and the radius of ``spec`` (an explicit one is checked
    against that center, as a solve checks it); ``richardson`` is the
    largest of their refinement estimates, on their one shared layout."""
    if not 1 <= delta <= form.k:
        raise IndexError(f"slot {delta} out of range for k={form.k}")
    center = complex(p.w[delta - 1])
    radius = resolve_truncation_radius(form.decay, abs(center), spec)
    fn = _stacked_slices(form.b_coeffs[delta - 1].evaluate, points, delta, center)
    values, richardson, *_ = _polar_sum(fn, center, radius, spec, True, -1.0 / np.pi)
    return [complex(v) for v in values], richardson


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
    h: float = 1e-3,
    delta: int = 1,
) -> ResidualReport:
    """Compare conjugate derivatives of the computed solution with the
    coefficients they must equal.

    Derivatives are central differences of the solution over a stencil of
    4 * (n + k) shifted points and no solve at ``p`` itself.  The stencil
    is one transform of its 4 * (n + k) stacked fields at ``p`` (see
    :func:`_solve_stencil`): one grid, one layout and one refinement loop,
    at the truncation radius resolved at ``p`` (see :func:`freeze_spec`).
    Residuals decrease like h^2 until the noise floor; ``noisy`` is set,
    and a warning raised, when that floor exceeds h^2: the stencil's
    largest refinement estimate, plus its rounding floor over h
    (``_ROUNDING * |value| / h`` at its largest value), plus the bound on
    the truncation circle's boundary term (see :func:`_boundary_floor`).
    """
    if h <= 0.0:
        raise ValueError("fd step must be positive")
    frozen = freeze_spec(form, p, delta, spec)
    variables = [VariableId(FIBER, gamma) for gamma in range(1, form.k + 1)]
    variables += [VariableId(BASE, alpha) for alpha in range(1, form.n + 1)]
    points = [q for v in variables for q in _fd_stencil(p, v, h)]
    values, richardson = _solve_stencil(form, p, points, delta, frozen)
    residuals = [
        abs(_fd_quotient(values[4 * i:4 * i + 4], h) - coeff.at(p))
        for i, coeff in enumerate(form.b_coeffs + form.a_coeffs)
    ]
    floor = _boundary_floor(form, abs(complex(p.w[delta - 1])), frozen.r_max, h)
    noisy = richardson + _ROUNDING * max(abs(v) for v in values) / h + floor > h * h
    if noisy:
        warnings.warn(
            "quadrature refinement estimate, rounding or truncation floor exceeds h^2; "
            "residuals may be noise limited",
            stacklevel=2,
        )
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

    def within_envelope(self) -> bool:
        return all(r.abs_value <= r.envelope + r.err_estimate + _ENVELOPE_SLACK for r in self.rows)


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
    # The envelope only needs bound-quality accuracy, and its own error
    # estimate widens the bound, so its quadrature tolerance can stay loose.
    envelope_spec = replace(spec, r_max=0.0, tol_abs=max(spec.tol_abs, 1e-6))
    rows = []
    for r in radii:
        p = BaseFiberPoint(z, r * ray)
        res = solve_point(form, p, delta, spec)
        off = _slot_norm_split(p.w, delta, eps)
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
    interior = _refined_polar(
        _slotted(b.wirtinger[(FIBER, delta)], p, delta), center, radius, max(4.0, 2.0 * abs(center) + 4.0),
        spec, with_kernel_phase=True, prefactor=-1.0 / np.pi,
    )[0]

    on_slot = _slotted(b.evaluate, p, delta)
    means = []
    for level in range(spec.max_refinements + 1):
        n = spec.n_theta * 2 ** level
        means.append(complex(_ring_sums(on_slot, 1, center, np.array([radius]), _unit_circle(n), None)[0, 0] / n))
        if level and abs(means[-1] - means[-2]) <= spec.tol_abs:
            break
    return BmReconstruction(interior, means[-1], b.at(p))
