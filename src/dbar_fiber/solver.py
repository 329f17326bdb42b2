"""Pointwise solution of the fiber conjugate-derivative equation.

``solve_point`` transforms one fiber slot of the b-part; the remaining
operations verify everything the solution is supposed to satisfy: slot
independence, derivative residuals against the original coefficients,
decay along fiber rays with the profile envelope, and the disc
reconstruction identity (boundary circle integral plus interior kernel
integral reproduces the field value).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence, Tuple

import numpy as np

from .cauchy import (
    CauchyResult,
    QuadratureSpec,
    SliceField,
    cauchy_transform,
    f_profile,
    resolve_truncation_radius,
    _refined_polar,
)
from .errors import MissingDerivativeError, NonFiniteSampleError
from .fields import (
    BASE,
    FIBER,
    BaseFiberPoint,
    ScalarField,
    VariableId,
    ZeroOneForm,
    wirtinger_fd,
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
# smooth across a frozen layout, so central differences cancel it, but
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

    Derivative stencils must evaluate the solution on a common node layout;
    otherwise the layout jump between stencil points shows up as finite
    difference noise of size error/h instead of error.
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


def residual(
    form: ZeroOneForm,
    p: BaseFiberPoint,
    spec: QuadratureSpec = QuadratureSpec(),
    h: float = 1e-3,
    delta: int = 1,
) -> ResidualReport:
    """Compare conjugate derivatives of the computed solution with the
    coefficients they must equal.

    Derivatives are central differences of ``solve_point`` over a stencil
    that shares one frozen quadrature layout: 4 * (n + k) shifted points,
    and no solve at ``p`` itself.  Residuals decrease like h^2 until the
    quadrature noise floor; ``noisy`` is set, and a warning raised, when the
    largest refinement estimate plus rounding floor over h
    (``_ROUNDING * |value| / h``) of the stencil solves exceeds h^2.
    """
    if h <= 0.0:
        raise ValueError("fd step must be positive")
    frozen = freeze_spec(form, p, delta, spec)
    noise = []

    def value_at(pt: BaseFiberPoint) -> complex:
        res = solve_point(form, pt, delta, frozen)
        noise.append(res.richardson + _ROUNDING * abs(res.value) / h)
        return res.value

    w_res = []
    for gamma in range(1, form.k + 1):
        d = wirtinger_fd(value_at, p, VariableId(FIBER, gamma), h)
        w_res.append(abs(d - form.b_coeffs[gamma - 1].at(p)))
    z_res = []
    for alpha in range(1, form.n + 1):
        d = wirtinger_fd(value_at, p, VariableId(BASE, alpha), h)
        z_res.append(abs(d - form.a_coeffs[alpha - 1].at(p)))
    noisy = max(noise) > h * h
    if noisy:
        warnings.warn(
            "quadrature refinement estimate or rounding floor exceeds h^2; residuals may be noise limited",
            stacklevel=2,
        )
    return ResidualReport(tuple(w_res), tuple(z_res), noisy)


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
    (recentered at the slot coordinate) and the interior integral of the
    conjugate slot derivative against the kernel.  The derivative must be
    supplied analytically; differencing inside the singular integral is not
    stable enough at the assumed smoothness.
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
    n_theta = spec.n_theta
    prev = None
    boundary = 0.0 + 0.0j
    for _ in range(spec.max_refinements + 1):
        theta = (2.0 * np.pi / n_theta) * np.arange(n_theta)
        samples = np.asarray(on_slot(center + radius * np.exp(1j * theta)), dtype=complex)
        if not np.all(np.isfinite(samples)):
            raise NonFiniteSampleError("non-finite sample on the boundary circle")
        boundary = complex(samples.mean())
        if prev is not None and abs(boundary - prev) <= spec.tol_abs:
            break
        prev = boundary
        n_theta *= 2
    return BmReconstruction(interior, boundary, b.at(p))
