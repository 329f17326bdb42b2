"""Plane Cauchy transform with the 1/zeta kernel, by polar quadrature.

The transform of a decaying one-variable field b is

    (value) = (1/(2 pi i)) * integral over C of  b(w + zeta)/zeta  dzeta^dzetabar.

Writing zeta = r e^{i theta} makes the area element cancel the kernel
exactly, leaving the bounded integrand

    -(1/pi) * b(w + r e^{i theta}) * e^{-i theta}

over [0, R] x [0, 2 pi).  No cell near the singularity needs special
treatment.  The angular rule is the uniform trapezoid (spectrally accurate
for smooth periodic integrands); the radial rule is composite Simpson on a
dense core with geometrically graded octave panels further out, so large
truncation radii cost only logarithmically many nodes.

Radial and angular refinement are separate decisions, and both rules
nest under doubling: the old radii are the even offsets within each
Simpson segment, and the old angles are the even ones of the doubled set.
The angles are reduced first, to ring sums per radius, kept split into
the even-angle and the odd-angle halves.  The even half alone is the rule
with half the angles, so the difference of the two rules, the angular
estimate, costs no samples.  It cannot see a feature that falls between
all the rays, so radial level L adds a reach probe: the rule with
``n_theta * 2**L`` angles (the count that angles doubling with every
level would use) is evaluated on the level-0 radii only and compared with
the current rule there; the angular estimate is the half-angle difference
plus the probe's change.  A radial level halves the Simpson spacing and
evaluates only its new radii at the current angle count.  The angle count
doubles (evaluating only the new odd angles at every current radius,
reusing the probe's samples on the level-0 radii) while the radial
difference plus the angular estimate exceeds the tolerance and the
angular estimate is not the smaller part, at most ``max_refinements``
times.  Smooth fields therefore keep ``n_theta`` angles and pay only for
the radial refinement and the probe.  The samples are evaluated in blocks
of about ``_BLOCK`` values, so memory is bounded by the block size and
the radial node count, not by ``R * n_theta``.

Error reporting: radial levels are added until the level difference plus
the angular estimate meets ``tol_abs`` (or refinements run out).  The
level difference compares the last two radial meshes at the same angles,
so it is purely radial; the returned value is the Simpson Richardson
extrapolation of that pair, and ``err_estimate`` is the level difference
plus the angular estimate plus a rigorous bound on the truncated tail
derived from the declared decay budget.  The estimate is deliberately
conservative; acceptance tests validate that it dominates the actual
error on every closed-form oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteSampleError, TruncationError
from .fields import DecayBudget
from .quadrature import (
    decay_tail_integral,
    half_line_decay_mass,
    nested_node_mask,
    radial_simpson_mesh,
)

__all__ = [
    "QuadratureSpec",
    "SliceField",
    "CauchyResult",
    "ProfilePoint",
    "cauchy_transform",
    "tail_bound",
    "resolve_truncation_radius",
    "kernel_mass_bound",
    "f_profile",
    "g_bound_check",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization parameters for the polar transform.

    ``r_max == 0`` means: derive the truncation radius from the decay
    budget so the tail bound falls below ``tol_tail`` (capped at
    ``r_cap``).  ``n_r`` counts radial intervals per unit length on the
    core region; ``n_theta`` is the initial angular node count.  The radial
    spacing halves per refinement level until the level difference plus
    the angular estimate meets ``tol_abs``; the angle count doubles only
    when the angular estimate is the larger of the two and their sum
    misses ``tol_abs``.  ``max_refinements`` caps the radial levels and,
    separately, the angle doublings.
    """

    r_max: float = 0.0
    n_theta: int = 32
    n_r: int = 16
    tol_abs: float = 1e-8
    tol_tail: float = 1e-4
    r_cap: float = 1e9
    max_refinements: int = 3

    def __post_init__(self):
        for name in ("r_max", "tol_abs", "tol_tail", "r_cap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n_theta < 8 or self.n_theta % 2:
            raise ValueError("n_theta must be even and >= 8")
        if self.n_r < 2:
            raise ValueError("n_r must be >= 2")
        if self.tol_abs <= 0.0 or self.tol_tail <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.r_max < 0.0:
            raise ValueError("r_max must be >= 0")
        if self.max_refinements < 1:
            raise ValueError("at least one refinement is needed for the error estimate")


@dataclass(frozen=True)
class SliceField:
    """One fiber slot of a form coefficient, all other arguments frozen.

    ``value`` maps the free slot coordinate (absolute, not recentered) to
    the coefficient value and must broadcast over numpy arrays.
    ``off_norm`` carries ``sum over frozen slots of |w|**(1+eps)``, which
    sharpens the tail bound.  ``dbar`` is the analytic conjugate derivative
    along the slot, needed only by the reconstruction check.
    """

    value: Callable[[np.ndarray], np.ndarray]
    decay: DecayBudget
    off_norm: float = 0.0
    dbar: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class CauchyResult:
    """Transform value and its error budget.  ``levels`` is the last radial
    level used, ``n_theta`` the final angle count."""

    value: complex
    err_estimate: float
    richardson: float
    tail: float
    r_used: float
    levels: int
    n_theta: int


@dataclass(frozen=True)
class ProfilePoint:
    x: float
    value: float
    err_estimate: float
    r_used: float


def tail_bound(decay: DecayBudget, off_norm: float, w_center_abs: float, radius: float) -> float:
    """Upper bound for the transform mass omitted outside radius ``radius``.

    On the omitted region ``|w_center + zeta| >= r - |w_center|``, so the
    integrand envelope integrates to

        2 C * integral_(R - a)^inf ds / (1 + off_norm + s**(1+eps)),

    which is monotone decreasing in R and vanishes like R**(-eps).
    """
    if off_norm < 0.0:
        raise ValueError("off_norm must be >= 0")
    if radius <= 2.0 * w_center_abs or radius <= 0.0:
        raise ValueError(
            f"truncation radius {radius} too small for center magnitude {w_center_abs}"
        )
    x = radius - w_center_abs
    return 2.0 * decay.c_bound * decay_tail_integral(decay.epsilon, 1.0 + off_norm, x)


def resolve_truncation_radius(
    decay: DecayBudget, off_norm: float, w_center_abs: float, spec: QuadratureSpec
) -> float:
    """Radius used by the transform: explicit ``r_max`` or the smallest
    doubling of ``max(8, 2|w|+4)`` whose tail bound meets ``tol_tail``."""
    if spec.r_max > 0.0:
        if spec.r_max <= 2.0 * w_center_abs:
            raise TruncationError(
                f"explicit r_max={spec.r_max} does not clear the center magnitude {w_center_abs}"
            )
        return spec.r_max
    radius = max(8.0, 2.0 * w_center_abs + 4.0)
    while True:
        if tail_bound(decay, off_norm, w_center_abs, radius) <= spec.tol_tail:
            return radius
        radius *= 2.0
        if radius > spec.r_cap:
            raise TruncationError(
                f"tail bound exceeds tol_tail={spec.tol_tail} at the radius cap {spec.r_cap}"
            )


# Samples per field call in the polar sum.  2**15 complex values are
# 512 KiB per array, so a block's nodes, samples and temporaries stay in a
# 2 MiB L2 cache, and no array grows with ``nodes * n_theta``.
_BLOCK = 2 ** 15


def _ring_sums(fn, center, radii, unit, with_kernel_phase):
    """``S(r) = sum_j fn(center + r u_j) conj(u_j)`` for each radius (no
    ``conj(u_j)`` factor without the kernel phase), evaluated in blocks of
    about ``_BLOCK`` samples."""
    sums = np.empty(radii.size, dtype=complex)
    phase = np.conj(unit)
    rows = max(1, _BLOCK // unit.size)
    for start in range(0, radii.size, rows):
        block = radii[start:start + rows]
        vals = np.asarray(fn(center + block[:, None] * unit[None, :]))
        if not np.all(np.isfinite(vals)):
            raise NonFiniteSampleError("non-finite field sample on the quadrature grid")
        sums[start:start + rows] = vals @ phase if with_kernel_phase else vals.sum(axis=1)
    return sums


def _unit_circle(n):
    """The ``n`` trapezoid angles ``exp(2 pi i j / n)``."""
    return np.exp(1j * ((2.0 * np.pi / n) * np.arange(n)))


def _refined_polar(fn, center, r_end, r_core, spec, with_kernel_phase, prefactor):
    """Polar quadrature of ``fn`` around ``center`` over [0, r_end], refined
    until the radial and the angular estimates together meet the tolerance;
    returns ``(value, richardson, level, n_theta)``.

    Radial level L uses the level-L radial Simpson mesh at the current
    angle count ``n``, which starts at ``spec.n_theta`` and doubles, at most
    ``spec.max_refinements`` times, while the angular estimate is above the
    tolerance and not below the radial difference (see the module
    docstring).  Columns 0 and 1 of ``sums`` hold the ring sums over the
    even and over the odd angles of the ``n``-point rule.
    """
    tol = spec.tol_abs / max(abs(prefactor), 1e-300)

    def ring(radii, n, part):
        # part 0: the even angles of the n-point rule, part 1: the odd ones
        return _ring_sums(fn, center, radii, _unit_circle(n)[part::2], with_kernel_phase)

    n, n_max = spec.n_theta, spec.n_theta * 2 ** spec.max_refinements
    doublings, wts = 0, None
    probed = {}  # k -> ring sums at the level-0 radii over the odd angles of n_theta * 2**k

    def probe(k):
        if k not in probed:
            probed[k] = ring(base_nodes, spec.n_theta * 2 ** k, 1)
        return probed[k]

    for level in range(spec.max_refinements + 1):
        nodes, level_wts = radial_simpson_mesh(r_end, r_core, spec.n_r, level)
        if wts is None:
            base_nodes, base_wts, at_base = nodes, level_wts, np.arange(nodes.size)
            sums = np.stack([ring(nodes, n, 0), ring(nodes, n, 1)], axis=1)
        else:
            kept = nested_node_mask(r_end, r_core, spec.n_r, level)
            at_base = np.flatnonzero(kept)[at_base]
            grown = np.empty((nodes.size, 2), dtype=complex)
            grown[kept] = sums
            grown[~kept] = np.stack([ring(nodes[~kept], n, 0), ring(nodes[~kept], n, 1)], axis=1)
            sums = grown
        prev_wts, wts = wts, level_wts
        while True:
            total = sums.sum(axis=1)
            cur = (2.0 * np.pi / n) * complex(wts @ total)
            # n-point value minus the n/2-point value (the even half alone)
            ang = (2.0 * np.pi / n) * abs(complex(wts @ (sums[:, 1] - sums[:, 0])))
            if doublings < level:
                # Reach probe: the n_theta * 2**level-point rule on the
                # level-0 radii, against the n-point rule there, sees a
                # feature that falls between all n rays.
                coarse = total[at_base]
                wide = coarse + sum(probe(k) for k in range(doublings + 1, level + 1))
                ang += abs((2.0 * np.pi / (spec.n_theta * 2 ** level)) * complex(base_wts @ wide)
                           - (2.0 * np.pi / n) * complex(base_wts @ coarse))
            diff = 0.0
            if level:
                prev = (2.0 * np.pi / n) * complex(prev_wts @ total[kept])
                diff = abs(cur - prev)
            if diff + ang <= tol or ang < diff or n == n_max:
                break
            doublings, n = doublings + 1, 2 * n
            rest = np.ones(nodes.size, dtype=bool)
            rest[at_base] = False
            odd = np.empty(nodes.size, dtype=complex)
            odd[at_base] = probe(doublings)
            odd[rest] = ring(nodes[rest], n, 1)
            sums = np.stack([total, odd], axis=1)
        if level and (diff + ang <= tol or level == spec.max_refinements):
            value = prefactor * (cur + (cur - prev) / 15.0)
            return value, abs(prefactor) * (diff + ang), level, n
    raise AssertionError("unreachable")


def cauchy_transform(b: SliceField, w_center: complex, spec: QuadratureSpec) -> CauchyResult:
    """Evaluate the transform of ``b`` at ``w_center``.

    Raises :class:`TruncationError` when no admissible radius meets the
    tail tolerance and :class:`NonFiniteSampleError` on bad field samples.
    """
    center = complex(w_center)
    a = abs(center)
    radius = resolve_truncation_radius(b.decay, b.off_norm, a, spec)
    tail = tail_bound(b.decay, b.off_norm, a, radius)
    r_core = max(4.0, 2.0 * a + 4.0)
    value, richardson, levels, n_theta = _refined_polar(
        b.value, center, radius, r_core, spec, with_kernel_phase=True, prefactor=-1.0 / np.pi
    )
    return CauchyResult(value, richardson + tail, richardson, tail, radius, levels, n_theta)


@dataclass(frozen=True)
class KernelMassResult:
    numeric_value: float
    analytic_bound: float

    @property
    def ok(self) -> bool:
        return self.numeric_value <= self.analytic_bound


def kernel_mass_bound(epsilon: float) -> KernelMassResult:
    """Mass of the kernel envelope 1/(|zeta| (1 + |zeta|**(1+eps))).

    In polar form the mass equals ``4 pi * integral_0^inf dr/(1+r**(1+eps))``,
    which splitting at r = 1 shows to be at most ``4 pi (1 + 1/eps)``.  The
    numeric value uses the half-line quadrature; the bound is the closed
    form, and the numeric value must never exceed it.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    numeric = 4.0 * np.pi * half_line_decay_mass(epsilon, 1.0)
    return KernelMassResult(numeric, 4.0 * np.pi * (1.0 + 1.0 / epsilon))


@dataclass(frozen=True)
class GBoundResult:
    value: float
    analytic_bound: float

    @property
    def ok(self) -> bool:
        return self.value <= self.analytic_bound


def g_bound_check(off_norm: float, epsilon: float) -> GBoundResult:
    """Full-line decay integral against its closed bound ``2 + 2/eps``."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if off_norm < 0.0:
        raise ValueError("off_norm must be >= 0")
    value = 2.0 * half_line_decay_mass(epsilon, 1.0 + off_norm)
    return GBoundResult(value, 2.0 + 2.0 / epsilon)


def f_profile(
    off_norm: float, epsilon: float, xs: Sequence[float], spec: QuadratureSpec
) -> tuple:
    """Radial envelope profile F at the requested offsets.

    F(x) integrates ``(1/|zeta|) / (1 + off_norm + |x + zeta|**(1+eps))``
    over the plane (area measure ``2 dxi deta``); it is the envelope that
    bounds the transform magnitude at slot offset x.  F is nonincreasing
    in x and tends to 0 both as x grows and as ``off_norm`` grows; callers
    check those trends against the returned error estimates.

    The profile tail carries no angular cancellation, so for small
    exponents even huge radii leave visible mass.  When no radius under
    ``r_cap`` meets ``tol_tail`` the largest admissible one is used and the
    achieved tail is reported in ``err_estimate`` (unlike the transform,
    which treats the tail tolerance as a hard contract).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    xs = [float(x) for x in xs]
    if any(x < 0 for x in xs):
        raise ValueError("profile offsets must be nonnegative")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("profile offsets must be strictly increasing")
    q = 1.0 + off_norm
    power = 1.0 + epsilon

    def integrand(y):
        return 2.0 / (q + np.abs(y) ** power)

    out = []
    for x in xs:
        if spec.r_max > 0.0:
            radius = spec.r_max
            if radius <= 2.0 * x:
                raise TruncationError(f"explicit r_max={radius} too small for offset {x}")
        else:
            radius = max(8.0, 2.0 * x + 4.0)
            while 4.0 * np.pi * decay_tail_integral(epsilon, q, radius - x) > spec.tol_tail:
                if radius * 2.0 > spec.r_cap:
                    break
                radius *= 2.0
        tail = 4.0 * np.pi * decay_tail_integral(epsilon, q, radius - x)
        value, richardson, _, _ = _refined_polar(
            integrand, complex(x), radius, max(4.0, 2.0 * x + 4.0), spec,
            with_kernel_phase=False, prefactor=1.0,
        )
        out.append(ProfilePoint(x, float(value.real), richardson + tail, radius))
    return tuple(out)
