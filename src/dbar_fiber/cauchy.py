"""Plane Cauchy transform with the 1/zeta kernel, by polar quadrature.

The transform of a decaying one-variable field b is

    (value) = (1/(2 pi i)) * integral over C of  b(w + zeta)/zeta  dzeta^dzetabar.

Writing zeta = r e^{i theta} makes the area element cancel the kernel
exactly, leaving the bounded integrand

    -(1/pi) * b(w + r e^{i theta}) * e^{-i theta}

over [0, R] x [0, 2 pi).  No cell near the singularity needs special
treatment.  The angular rule is the uniform trapezoid (spectrally accurate
for smooth periodic integrands).  The radial axis is one partition into
panels, the dense core cut into panels of length 2 and each octave past
it one panel, so large truncation radii cost only logarithmically many
panels.  Each panel has its own Clenshaw-Curtis rule, spectrally accurate
like the trapezoid (Trefethen, SIAM Review 50, 2008).

Radial and angular refinement are separate decisions, and both rules
nest under doubling: the old radii are the even Chebyshev offsets within
each panel, and the old angles are the even ones of the doubled set.
Every panel has its own angle count, starting at ``n_theta``; a node on
a shared panel edge appears once in each panel.  The angles are reduced
first, to ring sums per radius, kept split into the even-angle and the
odd-angle halves.  The even half alone is the rule with half the angles,
so the difference of the two rules, the angular estimate, costs no
samples.  It cannot see a feature that falls between all the rays, so
radial level L adds a reach probe: on the level-0 radii of the panels
with fewer than ``n_theta * 2**L`` angles, that rule is compared with
the panel's own; the angular estimate is the half-angle difference plus
the probe's change, both summed with their signs over all panels.  A
radial level doubles every panel's order and evaluates only its new
radii.  While the radial difference plus the angular estimate exceeds
the tolerance and the angular estimate is not the smaller part, the
panels with a large share of the angular estimate double their angles
(see :func:`_panels_to_double`), each at most ``max_refinements`` times,
evaluating only their new odd angles.  While no panel has doubled, every
sum is that of a single angle count, bit for bit.  A narrow feature at
one radius therefore refines the angles near it only.  Samples are
evaluated ring by ring, in field calls of about ``_BLOCK`` values, so
memory is bounded by the block size and the radial node count, not by
``R * n_theta``.

From the switch radius ``_SWITCH`` = 12 on, all rays around w can miss
the field's mass, so a floating partition of unity (Bruno & Kunyansky, J.
Comput. Phys. 169, 2001) splits the integrand: ``phi_w b``, with phi_w a
C^inf cutoff, 1 on |xi - w| <= rho/2 and 0 past rho = |w|/2, by the polar
rule around w on [0, rho]; ``(1 - phi_w(xi)) b(xi) |xi| / (xi - w)``, whose
features sit at the fiber origin, by the rule around it on [0, R].

Error reporting: radial levels are added until the level difference plus
the angular estimate meets ``tol_abs`` (or refinements run out).  The
level difference compares the last two radial rules at the same angles,
so it is purely radial.  It measures the coarser rule's error, and the
value returned is the finer rule's, not extrapolated; ``err_estimate`` is
the level difference plus the angular estimate plus a rigorous bound on
the truncated tail derived from the declared decay budget.  Acceptance
tests validate that it dominates the actual error on every closed-form
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteSampleError, TruncationError
from .fields import DecayBudget
from .quadrature import decay_tail_integral, half_line_decay_mass, radial_panel_rule

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


# Samples per field call in the polar sum.  2**14 complex values are
# 256 KiB per array, so a block's samples and the field's temporaries stay
# in a 2 MiB L2 cache, and no array grows with ``nodes * n_theta``.
_BLOCK = 2 ** 14

# Node budget of a spec, checked before any array is allocated: a ring of
# up to ``_MAX_ANGLES`` angles fits in one evaluation block, and a radial
# rule has at most order ``_MAX_RADIAL`` per unit length.
_MAX_ANGLES = _BLOCK
_MAX_RADIAL = 2 ** 15

# The two-center switch radius, above every center that solve stencils and
# bundle charts reach (|w| <= 8), and the near disc's radius over |w|.
_SWITCH = 12.0
_NEAR = 0.5


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization parameters for the polar transform.

    ``r_max == 0`` means: derive the truncation radius from the decay
    budget so the tail bound falls below ``tol_tail`` (capped at
    ``r_cap``).  ``n_r`` is the level-0 radial order per unit length on the
    core panels (an octave panel's order is ``max(8, n_r)``); ``n_theta``
    is every radial panel's initial angular node count.  Every panel's
    radial order doubles per refinement level until the level difference
    plus the angular estimate meets ``tol_abs``; a panel's angle count
    doubles only when the angular estimate is the larger of the two, their
    sum misses ``tol_abs`` and the panel's share of the angular estimate is
    large (see ``_panels_to_double``).  Results report the
    largest panel count as their ``n_theta``.  ``max_refinements`` caps the
    radial levels and, separately, each panel's angle doublings.  Specs
    whose largest ring (``n_theta * 2**max_refinements`` angles) would not
    fit in one evaluation block of ``2**14`` samples, or whose finest
    radial rule would exceed an order of ``2**15`` per unit length, are
    rejected.
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
        growth = 2 ** min(self.max_refinements, 64)
        if self.n_theta * growth > _MAX_ANGLES:
            raise ValueError(f"n_theta * 2**max_refinements must be <= {_MAX_ANGLES}")
        if self.n_r * growth > _MAX_RADIAL:
            raise ValueError(f"n_r * 2**max_refinements must be <= {_MAX_RADIAL}")


@dataclass(frozen=True)
class SliceField:
    """One fiber slot of a form coefficient, all other arguments frozen.

    ``value`` maps the free slot coordinate (absolute, not recentered) to
    the coefficient value and must broadcast over numpy arrays.
    ``off_norm`` carries ``sum over frozen slots of |w|**(1+eps)``, which
    sharpens the tail bound.
    """

    value: Callable[[np.ndarray], np.ndarray]
    decay: DecayBudget
    off_norm: float = 0.0


@dataclass(frozen=True)
class CauchyResult:
    """Transform value and its error budget.  ``levels`` is the last radial
    level used, ``n_theta`` the largest panel angle count and ``n_evals``
    the number of field samples evaluated (reach probe included)."""

    value: complex
    err_estimate: float
    richardson: float
    tail: float
    r_used: float
    levels: int
    n_theta: int
    n_evals: int


@dataclass(frozen=True)
class ProfilePoint:
    x: float
    value: float
    err_estimate: float
    r_used: float


def tail_bound(decay: DecayBudget, off_norm: float, w_center_abs: float, radius: float) -> float:
    """Upper bound for the transform mass omitted outside radius ``radius``
    by the rule at a center of magnitude ``a = w_center_abs``.  Below the
    switch radius ``|w_center + zeta| >= R - a`` on the omitted ``|zeta| >
    R``, so the integrand envelope integrates to

        2 C * integral_(R - a)^inf ds / (1 + off_norm + s**(1+eps)).

    At or above it the far part omits ``|xi| > R``, where ``|xi| / |xi -
    w_center| <= R / (R - a)``: the bound is ``2 C R / (R - a)`` times that
    integral from R.  Both decrease in R and vanish like R**(-eps).
    """
    if off_norm < 0.0:
        raise ValueError("off_norm must be >= 0")
    if radius <= 2.0 * w_center_abs or radius <= 0.0:
        raise ValueError(f"truncation radius {radius} too small for center magnitude {w_center_abs}")
    x = radius - w_center_abs
    if w_center_abs < _SWITCH:
        return 2.0 * decay.c_bound * decay_tail_integral(decay.epsilon, 1.0 + off_norm, x)
    return 2.0 * decay.c_bound * radius / x * decay_tail_integral(decay.epsilon, 1.0 + off_norm, radius)


def _radius_and_tail(decay, off_norm, w_center_abs, spec, clamp=False):
    """``(radius, tail)``: the truncation radius and the tail bound there.
    The radius is the explicit ``r_max``, or the smallest doubling of
    ``max(8, 2|w|+4)`` whose tail bound meets ``tol_tail``; when the next
    doubling would pass ``r_cap`` first, the search raises, or with
    ``clamp`` stops at the last radius tried."""
    if spec.r_max > 0.0:
        if spec.r_max <= 2.0 * w_center_abs:
            raise TruncationError(f"explicit r_max={spec.r_max} does not clear the center magnitude {w_center_abs}")
        return spec.r_max, tail_bound(decay, off_norm, w_center_abs, spec.r_max)
    radius = max(8.0, 2.0 * w_center_abs + 4.0)
    while True:
        tail = tail_bound(decay, off_norm, w_center_abs, radius)
        if tail <= spec.tol_tail or (clamp and radius * 2.0 > spec.r_cap):
            return radius, tail
        radius *= 2.0
        if radius > spec.r_cap:
            raise TruncationError(f"tail bound exceeds tol_tail={spec.tol_tail} at the radius cap {spec.r_cap}")


def resolve_truncation_radius(
    decay: DecayBudget, off_norm: float, w_center_abs: float, spec: QuadratureSpec
) -> float:
    """The truncation radius of the transform (see ``_radius_and_tail``)."""
    return _radius_and_tail(decay, off_norm, w_center_abs, spec)[0]


def _ring_sums(fn, center, rings, with_kernel_phase):
    """Ring sums ``S(r) = sum_j fn(center + r u_j) conj(u_j)`` (no
    ``conj(u_j)`` factor without the kernel phase) for each ``(radii,
    unit)`` of ``rings``, one array per ring, evaluated in blocks of about
    ``_BLOCK`` samples."""
    out = []
    for radii, unit in rings:
        sums = np.empty(radii.size, dtype=complex)
        phase = np.conj(unit)
        rows = max(1, _BLOCK // unit.size)
        for start in range(0, radii.size, rows):
            block = radii[start:start + rows]
            vals = np.asarray(fn(center + block[:, None] * unit[None, :]))
            if not np.all(np.isfinite(vals)):
                raise NonFiniteSampleError("non-finite field sample on the quadrature grid")
            sums[start:start + rows] = vals @ phase if with_kernel_phase else vals.sum(axis=1)
        out.append(sums)
    return out


def _unit_circle(n):
    """The ``n`` trapezoid angles ``exp(2 pi i j / n)``."""
    return np.exp(1j * ((2.0 * np.pi / n) * np.arange(n)))


def _panel_sums(panel, values, count):
    """Complex sums of ``values`` grouped by ``panel`` index."""
    return (np.bincount(panel, values.real, count)
            + 1j * np.bincount(panel, values.imag, count))


def _panels_to_double(half, change, open_, tol, room):
    """The panels to double, from each panel's sum of half-angle terms
    ``half`` and of reach-probe changes ``change``: the panels still below
    the angle cap (``open_``) whose share ``|half| + |change|`` exceeds
    ``tol`` over the panel count.  When there are none, the open panels in
    decreasing order of share until the shares left undoubled plus the
    angular estimate of the capped panels are at most ``room``; none when
    the capped panels alone exceed it, since no doubling can help then."""
    share = np.abs(half) + np.abs(change)
    grow = open_ & (share > tol / share.size)
    if grow.any():
        return grow
    room -= abs(half[~open_].sum()) + abs(change[~open_].sum())
    if room < 0.0:
        return grow
    order = np.flatnonzero(open_ & (share > 0.0))
    order = order[np.argsort(-share[order], kind="stable")]
    # the undoubled open shares before each panel in that order is taken
    left = share[order].sum() - (np.cumsum(share[order]) - share[order])
    grow[order[left > room]] = True
    return grow


def _refined_polar(fn, center, r_end, r_core, spec, with_kernel_phase, prefactor):
    """Polar quadrature of ``fn`` around ``center`` over [0, r_end], refined
    until the radial and the angular estimates together meet the tolerance;
    returns ``(value, richardson, level, n_theta, n_evals)``: the last
    level's value, the largest panel angle count as ``n_theta`` and the
    number of field samples evaluated as ``n_evals``.

    Radial level L uses the level-L rule of
    :func:`~dbar_fiber.quadrature.radial_panel_rule`.  Every radial panel
    has its own angle count ``n_theta * 2**dbl``, which starts at
    ``spec.n_theta`` and doubles, at most ``spec.max_refinements`` times,
    when the angular estimate is above the tolerance, not below the radial
    difference, and the panel's share of it is large (see
    :func:`_panels_to_double`).  Columns 0 and 1 of ``sums`` hold each
    radius's ring sums over the even and over the odd angles of its panel's
    rule.  A node's step ``2 pi / n`` is the
    initial step times ``2**-dbl``; that factor is applied to the weights,
    exactly, so while every panel keeps ``n_theta`` angles the sums are
    those of a single angle count, bit for bit.
    """
    tol = spec.tol_abs / max(abs(prefactor), 1e-300)
    n0, cap = spec.n_theta, spec.max_refinements
    step = 2.0 * np.pi / n0
    evals = 0

    def rings(groups):
        # Ring sums for each (radii, n, part): part 0 sums the even angles
        # of the n-point rule, part 1 the odd ones.
        nonlocal evals
        evals += sum(radii.size * (n // 2) for radii, n, _ in groups)
        return _ring_sums(fn, center, [(radii, _unit_circle(n)[part::2]) for radii, n, part in groups],
                          with_kernel_phase)

    # k -> ring sums at the level-0 radii over the odd angles of n0 * 2**k,
    # evaluated at level k on the rows whose panel had fewer angles (zero
    # elsewhere).  Counts only grow, so those are all the rows that ever
    # need generation k, for the probe or for a doubling to that count.
    probes = {}

    def by_count(rows):
        # (d, the nodes of ``rows`` whose panel has n0 * 2**d angles)
        node_dbl = dbl[panel]
        for d in range(int(node_dbl[rows].max(initial=0)) + 1):
            yield d, rows & (node_dbl == d)

    def estimate(level):
        """``(cur, diff, ang, by_panel)``: the level-L value, its radial
        difference from the level-(L-1) value at the same angles, the
        angular estimate and, when the stop test fails and the angular part
        is not the smaller one, each panel's sums of its half-angle terms
        and of its probe changes (else None)."""
        # Reach probe: on the level-0 radii of the panels with fewer than
        # n0 * 2**level angles, that rule against the panel's own sees a
        # feature that falls between all of the panel's rays.  Its samples
        # come first, before the per-node temporaries below exist.
        base_dbl = dbl[panel[at_base]]
        low = base_dbl < level
        if level and level not in probes:
            probes[level] = np.zeros(base_nodes.size, dtype=complex)
            if low.any():
                probes[level][low] = rings([(base_nodes[low], n0 * 2 ** level, 1)])[0]
        total = sums.sum(axis=1)
        cur = step * complex(node_wts @ total)
        diff = 0.0
        if level:
            diff = abs(cur - step * complex(prev_node_wts @ total[kept]))
        # each node's rule minus the rule with half its angles (the even
        # half alone)
        half = sums[:, 1] - sums[:, 0]
        ang = step * abs(complex(node_wts @ half))
        if low.any():
            coarse = total[at_base]
            wide = coarse + sum(np.where(base_dbl < k, probes[k], 0.0) for k in range(1, level + 1))
            wide_step = 2.0 * np.pi / (n0 * 2 ** level)
            low_wts = base_wts * low
            coarse_wts = np.ldexp(low_wts, -base_dbl)
            ang += abs(wide_step * complex(low_wts @ wide) - step * complex(coarse_wts @ coarse))
        if diff + ang <= tol or ang < diff:
            return cur, diff, ang, None
        # each panel's sum of half-angle terms and of probe changes
        half_sums = step * _panel_sums(panel, node_wts * half, dbl.size)
        change_sums = np.zeros(dbl.size, dtype=complex)
        if low.any():
            change = wide_step * low_wts * wide - step * coarse_wts * coarse
            change_sums = _panel_sums(panel[at_base], change, dbl.size)
        return cur, diff, ang, (half_sums, change_sums)

    node_wts = None
    for level in range(cap + 1):
        # The weights times each node's step relative to n0's, 2**-dbl:
        # exact, and the weights themselves while no panel has doubled.
        # The last rule's still hold, as dbl has not changed since.
        prev_node_wts, node_wts = node_wts, None
        nodes, wts, panel, kept = radial_panel_rule(r_end, r_core, spec.n_r, level)
        if level == 0:
            dbl = np.zeros(panel[-1] + 1, dtype=np.intp)  # doublings per panel
            base_nodes, base_wts, at_base = nodes, wts, np.arange(nodes.size)
            sums = np.stack(rings([(nodes, n0, 0), (nodes, n0, 1)]), axis=1)
        else:
            at_base = np.flatnonzero(kept)[at_base]
            grown = np.empty((nodes.size, 2), dtype=complex)
            grown[kept] = sums
            # the new radii at their panels' counts, both halves
            groups = [(d, rows) for d, rows in by_count(~kept) if rows.any()]
            got = rings([(nodes[rows], n0 * 2 ** d, part) for d, rows in groups for part in (0, 1)])
            for g, (d, rows) in enumerate(groups):
                grown[rows] = np.stack(got[2 * g:2 * g + 2], axis=1)
            sums = grown
        node_wts = np.ldexp(wts, -dbl[panel])
        while True:
            cur, diff, ang, by_panel = estimate(level)
            if by_panel is None:
                break
            grow = _panels_to_double(*by_panel, dbl < cap, tol, tol - diff)
            if not grow.any():
                break
            dbl += grow
            # The doubled panels halve their steps and keep their sums as
            # the even half, adding the new odd angles, taken from the probe
            # at the level-0 radii when it has that count.
            doubled = grow[panel]
            node_wts[doubled] *= 0.5
            if level:
                prev_node_wts[doubled[kept]] *= 0.5
            sums[doubled, 0] = sums[doubled].sum(axis=1)
            at_base_mask = np.zeros(nodes.size, dtype=bool)
            at_base_mask[at_base] = True
            fresh = []
            for d, rows in by_count(doubled):
                hit = rows & at_base_mask if d in probes else np.zeros(nodes.size, dtype=bool)
                if hit.any():
                    sums[hit, 1] = probes[d][hit[at_base]]
                if (rows & ~hit).any():
                    fresh.append((d, rows & ~hit))
            for (d, rows), got in zip(fresh, rings([(nodes[rows], n0 * 2 ** d, 1) for d, rows in fresh])):
                sums[rows, 1] = got
        if level and (diff + ang <= tol or level == cap):
            return prefactor * cur, abs(prefactor) * (diff + ang), level, n0 * 2 ** int(dbl.max()), evals
    raise AssertionError("unreachable")


def _cutoff(t):
    """The C^inf cutoff, 1 for t <= 1/2 and 0 for t >= 1, with exponentials
    evaluated only on the band 1/2 < t < 1."""
    out = (t <= 0.5).astype(float)
    band = (t > 0.5) & (t < 1.0)
    u = 2.0 * t[band] - 1.0
    inner = np.exp(-1.0 / (1.0 - u))
    out[band] = inner / (inner + np.exp(-1.0 / u))
    return out


def _polar_sum(fn, center, radius, spec, with_kernel_phase, prefactor):
    """``prefactor`` times the plane integral of ``fn(xi) K(xi - center)``,
    K(zeta) = 1/zeta with the kernel phase and 1/|zeta| without, by the rule
    for ``center`` (see the module docstring), as ``_refined_polar``'s
    5-tuple; two parts add, but take the larger level and angle count."""
    a = abs(center)
    r_core = max(4.0, 2.0 * a + 4.0)
    if a < _SWITCH:
        return _refined_polar(fn, center, radius, r_core, spec, with_kernel_phase, prefactor)
    rho = _NEAR * a

    def near(xi):
        return _cutoff(np.abs(xi - center) / rho) * fn(xi)

    def far(xi):
        d = xi - center
        weight = (1.0 - _cutoff(np.abs(d) / rho)) * np.abs(xi)
        kernel = d if with_kernel_phase else np.abs(d)
        return fn(xi) * np.divide(weight, kernel, out=np.zeros_like(kernel), where=weight > 0.0)

    v1, e1, l1, n1, s1 = _refined_polar(near, center, rho, r_core, spec, with_kernel_phase, prefactor)
    v2, e2, l2, n2, s2 = _refined_polar(far, 0j, radius, 4.0, spec, False, prefactor)
    return v1 + v2, e1 + e2, max(l1, l2), max(n1, n2), s1 + s2


def cauchy_transform(b: SliceField, w_center: complex, spec: QuadratureSpec) -> CauchyResult:
    """Evaluate the transform of ``b`` at ``w_center``.

    Raises :class:`TruncationError` when no admissible radius meets the
    tail tolerance and :class:`NonFiniteSampleError` on bad field samples.
    """
    center = complex(w_center)
    radius, tail = _radius_and_tail(b.decay, b.off_norm, abs(center), spec)
    value, richardson, levels, n_theta, n_evals = _polar_sum(b.value, center, radius, spec, True, -1.0 / np.pi)
    return CauchyResult(value, richardson + tail, richardson, tail, radius, levels, n_theta, n_evals)


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
    which treats the tail tolerance as a hard contract).  Past the switch
    radius it splits like the transform, with the kernel ``1/|zeta|``.
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

    # The profile's tail, 4 pi times the decay tail integral, is the
    # transform's tail bound for a budget with constant 2 pi.
    budget = DecayBudget(epsilon, 2.0 * np.pi)
    out = []
    for x in xs:
        radius, tail = _radius_and_tail(budget, off_norm, x, spec, clamp=True)
        value, richardson, *_ = _polar_sum(integrand, complex(x), radius, spec, False, 1.0)
        out.append(ProfilePoint(x, float(value.real), richardson + tail, radius))
    return tuple(out)
