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

Radial and angular refinement are separate decisions, made per panel,
and both rules nest under doubling: the old radii are the even Chebyshev
offsets within a panel, the old angles the even ones of the doubled set.
A node on a shared panel edge appears once in each panel.  The angles are
reduced first, to ring sums per radius, kept split into the even-angle
and the odd-angle halves.  The even half alone is the rule with half the
angles, and each panel's embedded half-order radial rule (Gander &
Gautschi, BIT 40, 2000) sits on its even radii, so the angular and the
radial estimate, each rule minus its half, cost no samples.  The angular
one cannot see a feature that falls between all the rays, so radial level
1 adds a reach probe, once: on the even level-0 radii of the panels still
at ``n_theta`` angles, the rule with ``2 * n_theta`` against the panel's
own, by the half-order weights; the angular estimate sums both with signs.
The radial one sums the panels' magnitudes, since panels at different
levels can cancel while the coarser one is still off.  At
radial level L >= 1 the panels with a large share of the radial
estimate double their order (see :func:`_panels_to_double`) and
evaluate only their new radii; then, while the sum of the estimates
misses the tolerance and the angular one is not the smaller part, the
panels with a large share of it double their angles, each at most
``max_refinements`` times, evaluating only their new odd angles.  A
narrow feature at one radius therefore refines the panels near it only,
and while no panel has doubled its angles every sum is that of a single
angle count, bit for bit.  Samples are evaluated ring by ring, in field
calls of about ``_BLOCK`` values, so memory is bounded by the block size
and the radial node count, not by ``R * n_theta``.

One call can sum m fields on one grid (a field with ``fn._fields = m``,
see :func:`_refined_polar`): one grid per block, ring sums and estimates
per field, one layout and one refinement loop for all.  The solver's
residual stencils are such stacks; a lone field is the stack of one.

From the switch radius ``_SWITCH`` = 12 on, all rays around w can miss
the field's mass, so a floating partition of unity (Bruno & Kunyansky, J.
Comput. Phys. 169, 2001) splits the integrand: ``phi_w b``, with phi_w a
C^inf cutoff falling from 1 at w to 0 at |xi - w| = rho = |w|/2, by the
polar rule around w on [0, rho], a 4-unit core and octaves; ``(1 -
phi_w(xi)) b(xi) |xi| / (xi - w)``, whose features sit at the fiber
origin, by the rule around it on [0, R], both with octaves at the full
radial order, which cross phi's band; the one-center rule halves it.

Error reporting: radial levels are added until the two estimates meet
``tol_abs`` (or refinements run out).  Where a panel embeds a quarter
rule, its radial estimate is extrapolated to the full rule's error (see
``_SAFETY``); the value returned is the full rules', not extrapolated.
``err_estimate`` adds a rigorous bound on the truncated tail: the declared
decay envelope ``C s**-(1+eps)`` integrated in closed form past the
truncation radius (see :func:`tail_bound`).  Acceptance tests validate
that it dominates the actual error on every closed-form oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteSampleError, TruncationError
from .fields import DecayBudget
from .quadrature import _even, _frozen, _panel_table, half_line_decay_mass, radial_panel_rule

__all__ = [
    "QuadratureSpec",
    "SliceField",
    "CauchyResult",
    "ProfilePoint",
    "cauchy_transform",
    "tail_bound",
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

# The largest truncation radius: |w|**2 and the built-in fields' squares
# stay finite below it (they overflow at about 1.3e154).
_R_LIMIT = 1e150

# A panel's radial estimate: ``_SAFETY * e**2 / q``, at least ``e / _GAIN``, where
# e = |rule - half rule| <= ``_RATIO * q``, q = |half rule - quarter rule| > 0
# (Laurie, BIT 23, 1983), else e; the floor distrusts a too large q.
_SAFETY = 10.0
_RATIO = 0.5
_GAIN = 30.0

# The profile's rounding floor, times F(0) >= F(x): the sums of |g (A - 2 pi)|
# are at most 3 F(0), so it covers their rounding and the gaps at s = x.
_ROUNDING = 2.0 ** -43


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization parameters for the polar transform.

    ``r_max == 0`` means: derive the truncation radius from the decay
    budget so the tail bound falls below ``tol_tail``; a radius, explicit
    or derived, is at most ``1e150``.  ``n_r`` is the level-0 radial order
    per unit length on the core panels (an octave's is ``max(8, n_r //
    2)`` below the switch, and ``max(8, n_r)`` in a split solve, made
    even); ``n_theta`` is every radial panel's initial angular node count.
    Each radial level doubles the radial order of the panels with a large
    share of the radial estimate; a panel's angle count doubles only when
    the angular estimate is the larger of the two, their sum misses
    ``tol_abs`` and the panel's share of it is large (see
    ``_panels_to_double``).  Results report the largest panel count as
    their ``n_theta``.  ``max_refinements`` caps the radial levels and,
    separately, each panel's angle doublings.  Specs whose largest ring
    (``n_theta * 2**max_refinements`` angles) would not fit in one
    evaluation block of ``2**14`` samples, or whose finest radial rule
    would exceed an order of ``2**15`` per unit length, are rejected.
    """

    r_max: float = 0.0
    n_theta: int = 32
    n_r: int = 16
    tol_abs: float = 1e-8
    tol_tail: float = 1e-4
    max_refinements: int = 3

    def __post_init__(self):
        for name in ("r_max", "tol_abs", "tol_tail"):
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
        if self.r_max > _R_LIMIT:
            raise ValueError(f"r_max must be <= {_R_LIMIT:g}")
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
    the coefficient value and must broadcast over numpy arrays; ``decay``
    is the budget its tail bound reads.  A ``value`` with ``_fields = m``
    stacks m fields on the leading axis of its values, all transformed on
    one layout (see :func:`_refined_polar`).
    """

    value: Callable[[np.ndarray], np.ndarray]
    decay: DecayBudget


@dataclass(frozen=True)
class CauchyResult:
    """Transform value and its error budget.  ``levels`` is the last radial
    level used, ``n_theta`` the largest panel angle count and ``n_evals``
    the number of field samples evaluated (reach probe included).  For a
    stack of m fields ``value`` is the array of their m values, with one
    ``r_used`` and ``tail``, and ``richardson`` the largest field's."""

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


def tail_bound(decay: DecayBudget, w_center_abs: float, radius: float) -> float:
    """Upper bound for the transform mass omitted outside radius ``radius``
    by the rule at a center of magnitude ``a = w_center_abs``.  Below the
    switch radius ``|w_center + zeta| >= x = R - a`` on the omitted ``|zeta|
    > R``, so the envelope ``C s**-(1+eps)`` integrates to at most

        2 C * integral_x^inf ds / s**(1+eps) = 2 C x**-eps / eps.

    At or above it the far part omits ``|xi| > R``, where ``|xi| / |xi -
    w_center| <= R / (R - a)``: the bound is ``2 C R / (R - a) * R**-eps /
    eps``.  Both decrease in R and vanish like R**(-eps).
    """
    if radius <= 2.0 * w_center_abs or radius <= 0.0:
        raise ValueError(f"truncation radius {radius} too small for center magnitude {w_center_abs}")
    x, eps = radius - w_center_abs, decay.epsilon
    if w_center_abs < _SWITCH:
        return 2.0 * decay.c_bound * x ** -eps / eps
    return 2.0 * decay.c_bound * radius / x * radius ** -eps / eps


def _radius_and_tail(tail, w_center_abs, spec):
    """``(radius, tail(radius))`` for ``tail``, a bound on the omitted mass
    as a function of the radius.  The radius is the explicit ``r_max``, or
    the smallest doubling of ``max(8, 2|w|+4)`` up to ``_R_LIMIT`` whose
    bound meets ``tol_tail``; it raises when none does or that start rounds
    to 2|w| (from |w| = 2**54 on), or when ``r_max`` is not past 2|w| or its
    bound overflows."""
    if spec.r_max > 0.0:
        if spec.r_max <= 2.0 * w_center_abs:
            raise TruncationError(f"explicit r_max={spec.r_max} does not clear the center magnitude {w_center_abs}")
        try:
            return spec.r_max, tail(spec.r_max)
        except OverflowError:  # a Python float power, at a tiny r_max
            raise TruncationError(f"the tail bound overflows at the explicit r_max={spec.r_max}") from None
    radius = max(8.0, 2.0 * w_center_abs + 4.0)
    if radius <= 2.0 * w_center_abs:
        raise TruncationError(f"the start radius 2|w| + 4 rounds to 2|w| at the center magnitude {w_center_abs}")
    while True:
        bound = tail(radius)
        if bound <= spec.tol_tail:
            return radius, bound
        radius *= 2.0
        if radius > _R_LIMIT:
            raise TruncationError(f"tail bound exceeds tol_tail={spec.tol_tail} at every radius up to {_R_LIMIT:g}")


def _ring_sums(fn, fields, center, radii, unit, phase):
    """Ring sums ``S_f(r) = sum_j fn(center + r u_j)[f] phase_j`` (plain
    sums when ``phase`` is None) over the angles ``unit`` at each of
    ``radii``, for each of the ``fields`` fields ``fn`` stacks on a leading
    axis (none when ``fields`` is 1), shape ``(fields, radii.size)``.  Each
    block's grid is built once for all fields; a block holds about
    ``_BLOCK`` samples, a stack's half that, as a stack also holds its slot
    coordinates and its caller m rows of node sums.  A non-finite or
    overflowing ring sum raises NonFiniteSampleError."""
    sums = np.empty((fields, radii.size), dtype=complex)
    rows = max(1, (_BLOCK if fields == 1 else _BLOCK // 2) // (fields * unit.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, radii.size, rows):
            vals = np.asarray(fn(center + radii[start:start + rows, None] * unit[None, :]))
            sums[:, start:start + rows] = vals.sum(axis=-1) if phase is None else vals @ phase
    if not np.isfinite(sums).all():
        raise NonFiniteSampleError("non-finite field sample or ring sum on the quadrature grid")
    return sums


@lru_cache(maxsize=16)
def _unit_circle(n):
    """The ``n`` trapezoid angles ``exp(2 pi i j / n)``, read-only."""
    return _frozen(np.exp(1j * ((2.0 * np.pi / n) * np.arange(n))))[0]


@lru_cache(maxsize=32)
def _half_circle(n, part):
    """The even (part 0) or odd (part 1) angles of ``_unit_circle(n)`` and
    their conjugates, the kernel phases, read-only."""
    unit = _unit_circle(n)[part::2].copy()
    return _frozen(unit, np.conj(unit))


def _pair_index(group, rows, count):
    """The ``_panel_sums`` index of values in the groups ``group`` (less
    than ``count``), for ``rows`` stacked rows of them, each row's groups
    after the last row's: ``2 * (group + row * count)`` for each real part
    and one more for its imaginary part."""
    pairs = np.repeat(2 * group, 2)
    pairs[1::2] += 1
    return (pairs + (2 * count) * np.arange(rows)[:, None]).ravel()


def _panel_sums(pairs, values, count):
    """Complex sums of the contiguous complex ``values`` in ``count`` groups
    by their ``_pair_index``: one ``bincount`` of the real and imaginary
    parts, each group summed in index order."""
    return np.bincount(pairs, values.view(float), 2 * count).view(complex)


def _panel_estimate(e, q):
    """Each panel's estimate from e = |rule - half rule|, q = |half rule - quarter rule| (``_SAFETY``)."""
    fast = (e <= _RATIO * q) & (q > 0.0)
    return np.where(fast, np.maximum(_SAFETY * e * e / np.where(fast, q, 1.0), e / _GAIN), e)


def _panels_to_double(half, change, open_, tol, room):
    """The panels to double, radially or in angle, from each panel's rule
    minus its half rule ``half`` and, for the angles, its reach-probe
    change ``change``: the open panels (``open_``) whose share ``|half| +
    |change|`` exceeds ``tol`` over the panel count.  When there are none,
    the open panels in decreasing order of share until the shares left
    undoubled plus the estimate of the closed panels are at most ``room``;
    none when the closed panels alone exceed it, as no doubling helps."""
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

    A field with ``fn._fields = m`` stacks m fields on the leading axis of
    its values.  They share every grid, block and layout: a panel doubles
    when any field's estimates ask for it (the union of each field's own
    choice), the levels stop once every field meets the tolerance, the
    value is the array of the m values and richardson the largest of the
    fields'.  Each field's sums are those of a lone field on that layout,
    so a stack of one returns a lone field's bits.

    Every radial panel has its own radial level ``lev`` in
    :func:`~dbar_fiber.quadrature.radial_panel_rule` and its own angle
    count ``n_theta * 2**dbl``; both grow as the module docstring says, a
    panel's level at most once per radial level.  ``sums[0, f]`` and
    ``sums[1, f]`` hold field f's ring sums at each radius over the even
    and over the odd angles of its panel's rule.  A node's step ``2 pi /
    n`` is the initial step times ``2**-dbl``; that factor is applied to the
    weights, exactly, so while every panel keeps ``n_theta`` angles the
    sums are those of a single angle count, bit for bit.  ``probe`` holds
    the reach probe's ring sums on the rows of ``at_base``, sampled once,
    at level 1.  Octaves start at ``fn._octave`` (split parts) or ``n_r //
    2``: an attribute, as ``perfbench/tracer.py`` wraps 7 arguments.
    """
    tol = spec.tol_abs / max(abs(prefactor), 1e-300)
    n0, cap = spec.n_theta, spec.max_refinements
    step = 2.0 * np.pi / n0
    m = getattr(fn, "_fields", 1)
    evals = 0

    def rings(radii, n, part):
        # the ring sums over the even (part 0) or odd (part 1) angles of the n-point rule
        nonlocal evals
        unit, phase = _half_circle(n, part)
        evals += m * radii.size * unit.size
        return _ring_sums(fn, m, center, radii, unit, phase if with_kernel_phase else None)

    def fill(rows, parts):
        # the ring sums ``sums[part][:, rows]`` at each row's panel count n0 * 2**d
        node_dbl = dbl[panel]
        for d in range(int(node_dbl[rows].max(initial=0)) + 1):
            at = rows & (node_dbl == d)
            if at.any():
                for part in parts:
                    sums[part][:, at] = rings(nodes[at], n0 * 2 ** d, part)

    def doubling(fields, shares, changes, open_, used):
        # the union of the listed fields' own choices of panels to double,
        # each with the room its other estimate ``used[f]`` leaves
        grow = None
        for f in fields:
            choice = _panels_to_double(shares[f], changes[f], open_, tol, tol - used[f])
            grow = choice if grow is None else grow | choice
        return grow

    def estimate(level):
        """``(radial, diff, ang, err, by_panel)``, one row or list entry per
        field: each panel's radial estimate (see ``_SAFETY``), their sum,
        the angular estimate and the two together; and, when some field's
        stop test fails with its angular part not the smaller one, each
        panel's sums of its half-angle terms and of its probe changes, and
        those fields (else None).  The sums are Python floats, as a lone
        field's always were."""
        total = sums[0] + sums[1]
        terms = ((rule[:2] - rule[1:])[:, None] * total).ravel()
        radial = _panel_estimate(*np.abs(step * _panel_sums(panel2, terms, 2 * m * dbl.size)).reshape(2, m, -1))
        diff = radial.sum(axis=1).tolist()
        # each node's rule minus the rule with half its angles (the even
        # half alone), and from level 1 on, on the probe's radii of the
        # panels still at n0 angles, the probe's rule minus the panel's own
        half = step * rule[0] * (sums[1] - sums[0])
        ang = [abs(s) for s in half.sum(axis=1).tolist()]
        if level:  # at level 0 the probe changes are 0
            own = total[:, at_base]
            change = base_wts * (dbl[base_panel] == 0) * (0.5 * step * (own + probe) - step * own)
            ang = [a + abs(s) for a, s in zip(ang, change.sum(axis=1).tolist())]
        err = [d + a for d, a in zip(diff, ang)]
        fields = [f for f in range(m) if err[f] > tol and ang[f] >= diff[f]]
        if not fields:
            return radial, diff, ang, err, None
        half = _panel_sums(panel2[:2 * half.size], half.ravel(), m * dbl.size).reshape(m, -1)
        if level:
            nonlocal base2
            if base2 is None:  # once per layout
                base2 = _pair_index(base_panel, m, dbl.size)
            change = _panel_sums(base2, change.ravel(), m * dbl.size).reshape(m, -1)
        else:
            change = np.zeros_like(half)
        return radial, diff, ang, err, (half, change, fields)

    octave = getattr(fn, "_octave", spec.n_r // 2)
    nodes, wts, coarse, quarter, panel, even = radial_panel_rule(r_end, r_core, spec.n_r, 0, octave)
    lev = np.zeros(panel[-1] + 1, dtype=np.intp)  # radial levels per panel
    dbl = np.zeros_like(lev)  # angle doublings per panel
    at_base, base_wts = np.flatnonzero(even), coarse[even]
    base_panel = panel[at_base]
    # the panel sums of all rows at once: the rules' two differences on each
    # field, and the probe's changes on each (made when first needed)
    panel2, base2 = _pair_index(panel, 2 * m, dbl.size), None
    sums = np.array((rings(nodes, n0, 0), rings(nodes, n0, 1)))
    probe = np.zeros((m, at_base.size), dtype=complex)
    for level in range(cap + 1):
        fields = [f for f in range(m) if level and err[f] > tol]
        if fields:
            grow = doubling(fields, radial, 0.0 * radial, lev < level, ang)
            if grow.any():
                lev += grow
                nodes, wts, coarse, quarter, panel, even = radial_panel_rule(r_end, r_core, spec.n_r, lev, octave)
                kept = even | ~grow[panel]
                at_base = np.flatnonzero(kept)[at_base]
                base_panel = panel[at_base]
                panel2, base2 = _pair_index(panel, 2 * m, dbl.size), None
                sums, old = np.empty((2, m, nodes.size), dtype=complex), sums
                sums[:, :, kept] = old
                fill(~kept, (0, 1))  # the new radii, both halves
        if level == 1:
            # the reach probe, once: the odd angles of 2 * n0 on the even
            # level-0 radii of the panels still at n0 angles
            low = dbl[base_panel] == 0
            if low.any():
                probe[:, low] = rings(nodes[at_base[low]], 2 * n0, 1)
        # The three rules' weights times each node's step relative to n0's,
        # 2**-dbl: exact, and the weights themselves while none has doubled.
        rule = np.array((wts, coarse, quarter))
        if dbl.any():
            rule *= np.ldexp(1.0, -dbl)[panel]
        while True:
            with np.errstate(over="ignore", invalid="ignore"):  # samples near the float limit
                radial, diff, ang, err, by_panel = estimate(level)
            if not np.isfinite(err).all():
                raise NonFiniteSampleError("non-finite quadrature error estimate")
            if by_panel is None:
                break
            half, change, fields = by_panel
            grow = doubling(fields, half, change, dbl < cap, diff)
            if not grow.any():
                break
            dbl += grow
            # The doubled panels halve their steps and keep their sums as
            # the even half, adding the new odd angles.
            doubled = grow[panel]
            rule[:, doubled] *= 0.5
            sums[0][:, doubled] += sums[1][:, doubled]
            fill(doubled, (1,))
        if level and (max(err) <= tol or level == cap):
            values = [prefactor * (step * complex(rule[0] @ total)) for total in sums[0] + sums[1]]
            value = np.array(values) if hasattr(fn, "_fields") else values[0]
            return value, abs(prefactor) * max(err), level, n0 * 2 ** int(dbl.max()), evals
    raise AssertionError("unreachable")


def _cutoff(t):
    """The C^inf cutoff ``e^{-1/(1-t)} / (e^{-1/(1-t)} + e^{-1/t})`` on the
    band 0 < t < 1, 1 before and 0 past it; below t = 1/745, e^{-1/t} is
    under the least subnormal, so 1 without dividing (1/t can overflow)."""
    out = (t <= 1.0 / 745.0).astype(float)
    band = (t > 1.0 / 745.0) & (t < 1.0)
    inner = np.exp(-1.0 / (1.0 - t[band]))
    out[band] = inner / (inner + np.exp(-1.0 / t[band]))
    return out


def cauchy_transform(b: SliceField, w_center: complex, spec: QuadratureSpec) -> CauchyResult:
    """Evaluate the transform of ``b`` at ``w_center``.

    A stacked field (see :class:`SliceField`) is transformed on one layout
    at one radius, and its result holds the array of its values.  Raises
    :class:`TruncationError` when no admissible radius meets the tail
    tolerance and :class:`NonFiniteSampleError` on bad field samples.
    Past the switch radius the two parts of the split (module docstring;
    the near part's core is 4 units) add, taking the larger level and
    n_theta.

    Resolution contract, mapped at the default spec: ``err_estimate``
    covers the true error for a feature of width s at distance d from
    ``w_center`` when the level-0 ray gap ``2 pi d / n_theta`` is at most
    7 s; past that, every sample can miss it (README, "Numerical method").
    """
    center = complex(w_center)
    fn, a = b.value, abs(center)
    radius, tail = _radius_and_tail(lambda r: tail_bound(b.decay, a, r), a, spec)
    if a < _SWITCH:
        value, richardson, levels, n_theta, n_evals = _refined_polar(
            fn, center, radius, max(4.0, 2.0 * a + 4.0), spec, True, -1.0 / np.pi)
    else:
        rho = _NEAR * a

        def near(xi):
            return _cutoff(np.abs(xi - center) / rho) * fn(xi)

        def far(xi):
            d = xi - center
            weight = (1.0 - _cutoff(np.abs(d) / rho)) * np.abs(xi)
            return fn(xi) * np.divide(weight, d, out=np.zeros_like(d), where=weight > 0.0)

        near._octave = far._octave = spec.n_r
        if hasattr(fn, "_fields"):
            near._fields = far._fields = fn._fields
        v1, e1, l1, n1, s1 = _refined_polar(near, center, rho, 4.0, spec, True, -1.0 / np.pi)
        v2, e2, l2, n2, s2 = _refined_polar(far, 0j, radius, 4.0, spec, False, -1.0 / np.pi)
        value, richardson, levels, n_theta, n_evals = v1 + v2, e1 + e2, max(l1, l2), max(n1, n2), s1 + s2
    return CauchyResult(value, richardson + tail, richardson, tail, radius, levels, n_theta, n_evals)


@dataclass(frozen=True)
class BoundCheck:
    """A numeric value against the closed-form bound it must not exceed."""

    numeric_value: float
    analytic_bound: float

    @property
    def ok(self) -> bool:
        return self.numeric_value <= self.analytic_bound


def kernel_mass_bound(epsilon: float) -> BoundCheck:
    """Mass of the kernel envelope 1/(|zeta| (1 + |zeta|**(1+eps))).

    In polar form the mass equals ``4 pi * integral_0^inf dr/(1+r**(1+eps))``,
    which splitting at r = 1 shows to be at most ``4 pi (1 + 1/eps)``.  The
    numeric value is that integral's exact closed form (see
    :func:`~dbar_fiber.quadrature.half_line_decay_mass`); the bound is the
    paper's, and the numeric value must never exceed it.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return BoundCheck(4.0 * np.pi * half_line_decay_mass(epsilon, 1.0), 4.0 * np.pi * (1.0 + 1.0 / epsilon))


def g_bound_check(off_norm: float, epsilon: float) -> BoundCheck:
    """Full-line decay integral against its closed bound ``2 + 2/eps``."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if off_norm < 0.0:
        raise ValueError("off_norm must be >= 0")
    return BoundCheck(2.0 * half_line_decay_mass(epsilon, 1.0 + off_norm), 2.0 + 2.0 / epsilon)


def _profile_integral(x, q, power, radius, n):
    """``(value, estimate)`` of ``integral_0^radius g(s) (A - 2 pi) ds`` on
    order-n Clenshaw-Curtis panels, the estimate summed over the panels, with
    g(s) = 2/(q + s**power) and A = 2 pi (s/h) / agm(1 + min(s, x)/h, |s -
    x|/h), h = max(s, x).  Panel ``(lo, hi, shift, sign, base)`` maps node y
    to ``a = shift + sign y``, ``s = a x / base``: near s = x, y = tau = |s/x
    - 1| (base 1), halved down to 2**-52, so ``|a - base| = tau`` is exact
    and not 0; else y = s (base x), halved from x/2 to 2**-20 and then to 0,
    and in octaves from 2x to the radius."""
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
    rows, table, step = np.array(rows), _panel_table(n), max(1, _BLOCK // (n + 1))
    sums = np.empty((len(rows), 3))
    for start in range(0, len(rows), step):
        lo, hi, shift, sign, base = rows[start:start + step].T[:, :, None]
        half = 0.5 * (hi - lo)
        y = 0.5 * (lo + hi) - half * table[0]  # the ends exact, as every edge but R halves or doubles
        a = shift + sign * y
        h = np.maximum(a, base)
        big, small = (a + base) / h, np.abs(shift - base + sign * y) / h
        while np.any(big - small > 1e-8 * big):  # a gap d goes to about d**2/8: one step past 1e-8 is exact
            big, small = 0.5 * (big + small), np.sqrt(big * small)
        mean = 0.5 * (big + small)
        with np.errstate(over="ignore"):  # g is 0 where s**power overflows
            g = 2.0 / (q + (a * (x / base)) ** power)
        sums[start:start + step] = (half * g * (2.0 * np.pi * (x / base)) * (a / h - mean) / mean) @ table[1:].T
    estimate = _panel_estimate(np.abs(sums[:, 0] - sums[:, 1]), np.abs(sums[:, 1] - sums[:, 2]))
    return float(sums[:, 0].sum()), float(estimate.sum())


def f_profile(
    off_norm: float, epsilon: float, xs: Sequence[float], spec: QuadratureSpec
) -> tuple:
    """Radial envelope profile F at the requested offsets.

    F(x) integrates ``(1/|zeta|) / (1 + off_norm + |x + zeta|**(1+eps))``
    over the plane (area measure ``2 dxi deta``); it is the envelope that
    bounds the transform magnitude at slot offset x.  F is nonincreasing
    in x and tends to 0 both as x grows and as ``off_norm`` grows; callers
    check those trends against the returned error estimates.

    With p = 1 + eps, q = 1 + off_norm, g(s) = 2/(q + s**p) and the closed
    angular integral ``A = 2 pi s / agm(s + x, |s - x|)``, ``F(x) = 4 pi
    half_line_decay_mass(eps, q) + integral_0^R g (A - 2 pi) ds + T``, the
    closed form at x = 0.  Past x, ``A = 2 pi sum c_n (x/s)**(2n)``, c_0 = 1,
    0 <= c_n <= 1/4, so with t = (x/R)**2, T is in [0, U], ``U = (pi/2) t/(1
    - t) * 2 R**-eps / eps``: value and ``err_estimate`` add U/2, and R is
    the transform's radius search on U.  The panels (:func:`_profile_integral`)
    double their order ``n_r`` up to ``max_refinements`` times while their
    estimates (the polar core's) sum past ``tol_abs``; ``err_estimate`` adds
    that sum and a rounding floor.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if off_norm < 0.0:
        raise ValueError("off_norm must be >= 0")
    xs = [float(x) for x in xs]
    if any(x < 0 for x in xs):
        raise ValueError("profile offsets must be nonnegative")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("profile offsets must be strictly increasing")
    q, power = 1.0 + off_norm, 1.0 + epsilon
    closed = 4.0 * np.pi * half_line_decay_mass(epsilon, q)
    out = []
    for x in xs:
        radius, bound = _radius_and_tail(
            lambda r: math.pi * (x / r) ** 2 / (1.0 - (x / r) ** 2) * r ** -epsilon / epsilon if x else 0.0, x, spec)
        value = estimate = 0.0
        for level in range(spec.max_refinements + 1 if x else 0):
            value, estimate = _profile_integral(x, q, power, radius, _even(spec.n_r) * 2 ** level)
            if estimate <= spec.tol_abs:
                break
        out.append(ProfilePoint(x, closed + value + 0.5 * bound, estimate + 0.5 * bound + _ROUNDING * closed, radius))
    return tuple(out)
