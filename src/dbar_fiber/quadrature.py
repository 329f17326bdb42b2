"""Low-level quadrature building blocks.

Everything here is deterministic: node sets depend only on the arguments,
summation order is fixed, and the only global state is bounded caches of
read-only tables.  The module provides

* the radial rule of the polar integrator: nested Clenshaw-Curtis rules,
  each panel at its own level with embedded half- and quarter-order rules,
  on a dense core of short panels and geometrically growing octave panels,
* the half-line decay mass ``int_0^inf ds / (q + s^p)`` in closed form.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "radial_panel_rule",
    "half_line_decay_mass",
]


# Length of the panels the dense core is cut into; each octave past the
# core is one panel.  The polar integrator keeps an angle count per panel.
_PANEL = 2.0
_QUARTER_MIN = 12  # the least order with a quarter rule, of n/4 + 1 >= 4 points


def _frozen(*arrays):
    """The ``arrays``, made read-only: cached tables are shared between calls."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _even(n: int) -> int:
    n = max(2, int(n))
    return n if n % 2 == 0 else n + 1


def _clenshaw_curtis(n: int):
    """Points ``cos(pi k / n)``, k = 0..n, and weights of the (n+1)-point
    Clenshaw-Curtis rule on [-1, 1], n >= 1.  The quotient k / n is
    correctly rounded, so point 2k of 2n equals point k of n bit for bit."""
    x = np.cos(np.pi * (np.arange(n + 1) / n))
    # w_k = (c_k / n) * sum_j'' m_j cos(2 pi j k / n) over j = 0..n/2, with
    # m_j = 1 / (1 - 4 j^2), c_k = 1 at the ends and 2 inside, and the
    # j = 0 term and, for even n, the j = n/2 term halved: a real DFT of
    # the mirrored m_j (Waldvogel, BIT 46, 2006).
    j = np.arange(n // 2 + 1)
    m = 1.0 / (1.0 - 4.0 * j * j)
    sums = np.fft.fft(np.concatenate([m, m[(n - 1) // 2:0:-1]])).real
    w = np.append(sums, sums[0]) / n
    w[1:-1] *= 2.0
    return x, w


@lru_cache(maxsize=64)
def _panel_table(n: int):
    """Rows ``(points, weights, coarse, quarter)`` of the order-n panel rule
    on [-1, 1]: coarse and quarter weigh the embedded order-n/2 and n/4
    rules (n/2 again unless 4 divides n >= ``_QUARTER_MIN``), 0 elsewhere."""
    table = np.zeros((4, n + 1))
    table[:2] = _clenshaw_curtis(n)
    for row, step in ((2, 2), (3, 4 if n % 4 == 0 and n >= _QUARTER_MIN else 2)):
        table[row, ::step] = _clenshaw_curtis(n // step)[1]
    return _frozen(table)[0]


@lru_cache(maxsize=64)
def _radial_panels(r_end: float, r_core: float, nodes_per_unit: int, octave: int | tuple):
    """``(midpoints, half-lengths, edges, level-0 orders)`` of the radial
    panels, read-only; ``edges`` holds the lower edges, then the upper ones."""
    if r_end <= 0.0:
        raise ValueError("truncation radius must be positive")
    core_end = min(r_core, r_end)
    lo = [_PANEL * k for k in range(max(1, int(core_end // _PANEL)))]
    hi = lo[1:] + [core_end]
    orders = [_even(math.ceil((b - a) * nodes_per_unit)) for a, b in zip(lo, hi)]
    order, band_lo, band_hi = octave if isinstance(octave, tuple) else (octave, math.inf, -math.inf)
    while hi[-1] < r_end * (1.0 - 1e-12):
        lo.append(hi[-1])
        hi.append(min(2.0 * hi[-1], r_end))
        orders.append(_even(max(8, nodes_per_unit if lo[-1] < band_hi and hi[-1] > band_lo else order)))
    lo, hi = np.array(lo), np.array(hi)
    return _frozen(0.5 * (lo + hi), 0.5 * (hi - lo), np.concatenate([lo, hi]), np.array(orders))


@lru_cache(maxsize=64)
def _unit_tables(orders: tuple):
    """The panel tables of ``orders`` stacked, read-only, with each node's
    panel index and the index of each panel's first node, then its last."""
    size = np.array(orders) + 1
    last = np.cumsum(size) - 1
    return _frozen(*np.concatenate([_panel_table(m) for m in orders], axis=1),
                   np.repeat(np.arange(len(orders), dtype=np.int32), size), np.concatenate([last + 1 - size, last]))


def radial_panel_rule(r_end: float, r_core: float, nodes_per_unit: int, levels, octave=None):
    """``(nodes, weights, coarse, quarter, panel, even)`` of the radial rule
    over [0, r_end] at the radial ``levels``, one per panel or one for all.

    The core [0, min(r_core, r_end)] is cut into panels of length
    ``_PANEL`` (the last one also takes the remainder) and each octave
    [A, min(2A, r_end)] past it is one panel.  A panel of length l at level
    L gets the (n+1)-point Clenshaw-Curtis rule, n = ``_even(ceil(l *
    nodes_per_unit)) * 2**L`` on the core and ``_even(max(8, octave)) *
    2**L`` on an octave (``octave`` defaults to ``nodes_per_unit``; as
    ``(order, lo, hi)``, ``nodes_per_unit`` where the octave meets [lo, hi]), at
    ``mid - half * cos(pi k / n)``, ends pinned; a node on a shared edge
    appears once in each panel.  ``panel`` is each node's panel index,
    read-only and shared between calls, ``even`` marks the even k, the
    nodes one level lower, bit for bit and in order, and ``coarse`` holds
    the weights of the embedded (n/2+1)-point rule on them, 0 elsewhere;
    ``quarter`` those of the (n/4+1)-point rule on the k = 0 mod 4, two
    levels lower, where 4 divides n >= ``_QUARTER_MIN``, and ``coarse``'s
    on other panels.  The tables on [-1, 1] are cached by the panel orders.
    """
    mid, half, edges, orders = _radial_panels(r_end, r_core, nodes_per_unit, octave or nodes_per_unit)
    x, w, c, q, panel, ends = _unit_tables(tuple((orders * 2 ** np.asarray(levels)).tolist()))
    half = half[panel]
    nodes = mid[panel] - half * x
    nodes[ends] = edges
    coarse = half * c
    return nodes, half * w, coarse, half * q, panel, coarse > 0.0


def half_line_decay_mass(eps: float, q: float = 1.0) -> float:
    """``int_0^inf ds / (q + s**(1+eps))`` for q >= 1, in closed form:
    ``q**(-eps/p) (pi/p) / sin(pi/p)`` with p = 1 + eps.  The sine is
    taken at the smaller of pi/p and pi - pi/p = pi eps/p, so no digits
    cancel for tiny or huge eps."""
    if eps <= 0.0:
        raise ValueError("decay exponent must be positive")
    if q < 1.0:
        raise ValueError("offset constant must be >= 1")
    p = 1.0 + eps
    return q ** (-eps / p) * (math.pi / p) / math.sin(math.pi * min(1.0, eps) / p)
