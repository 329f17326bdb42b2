"""Low-level quadrature building blocks.

Everything here is deterministic: node sets depend only on the arguments,
summation order is fixed, and no global state is consulted.  The module
provides

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


def _even(n: int) -> int:
    n = max(2, int(n))
    return n if n % 2 == 0 else n + 1


@lru_cache(maxsize=64)
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
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=128)
def _embedded(n: int, step: int):
    """Weights of the order-n/step rule on the k = 0 mod step of the order-n points, 0 elsewhere."""
    w = np.zeros(n + 1)
    w[::step] = _clenshaw_curtis(n // step)[1]
    w.setflags(write=False)
    return w


@lru_cache(maxsize=64)
def _radial_panels(r_end: float, r_core: float, nodes_per_unit: int, octave: int):
    """``(lower edges, upper edges, level-0 orders)`` of the radial panels."""
    if r_end <= 0.0:
        raise ValueError("truncation radius must be positive")
    core_end = min(r_core, r_end)
    lo = [_PANEL * k for k in range(max(1, int(core_end // _PANEL)))]
    hi = lo[1:] + [core_end]
    orders = [_even(np.ceil((b - a) * nodes_per_unit)) for a, b in zip(lo, hi)]
    while hi[-1] < r_end * (1.0 - 1e-12):
        lo.append(hi[-1])
        hi.append(min(2.0 * hi[-1], r_end))
    orders += [_even(max(8, octave))] * (len(lo) - len(orders))
    return tuple(lo), tuple(hi), tuple(orders)


def radial_panel_rule(r_end: float, r_core: float, nodes_per_unit: int, levels, octave=None):
    """``(nodes, weights, coarse, quarter, panel, even)`` of the radial rule
    over [0, r_end] at the radial ``levels``, one per panel or one for all.

    The core [0, min(r_core, r_end)] is cut into panels of length
    ``_PANEL`` (the last one also takes the remainder) and each octave
    [A, min(2A, r_end)] past it is one panel.  A panel of length l at level
    L gets the (n+1)-point Clenshaw-Curtis rule, n = ``_even(ceil(l *
    nodes_per_unit)) * 2**L`` on the core and ``_even(max(8, octave)) *
    2**L`` on an octave (``octave`` defaults to ``nodes_per_unit``), at
    ``mid - half * cos(pi k / n)``, ends pinned; a node on a shared edge
    appears once in each panel.  ``panel`` is each node's panel index,
    ``even`` marks the even k, the nodes one level lower, bit for bit and
    in order, and ``coarse`` holds the weights of the embedded
    (n/2+1)-point rule on them, 0 elsewhere; ``quarter`` those of the
    (n/4+1)-point rule on the k = 0 mod 4, two levels lower, where 4
    divides n >= ``_QUARTER_MIN``, and ``coarse``'s on other panels.
    """
    lo, hi, orders = (np.array(v) for v in _radial_panels(r_end, r_core, nodes_per_unit, octave or nodes_per_unit))
    n = orders * 2 ** np.asarray(levels)
    size = n + 1
    first = np.cumsum(size) - size
    mid, half = np.repeat(0.5 * (lo + hi), size), np.repeat(0.5 * (hi - lo), size)
    rules = [_clenshaw_curtis(m) for m in n.tolist()]
    nodes = mid - half * np.concatenate([x for x, _ in rules])
    nodes[first] = lo
    nodes[first + n] = hi
    weights = half * np.concatenate([w for _, w in rules])
    panel = np.repeat(np.arange(n.size, dtype=np.int32), size)
    coarse = half * np.concatenate([_embedded(m, 2) for m in n.tolist()])
    quarter = half * np.concatenate([_embedded(m, 4 if m % 4 == 0 and m >= _QUARTER_MIN else 2) for m in n.tolist()])
    return nodes, weights, coarse, quarter, panel, coarse > 0.0


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
