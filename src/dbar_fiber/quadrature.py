"""Low-level quadrature building blocks.

Everything here is deterministic: node sets depend only on the arguments,
summation order is fixed, and no global state is consulted.  The module
provides

* composite Gauss-Legendre panels on finite intervals,
* the radial rule of the polar integrator: nested Clenshaw-Curtis rules,
  each panel at its own level with embedded half- and quarter-order rules,
  on a dense core of short panels and geometrically growing octave panels,
* closed evaluation of half-line decay integrals ``int_x^inf ds / (q + s^p)``
  via the substitution ``u = s**(-eps)``, which turns the tail into a
  finite, smooth integral.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre_panels",
    "radial_panel_rule",
    "decay_tail_integral",
    "half_line_decay_mass",
]


@lru_cache(maxsize=16)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_panels(f, a: float, b: float, panels: int = 8, order: int = 32) -> float:
    """Integrate ``f`` over [a, b] with ``panels`` equal Gauss-Legendre panels.

    ``f`` is called once, on a ``(panels, order)`` array of nodes, and must
    act elementwise on arrays of any shape, returning an array of the same
    shape (a scalar-valued ``f`` such as ``lambda x: 1.0`` is not accepted).
    """
    if b <= a:
        return 0.0
    x, w = _leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    # One call on the (panels, order) nodes; the row sums are added in
    # panel order, which keeps the result that of a panel-by-panel loop.
    rows = np.sum(w * f(0.5 * (hi + lo) + half * x), axis=1)
    total = 0.0
    for h, s in zip(half[:, 0].tolist(), rows.tolist()):
        total += h * s
    return total


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


def _tail_from(eps: float, x: float) -> float:
    # int_x^inf ds/(1+s^(1+eps)) for x >= 1, via u = s**(-eps):
    # (1/eps) * int_0^(x**-eps) du / (1 + u**((1+eps)/eps)).
    p_over_eps = (1.0 + eps) / eps
    hi = x ** (-eps)
    return (1.0 / eps) * gauss_legendre_panels(
        lambda u: 1.0 / (1.0 + u ** p_over_eps), 0.0, hi
    )


def decay_tail_integral(eps: float, q: float, x: float) -> float:
    """``int_x^inf ds / (q + s**(1+eps))`` for q >= 1, x >= 0.

    Rescaling s = q**(1/p) * sigma reduces the general case to q = 1, which
    keeps the integrand well resolved even for very large q.
    """
    if eps <= 0.0:
        raise ValueError("decay exponent must be positive")
    if q < 1.0:
        raise ValueError("offset constant must be >= 1")
    p = 1.0 + eps
    scale = q ** (1.0 / p)
    y = max(x, 0.0) / scale
    if y >= 1.0:
        base = _tail_from(eps, y)
    else:
        base = gauss_legendre_panels(
            lambda s: 1.0 / (1.0 + s ** p), y, 1.0
        ) + _tail_from(eps, 1.0)
    return q ** ((1.0 - p) / p) * base


def half_line_decay_mass(eps: float, q: float = 1.0) -> float:
    """``int_0^inf ds / (q + s**(1+eps))``."""
    return decay_tail_integral(eps, q, 0.0)
