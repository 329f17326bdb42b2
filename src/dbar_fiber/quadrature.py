"""Low-level quadrature building blocks.

Everything here is deterministic: node sets depend only on the arguments,
summation order is fixed, and no global state is consulted.  The module
provides

* composite Gauss-Legendre panels on finite intervals,
* the radial Simpson mesh used by the polar integrator (a dense core
  followed by geometrically growing octave panels, so very large
  truncation radii stay cheap), the mask of its nodes that the next
  coarser level already has, and the edges of its radial panels,
* closed evaluation of half-line decay integrals ``int_x^inf ds / (q + s^p)``
  via the substitution ``u = s**(-eps)``, which turns the tail into a
  finite, smooth integral.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre_panels",
    "radial_simpson_mesh",
    "nested_node_mask",
    "radial_panel_edges",
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


def _even(n: int) -> int:
    n = max(2, int(n))
    return n if n % 2 == 0 else n + 1


def _simpson_rows(a, b, intervals: int):
    """Nodes and weights, one row per segment ``[a[i], b[i]]``, of
    composite Simpson segments with a common interval count."""
    # Node k is a + h*k with h = (b-a)/intervals.  Halving h is exact in
    # floating point, so node 2k of the doubled segment equals node k bit
    # for bit; pinning the last node keeps both ends exact at every level.
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    h = (b - a) / intervals
    nodes = a[:, None] + h[:, None] * np.arange(intervals + 1)
    nodes[:, -1] = b
    pattern = np.full(intervals + 1, 2.0)
    pattern[1::2] = 4.0
    pattern[0] = 1.0
    pattern[-1] = 1.0
    return nodes, pattern * (h / 3.0)[:, None]


@lru_cache(maxsize=64)
def _mesh_segments(r_end: float, r_core: float, nodes_per_unit: int, level: int):
    """``(a, b, intervals)`` of each Simpson segment, core first, then
    octaves (every octave has the same interval count)."""
    if r_end <= 0.0:
        raise ValueError("truncation radius must be positive")
    scale = 2 ** level
    core_end = min(r_core, r_end)
    segments = [(0.0, core_end, _even(int(np.ceil(core_end * nodes_per_unit))) * scale)]
    lo = core_end
    while lo < r_end * (1.0 - 1e-12):
        hi = min(2.0 * lo, r_end)
        segments.append((lo, hi, _even(max(8, nodes_per_unit)) * scale))
        lo = hi
    return tuple(segments)


def radial_simpson_mesh(r_end: float, r_core: float, nodes_per_unit: int, level: int = 0):
    """Simpson nodes/weights covering [0, r_end].

    The core [0, min(r_core, r_end)] is sampled uniformly at
    ``nodes_per_unit`` intervals per unit length; past the core the mesh
    continues in octaves [A, 2A] with a fixed interval count per octave,
    clipped so the last node lands exactly on ``r_end``.  ``level`` halves
    the spacing everywhere (used for the error estimate by doubling).
    Segments keep both end nodes, so each inner segment boundary appears
    twice.  The level-L nodes are, bit for bit and in order, the level-L+1
    nodes that :func:`nested_node_mask` selects.
    """
    (_, core_end, core_intervals), *octaves = _mesh_segments(r_end, r_core, nodes_per_unit, level)
    parts = [_simpson_rows([0.0], [core_end], core_intervals)]
    if octaves:
        parts.append(_simpson_rows([a for a, _, _ in octaves], [b for _, b, _ in octaves], octaves[0][2]))
    nodes = np.concatenate([p[0].ravel() for p in parts])
    weights = np.concatenate([p[1].ravel() for p in parts])
    return nodes, weights


def nested_node_mask(r_end: float, r_core: float, nodes_per_unit: int, level: int):
    """Boolean mask over the ``radial_simpson_mesh`` nodes of ``level``
    (>= 1) that are also nodes of ``level - 1``: the even offsets within
    each segment."""
    if level < 1:
        raise ValueError("level 0 has no coarser mesh")
    (_, _, core_intervals), *octaves = _mesh_segments(r_end, r_core, nodes_per_unit, level)
    even = np.arange(core_intervals + 1) % 2 == 0
    if not octaves:
        return even
    return np.concatenate([even, np.tile(np.arange(octaves[0][2] + 1) % 2 == 0, len(octaves))])


def radial_panel_edges(r_end: float, r_core: float, core_panel: float) -> np.ndarray:
    """Lower edges of the radial panels of the ``radial_simpson_mesh``
    meshes over [0, r_end], in increasing order.

    The core is cut into panels of length ``core_panel`` (the last one
    also takes the remainder, so it is shorter than twice that length) and
    each octave segment is one panel.  A radius belongs to the last panel
    whose lower edge it reaches (``np.searchsorted(edges, r, "right") - 1``),
    so a node shared by two segments goes to the outer one.  The panel
    depends on the radius alone, and the meshes nest bit for bit, so a node
    keeps its panel at every level.
    """
    # the segment bounds do not depend on the node density or the level
    segments = _mesh_segments(r_end, r_core, 2, 0)
    n_core = max(1, int(segments[0][1] // core_panel))
    return np.array([core_panel * k for k in range(n_core)] + [a for a, _, _ in segments[1:]])


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
