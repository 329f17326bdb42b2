import numpy as np
import pytest

from dbar_fiber.cauchy import tail_bound
from dbar_fiber.fields import DecayBudget
from dbar_fiber.quadrature import (
    _clenshaw_curtis,
    _radial_panels,
    _unit_tables,
    half_line_decay_mass,
    radial_panel_rule,
)


def reflection_mass(eps):
    # int_0^inf dr/(1+r^p) = (pi/p)/sin(pi/p), independent closed form.
    p = 1.0 + eps
    return (np.pi / p) / np.sin(np.pi / p)


def gauss_legendre(f, a, b, panels=8, order=32):
    """``f`` integrated over [a, b] by ``panels`` equal Gauss-Legendre panels."""
    if b <= a:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    rows = np.sum(w * f(0.5 * (hi + lo) + half * x), axis=1)
    total = 0.0
    for h, s in zip(half[:, 0].tolist(), rows.tolist()):
        total += h * s
    return total


def reference_tail_integral(eps, q, x):
    """``int_x^inf ds / (q + s**(1+eps))`` for q >= 1, x >= 0, by the
    quadrature the package used before its closed-form tail: s = q**(1/p)
    sigma reduces it to q = 1, and u = sigma**-eps turns the part past
    sigma = 1 into a finite, smooth integral, each part on 8 panels of 32
    Gauss-Legendre nodes."""
    p = 1.0 + eps

    def past(y):  # int_y^inf ds/(1+s^p) for y >= 1
        return (1.0 / eps) * gauss_legendre(lambda u: 1.0 / (1.0 + u ** (p / eps)), 0.0, y ** -eps)

    scale = q ** (1.0 / p)
    y = max(x, 0.0) / scale
    base = past(y) if y >= 1.0 else gauss_legendre(lambda s: 1.0 / (1.0 + s ** p), y, 1.0) + past(1.0)
    return q ** ((1.0 - p) / p) * base


@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 2.0, 3.0])
def test_half_line_mass_matches_reflection_formula(eps):
    assert half_line_decay_mass(eps, 1.0) == pytest.approx(reflection_mass(eps), rel=1e-9)


def test_half_line_mass_matches_the_reference_quadrature():
    for eps in np.linspace(0.25, 3.0, 12):
        for q in (1.0, 2.0, 17.5, 1e8):
            assert half_line_decay_mass(eps, q) == pytest.approx(reference_tail_integral(eps, q, 0.0), rel=1e-10)


def test_half_line_mass_keeps_its_digits_at_extreme_exponents():
    # pi/p / sin(pi/p) at p = 1 + eps cancels to 1/eps as eps -> 0; the
    # sine at pi eps/p keeps every digit (sin(pi/p) alone gives 2.6e16 at
    # eps = 1e-300).  As eps -> inf the mass tends to q**(1/p - 1).
    for eps in (1e-10, 1e-300):
        assert half_line_decay_mass(eps) == pytest.approx(1.0 / eps, rel=1e-9)
    for q in (1.0, 7.0):
        assert half_line_decay_mass(1e300, q) == pytest.approx(q ** (1.0 / (1.0 + 1e300) - 1.0), rel=1e-15)


@pytest.mark.parametrize("q", [1.0, 2.0, 17.5, 1e8])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 4.0, 250.0])
def test_tail_matches_arctan_closed_form(q, x):
    # eps = 1: int_x^inf ds/(q+s^2) = (pi/2 - arctan(x/sqrt(q)))/sqrt(q), in
    # the reference quadrature, and at most 1/x, the tail bound for C = 1/2.
    exact = (np.pi / 2 - np.arctan(x / np.sqrt(q))) / np.sqrt(q)
    assert reference_tail_integral(1.0, q, x) == pytest.approx(exact, rel=1e-10)
    if x > 0.0:
        assert tail_bound(DecayBudget(1.0, 0.5), 0.0, x) >= exact


@pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("q", [1.0, 5.0])
def test_tail_differences_match_brute_force(eps, q):
    # T(x1) - T(x2) is a finite integral, computable by dense trapezoid.
    for x1, x2 in [(0.0, 1.0), (0.5, 3.0), (2.0, 50.0)]:
        s = np.linspace(x1, x2, 400_001)
        brute = np.trapezoid(1.0 / (q + s ** (1.0 + eps)), s)
        mine = reference_tail_integral(eps, q, x1) - reference_tail_integral(eps, q, x2)
        assert mine == pytest.approx(brute, rel=1e-7, abs=1e-10)


def test_tail_monotone_and_asymptotic():
    # The closed-form bound x**-eps / eps dominates the reference tail,
    # both fall in x, and their ratio tends to 1.
    eps = 1.0
    xs = (1.0, 2.0, 4.0, 8.0, 64.0, 512.0)
    values = [reference_tail_integral(eps, 1.0, x) for x in xs]
    bounds = [tail_bound(DecayBudget(eps, 0.5), 0.0, x) for x in xs]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(b < a for a, b in zip(bounds, bounds[1:]))
    assert all(b >= v for b, v in zip(bounds, values))
    for x in (1e3, 1e5):
        assert x * reference_tail_integral(eps, 1.0, x) == pytest.approx(1.0, rel=1e-3)
        assert tail_bound(DecayBudget(eps, 0.5), 0.0, x) / reference_tail_integral(eps, 1.0, x) == pytest.approx(1.0, rel=1e-3)


def test_tail_rejects_bad_arguments():
    with pytest.raises(ValueError):
        half_line_decay_mass(0.0, 1.0)
    with pytest.raises(ValueError):
        half_line_decay_mass(1.0, 0.5)


def panel_partition(r_end, r_core, nodes_per_unit, octave, core_panel=2.0):
    """``(lo, hi, level-0 order)`` of each radial panel, built one panel at
    a time: the core cut at multiples of ``core_panel`` (the last piece
    takes the remainder), then octaves doubling up to r_end (the last one
    clipped), each of order ``octave`` made even and at least 8; for an
    ``octave`` of ``(order, a, b)``, ``nodes_per_unit`` on the octaves
    that overlap [a, b] and ``order`` on the others."""
    def even(n):
        n = max(2, int(n))
        return n + n % 2

    order, band = (octave[0], octave[1:]) if isinstance(octave, tuple) else (octave, None)
    core_end = min(r_core, r_end)
    cuts = max(1, int(np.floor(core_end / core_panel)))
    edges = [core_panel * q for q in range(cuts)] + [core_end]
    panels = [(a, b, even(np.ceil((b - a) * nodes_per_unit))) for a, b in zip(edges, edges[1:])]
    lo = core_end
    while lo < r_end * (1.0 - 1e-12):
        hi = min(2.0 * lo, r_end)
        overlaps = band is not None and lo < band[1] and hi > band[0]
        panels.append((lo, hi, even(max(8, nodes_per_unit if overlaps else order))))
        lo = hi
    return panels


def moment_weights(n):
    """Weights of the (n+1)-point rule at cos(pi k / n) on [-1, 1] that
    integrates T_0 .. T_n exactly, from the moment system."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    j = np.arange(n + 1)
    moments = np.zeros(n + 1)
    moments[0::2] = 2.0 / (1.0 - j[0::2] ** 2.0)
    return np.linalg.solve(np.cos(np.outer(j, np.arccos(x))), moments)


MESH_CASES = [
    (8.0, 8.0, 16), (100.0, 13.7, 24), (65536.0, 5.2, 24), (5.4e8, 36.0, 12), (3.0, 8.0, 5),
    (20.0, 4.0, 16), (1000.0 * np.pi, 4.5, 12), (0.7, 4.0, 8),
]


def octaves(nodes_per_unit):
    """The octave orders of the near part of a split solve and of the
    one-center rule, and the far part's: half order outside a band."""
    return nodes_per_unit, nodes_per_unit // 2, (nodes_per_unit // 2, 10.0, 30.0)


def seeded_levels(rng, r_end, r_core, nodes_per_unit, octave, top):
    """Per-panel radial levels in 0..top, one per panel of the partition."""
    return rng.integers(0, top + 1, len(panel_partition(r_end, r_core, nodes_per_unit, octave)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9, 25, 49, 50, 51, 64])
def test_clenshaw_curtis_weights_match_the_moment_system_also_for_odd_orders(n):
    # The odd orders are the embedded half-order rules of panels whose
    # order is 2 mod 4, such as 25 inside 50.
    x, w = _clenshaw_curtis(n)
    assert np.array_equal(x, np.cos(np.pi * (np.arange(n + 1) / n)))
    assert np.allclose(w, moment_weights(n), rtol=0.0, atol=4e-15)


@pytest.mark.parametrize("r_end, r_core, nodes_per_unit", MESH_CASES)
def test_radial_mesh_matches_the_segment_by_segment_construction(r_end, r_core, nodes_per_unit):
    # Panel by panel, at one level for all panels and at seeded per-panel
    # levels: the partition, the node count n + 1 with n the level-0 order
    # times 2**level, the nodes mid - half cos(pi k / n) with pinned ends,
    # the weights of the moment system, and the embedded half-order
    # weights on the even k, zero on the odd k, and where 4 divides n >= 12
    # the embedded quarter-order weights on the k = 0 mod 4, zero elsewhere;
    # with the octaves at each of their two orders.
    rng = np.random.default_rng(int(r_end * 1000) % 2 ** 32)
    for octave, levels in [(o, lev) for o in octaves(nodes_per_unit) for lev in (0, 1, 2, None)]:
        parts = panel_partition(r_end, r_core, nodes_per_unit, octave)
        if levels is None:
            levels = seeded_levels(rng, r_end, r_core, nodes_per_unit, octave, 2)
        nodes, weights, coarse, quarter, panel, even = radial_panel_rule(r_end, r_core, nodes_per_unit, levels, octave)
        per_panel = np.broadcast_to(levels, (len(parts),))
        sizes = [m * 2 ** lev + 1 for (_, _, m), lev in zip(parts, per_panel)]
        assert np.array_equal(panel, np.repeat(np.arange(len(parts)), sizes))
        for q, ((a, b, m), lev) in enumerate(zip(parts, per_panel)):
            n = m * 2 ** lev
            x, w, c, e = nodes[panel == q], weights[panel == q], coarse[panel == q], even[panel == q]
            f = quarter[panel == q]
            assert x[0] == a and x[-1] == b
            want = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(n + 1) / n)
            assert np.allclose(x, want, rtol=0.0, atol=4e-16 * b)
            # the moment system is solved to rounding relative to the
            # weights' sum, not to each small end weight
            assert np.allclose(w, 0.5 * (b - a) * moment_weights(n), rtol=0.0, atol=4e-15 * (b - a))
            assert np.array_equal(e, np.arange(n + 1) % 2 == 0)
            assert np.all(c[~e] == 0.0)
            assert np.allclose(c[e], 0.5 * (b - a) * moment_weights(n // 2), rtol=0.0, atol=4e-15 * (b - a))
            fourth = np.arange(n + 1) % 4 == 0
            if n % 4 or n < 12:
                assert np.array_equal(f, c)
            else:
                assert np.all(f[~fourth] == 0.0)
                assert np.allclose(f[fourth], 0.5 * (b - a) * moment_weights(n // 4), rtol=0.0, atol=4e-15 * (b - a))


@pytest.mark.parametrize("r_end, r_core, nodes_per_unit", MESH_CASES)
def test_radial_rule_is_exact_on_polynomials_of_degree_n_per_panel(r_end, r_core, nodes_per_unit):
    # ... its embedded half-order rule on those of degree n / 2, and its
    # embedded quarter-order rule, where there is one, on those of degree
    # n / 4
    for octave, level in [(o, lev) for o in octaves(nodes_per_unit) for lev in range(3)]:
        nodes, weights, coarse, quarter, panel, _ = radial_panel_rule(r_end, r_core, nodes_per_unit, level, octave)
        for q in range(panel[-1] + 1):
            x, w, c, f = nodes[panel == q], weights[panel == q], coarse[panel == q], quarter[panel == q]
            a, b, n = x[0], x[-1], x.size - 1
            t = np.clip((2.0 * x - (a + b)) / (b - a), -1.0, 1.0)
            for j in range(n + 1):
                # int_a^b T_j(t(r)) dr, with T_j(t) = cos(j arccos t)
                exact = 0.5 * (b - a) * (2.0 / (1.0 - j * j) if j % 2 == 0 else 0.0)
                assert np.dot(w, np.cos(j * np.arccos(t))) == pytest.approx(exact, abs=1e-13 * (b - a))
                if j <= n // 2:
                    assert np.dot(c, np.cos(j * np.arccos(t))) == pytest.approx(exact, abs=1e-13 * (b - a))
                if j <= n // 4 and f.any():
                    assert np.dot(f, np.cos(j * np.arccos(t))) == pytest.approx(exact, abs=1e-13 * (b - a))


@pytest.mark.parametrize("r_end, r_core, nodes_per_unit", MESH_CASES)
def test_radial_rule_weights_are_positive_and_sum_to_r_end(r_end, r_core, nodes_per_unit):
    # The quarter-order weights are positive on the k = 0 mod 4 of the
    # panels that have them, repeat the half-order ones on the others, and
    # sum to each panel's length.
    rng = np.random.default_rng(7)
    for octave, levels in [(o, lev) for o in octaves(nodes_per_unit) for lev in (0, 1, 2, 3, None)]:
        if levels is None:
            levels = seeded_levels(rng, r_end, r_core, nodes_per_unit, octave, 3)
        _, weights, coarse, quarter, panel, even = radial_panel_rule(r_end, r_core, nodes_per_unit, levels, octave)
        assert np.all(weights > 0.0) and np.all(coarse[even] > 0.0)
        assert weights.sum() == pytest.approx(r_end, rel=1e-13)
        assert coarse.sum() == pytest.approx(r_end, rel=1e-13)
        starts = np.flatnonzero(np.diff(panel, prepend=-1))
        fourth = (np.arange(panel.size) - np.repeat(starts, np.diff(np.append(starts, panel.size)))) % 4 == 0
        n = np.bincount(panel) - 1
        has = ((n % 4 == 0) & (n >= 12))[panel]
        assert np.all(quarter[has & fourth] > 0.0) and np.all(quarter[has & ~fourth] == 0.0)
        assert np.array_equal(quarter[~has], coarse[~has])
        assert np.allclose(np.bincount(panel, quarter), np.bincount(panel, weights), rtol=1e-13, atol=0.0)
        assert quarter.sum() == pytest.approx(r_end, rel=1e-13)


def test_radial_mesh_ends_exactly_and_integrates():
    nodes, weights, coarse, _, _, _ = radial_panel_rule(20.0, 4.0, 16, 0)
    assert nodes[0] == 0.0
    assert nodes[-1] == 20.0
    assert weights.sum() == pytest.approx(20.0, rel=1e-14)
    # exp(-r) is resolved to rounding on every panel at level 0 already;
    # the half-order rule misses by 9e-10, on the 9 nodes of the octaves
    # [4, 8] and [8, 16]
    exact = 1.0 - np.exp(-20.0)
    assert abs(np.dot(weights, np.exp(-nodes)) - exact) < 1e-15
    assert 1e-12 < abs(np.dot(coarse, np.exp(-nodes)) - exact) < 1e-8
    nodes, weights, _, _, _, _ = radial_panel_rule(20.0, 4.0, 16, 1)
    assert abs(np.dot(weights, np.exp(-nodes)) - exact) < 1e-15


def test_radial_mesh_refinement_halves_spacing():
    coarse = radial_panel_rule(50.0, 4.0, 8, 0)[0]
    fine = radial_panel_rule(50.0, 4.0, 8, 1)[0]
    assert fine.size > 1.9 * coarse.size
    # graded: far octaves are much coarser than a uniform mesh would be
    assert coarse.size < 50.0 * 8
    assert radial_panel_rule(5e4, 4.0, 8, 0)[0].size < 1e-2 * 5e4 * 8


@pytest.mark.parametrize("level", [0, 1, 2])
def test_radial_mesh_nests_bitwise_under_doubling(level):
    # A seeded sweep of radii, cores and orders, from one core panel to
    # dozens of core panels and octaves.  From seeded per-panel levels,
    # a seeded subset of the panels adds one level: the even k of those
    # panels and every node of the others are the coarse rule's.  Two
    # levels up, the k = 0 mod 4 are, and the quarter-order weights sit on
    # them alone.
    rng, choose = np.random.default_rng(20261018 + level), np.random.default_rng(level)
    for _ in range(40):
        r_end = float(10.0 ** rng.uniform(-0.5, 8.0))
        r_core = float(rng.uniform(4.0, 140.0))
        n_r = int(rng.integers(2, 40))
        levels = seeded_levels(choose, r_end, r_core, n_r, n_r, level)
        grow = choose.integers(0, 2, levels.size).astype(bool) | (np.arange(levels.size) == 0)
        for octave in octaves(n_r):
            coarse, coarse_w, _, _, coarse_panel, _ = radial_panel_rule(r_end, r_core, n_r, levels, octave)
            fine, fine_w, _, _, fine_panel, even = radial_panel_rule(r_end, r_core, n_r, levels + grow, octave)
            kept = even | ~grow[fine_panel]
            assert kept.sum() == coarse.size
            assert np.array_equal(fine[kept].view(np.uint64), coarse.view(np.uint64))
            assert np.array_equal(fine_w[~grow[fine_panel]].view(np.uint64),
                                  coarse_w[~grow[coarse_panel]].view(np.uint64))
            assert np.array_equal(fine_panel[kept], coarse_panel)
            # the first and last node of every panel are kept, and no two
            # neighbours within a refined panel are
            starts = np.flatnonzero(np.diff(fine_panel, prepend=-1))
            ends = np.append(starts[1:] - 1, fine.size - 1)
            assert even[starts].all() and even[ends].all()
            same_panel = fine_panel[1:] == fine_panel[:-1]
            assert not (kept[1:] & kept[:-1] & same_panel & grow[fine_panel[1:]]).any()
            assert fine[-1] == r_end and fine_w.sum() == pytest.approx(r_end, rel=1e-13)
            finer, _, _, quarter, finer_panel, finer_even = radial_panel_rule(r_end, r_core, n_r, levels + 2 * grow, octave)
            starts = np.flatnonzero(np.diff(finer_panel, prepend=-1))
            k = np.arange(finer.size) - np.repeat(starts, np.diff(np.append(starts, finer.size)))
            assert np.array_equal(finer[(k % 4 == 0) | ~grow[finer_panel]].view(np.uint64), coarse.view(np.uint64))
            n = np.bincount(finer_panel) - 1
            has = ((n % 4 == 0) & (n >= 12))[finer_panel]
            assert np.all(quarter[has & (k % 4 != 0)] == 0.0) and np.array_equal(finer_even, k % 2 == 0)


def concatenated_rule(r_end, r_core, nodes_per_unit, levels, octave=None):
    """The radial rule built without cached tables: each panel's rule
    shifted and scaled on its own, ends pinned, then all concatenated."""
    parts = panel_partition(r_end, r_core, nodes_per_unit, octave or nodes_per_unit)
    tables = []
    for q, ((a, b, m), lev) in enumerate(zip(parts, np.broadcast_to(levels, (len(parts),)))):
        n = m * 2 ** int(lev)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x, w = _clenshaw_curtis(n)
        nodes = mid - half * x
        nodes[0], nodes[-1] = a, b
        embedded = []
        for step in (2, 4 if n % 4 == 0 and n >= 12 else 2):
            e = np.zeros(n + 1)
            e[::step] = _clenshaw_curtis(n // step)[1]
            embedded.append(half * e)
        tables.append((nodes, half * w, *embedded, np.full(n + 1, q)))
    nodes, weights, coarse, quarter, panel = (np.concatenate(t) for t in zip(*tables))
    return nodes, weights, coarse, quarter, panel, coarse > 0.0


def assert_same_rule(got, want):
    for g, v in zip(got[:4], want[:4]):
        assert np.array_equal(g.view(np.uint64), v.view(np.uint64))
    assert np.array_equal(got[4], want[4]) and np.array_equal(got[5], want[5])


def test_cached_radial_rule_matches_the_concatenated_rules_bitwise():
    # A seeded sweep of radii, cores, orders, scalar and per-panel levels
    # and octave orders; then, once the cache has evicted the first call's
    # tables, that call again; and writing to a result leaves the next
    # call's alone.
    rng = np.random.default_rng(20261019)
    calls = []
    while len(calls) < 2 * _unit_tables.cache_info().maxsize:
        r_end = float(10.0 ** rng.uniform(-0.5, 8.0))
        r_core = float(rng.uniform(4.0, 140.0))
        n_r = int(rng.integers(2, 40))
        octave = [None, n_r, n_r // 2, int(rng.integers(2, 20))][len(calls) % 4]
        top = int(rng.integers(0, 3))
        levels = top if len(calls) % 2 else seeded_levels(rng, r_end, r_core, n_r, octave or n_r, top)
        calls.append((r_end, r_core, n_r, levels, octave))
    for args in calls:
        assert_same_rule(radial_panel_rule(*args), concatenated_rule(*args))
    misses = _unit_tables.cache_info().misses
    assert_same_rule(radial_panel_rule(*calls[0]), concatenated_rule(*calls[0]))
    assert _unit_tables.cache_info().misses == misses + 1  # evicted, then built again
    for args in calls[:3]:
        first = radial_panel_rule(*args)
        for table in first[:4]:
            table[:] = -1.0
        assert_same_rule(radial_panel_rule(*args), concatenated_rule(*args))
        with pytest.raises(ValueError):
            first[4][0] = 1


def test_radial_mesh_rejects_nonpositive_radius():
    for r_end in (0.0, -1.0):
        with pytest.raises(ValueError):
            radial_panel_rule(r_end, 4.0, 8, 0)


def test_octaves_that_overlap_the_band_take_the_full_order():
    # The far part of a split solve at |w| = 24: phi's band is [12, 36].
    # On a core of 4 units the octaves [8, 16], [16, 32] and [32, 64]
    # overlap it and take order 24; [4, 8] and those from 64 on take 12.
    mid, half, _, orders = _radial_panels(4096.0, 4.0, 24, (12, 12.0, 36.0))
    lo, hi = mid - half, mid + half
    octave = lo >= 4.0
    assert orders[~octave].tolist() == [48, 48]
    assert [(a, b, m) for a, b, m in zip(lo[octave], hi[octave], orders[octave]) if m == 24] == [
        (8.0, 16.0, 24), (16.0, 32.0, 24), (32.0, 64.0, 24)]
    assert set(orders[octave].tolist()) == {12, 24}
    # an edge on the band's end does not overlap it
    assert _radial_panels(4096.0, 4.0, 24, (12, 16.0, 32.0))[3][octave].tolist().count(24) == 1
