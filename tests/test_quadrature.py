import numpy as np
import pytest

from dbar_fiber.quadrature import (
    _clenshaw_curtis,
    _leggauss,
    decay_tail_integral,
    gauss_legendre_panels,
    half_line_decay_mass,
    radial_panel_rule,
)


def reflection_mass(eps):
    # int_0^inf dr/(1+r^p) = (pi/p)/sin(pi/p), independent closed form.
    p = 1.0 + eps
    return (np.pi / p) / np.sin(np.pi / p)


def test_gauss_legendre_polynomial_exact():
    assert gauss_legendre_panels(lambda x: x ** 3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)
    assert gauss_legendre_panels(lambda x: np.exp(-x), 0.0, 5.0) == pytest.approx(
        1.0 - np.exp(-5.0), abs=1e-13
    )


def test_gauss_legendre_empty_interval():
    assert gauss_legendre_panels(lambda x: x, 1.0, 1.0) == 0.0


def looped_gauss_legendre_panels(f, a, b, panels=8, order=32):
    """Reference: one ``f`` call and one sum per panel, added in panel order."""
    if b <= a:
        return 0.0
    x, w = _leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes = 0.5 * (hi + lo) + half * x
        total += half * float(np.sum(w * f(nodes)))
    return total


def test_gauss_legendre_panels_match_the_panel_loop_bitwise():
    # The integrands and ranges of the tail integrals: exact equality keeps
    # every truncation radius chosen from a tail bound unchanged.
    rng = np.random.default_rng(20261018)
    for _ in range(500):
        eps = float(rng.uniform(0.05, 5.0))
        q = float(10.0 ** rng.uniform(0.0, 8.0))
        x = float(10.0 ** rng.uniform(-3.0, 6.0))
        p = 1.0 + eps
        cases = (
            (lambda u: 1.0 / (1.0 + u ** (p / eps)), 0.0, x ** (-eps)),
            (lambda s: 1.0 / (q + s ** p), 0.0, x),
            (lambda s: 1.0 / (q + s ** p), x, 2.0 * x + 1.0),
        )
        for f, a, b in cases:
            assert gauss_legendre_panels(f, a, b) == looped_gauss_legendre_panels(f, a, b)
    assert gauss_legendre_panels(np.cos, 0.0, 3.0, panels=5, order=7) == (
        looped_gauss_legendre_panels(np.cos, 0.0, 3.0, panels=5, order=7)
    )


@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 2.0, 3.0])
def test_half_line_mass_matches_reflection_formula(eps):
    assert half_line_decay_mass(eps, 1.0) == pytest.approx(reflection_mass(eps), rel=1e-9)


@pytest.mark.parametrize("q", [1.0, 2.0, 17.5, 1e8])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 4.0, 250.0])
def test_tail_matches_arctan_closed_form(q, x):
    # eps = 1: int_x^inf ds/(q+s^2) = (pi/2 - arctan(x/sqrt(q)))/sqrt(q).
    exact = (np.pi / 2 - np.arctan(x / np.sqrt(q))) / np.sqrt(q)
    assert decay_tail_integral(1.0, q, x) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("q", [1.0, 5.0])
def test_tail_differences_match_brute_force(eps, q):
    # T(x1) - T(x2) is a finite integral, computable by dense trapezoid.
    for x1, x2 in [(0.0, 1.0), (0.5, 3.0), (2.0, 50.0)]:
        s = np.linspace(x1, x2, 400_001)
        brute = np.trapezoid(1.0 / (q + s ** (1.0 + eps)), s)
        mine = decay_tail_integral(eps, q, x1) - decay_tail_integral(eps, q, x2)
        assert mine == pytest.approx(brute, rel=1e-7, abs=1e-10)


def test_tail_monotone_and_asymptotic():
    eps = 1.0
    values = [decay_tail_integral(eps, 1.0, x) for x in (1.0, 2.0, 4.0, 8.0, 64.0, 512.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    # x**eps * T(x) -> 1/eps
    for x in (1e3, 1e5):
        assert x * decay_tail_integral(eps, 1.0, x) == pytest.approx(1.0, rel=1e-3)


def test_tail_rejects_bad_arguments():
    with pytest.raises(ValueError):
        decay_tail_integral(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        decay_tail_integral(1.0, 0.5, 1.0)


def panel_partition(r_end, r_core, nodes_per_unit, core_panel=2.0):
    """``(lo, hi, level-0 order)`` of each radial panel, built one panel at
    a time: the core cut at multiples of ``core_panel`` (the last piece
    takes the remainder), then octaves doubling up to r_end (the last one
    clipped)."""
    def even(n):
        n = max(2, int(n))
        return n + n % 2

    core_end = min(r_core, r_end)
    cuts = max(1, int(np.floor(core_end / core_panel)))
    edges = [core_panel * q for q in range(cuts)] + [core_end]
    panels = [(a, b, even(np.ceil((b - a) * nodes_per_unit))) for a, b in zip(edges, edges[1:])]
    lo = core_end
    while lo < r_end * (1.0 - 1e-12):
        panels.append((lo, min(2.0 * lo, r_end), even(max(8, nodes_per_unit))))
        lo = panels[-1][1]
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


def seeded_levels(rng, r_end, r_core, nodes_per_unit, top):
    """Per-panel radial levels in 0..top, one per panel of the partition."""
    return rng.integers(0, top + 1, len(panel_partition(r_end, r_core, nodes_per_unit)))


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
    # weights on the even k, zero on the odd k.
    parts = panel_partition(r_end, r_core, nodes_per_unit)
    rng = np.random.default_rng(int(r_end * 1000) % 2 ** 32)
    for levels in [0, 1, 2, seeded_levels(rng, r_end, r_core, nodes_per_unit, 2)]:
        nodes, weights, coarse, panel, even = radial_panel_rule(r_end, r_core, nodes_per_unit, levels)
        per_panel = np.broadcast_to(levels, (len(parts),))
        sizes = [m * 2 ** lev + 1 for (_, _, m), lev in zip(parts, per_panel)]
        assert np.array_equal(panel, np.repeat(np.arange(len(parts)), sizes))
        for q, ((a, b, m), lev) in enumerate(zip(parts, per_panel)):
            n = m * 2 ** lev
            x, w, c, e = nodes[panel == q], weights[panel == q], coarse[panel == q], even[panel == q]
            assert x[0] == a and x[-1] == b
            want = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(n + 1) / n)
            assert np.allclose(x, want, rtol=0.0, atol=4e-16 * b)
            # the moment system is solved to rounding relative to the
            # weights' sum, not to each small end weight
            assert np.allclose(w, 0.5 * (b - a) * moment_weights(n), rtol=0.0, atol=4e-15 * (b - a))
            assert np.array_equal(e, np.arange(n + 1) % 2 == 0)
            assert np.all(c[~e] == 0.0)
            assert np.allclose(c[e], 0.5 * (b - a) * moment_weights(n // 2), rtol=0.0, atol=4e-15 * (b - a))


@pytest.mark.parametrize("r_end, r_core, nodes_per_unit", MESH_CASES)
def test_radial_rule_is_exact_on_polynomials_of_degree_n_per_panel(r_end, r_core, nodes_per_unit):
    # ... and its embedded half-order rule on those of degree n / 2
    for level in range(2):
        nodes, weights, coarse, panel, _ = radial_panel_rule(r_end, r_core, nodes_per_unit, level)
        for q in range(panel[-1] + 1):
            x, w, c = nodes[panel == q], weights[panel == q], coarse[panel == q]
            a, b, n = x[0], x[-1], x.size - 1
            t = np.clip((2.0 * x - (a + b)) / (b - a), -1.0, 1.0)
            for j in range(n + 1):
                # int_a^b T_j(t(r)) dr, with T_j(t) = cos(j arccos t)
                exact = 0.5 * (b - a) * (2.0 / (1.0 - j * j) if j % 2 == 0 else 0.0)
                assert np.dot(w, np.cos(j * np.arccos(t))) == pytest.approx(exact, abs=1e-13 * (b - a))
                if j <= n // 2:
                    assert np.dot(c, np.cos(j * np.arccos(t))) == pytest.approx(exact, abs=1e-13 * (b - a))


@pytest.mark.parametrize("r_end, r_core, nodes_per_unit", MESH_CASES)
def test_radial_rule_weights_are_positive_and_sum_to_r_end(r_end, r_core, nodes_per_unit):
    rng = np.random.default_rng(7)
    for levels in [0, 1, 2, 3, seeded_levels(rng, r_end, r_core, nodes_per_unit, 3)]:
        _, weights, coarse, _, even = radial_panel_rule(r_end, r_core, nodes_per_unit, levels)
        assert np.all(weights > 0.0) and np.all(coarse[even] > 0.0)
        assert weights.sum() == pytest.approx(r_end, rel=1e-13)
        assert coarse.sum() == pytest.approx(r_end, rel=1e-13)


def test_radial_mesh_ends_exactly_and_integrates():
    nodes, weights, coarse, _, _ = radial_panel_rule(20.0, 4.0, 16, 0)
    assert nodes[0] == 0.0
    assert nodes[-1] == 20.0
    assert weights.sum() == pytest.approx(20.0, rel=1e-14)
    # exp(-r) is resolved to rounding on every panel at level 0 already;
    # the half-order rule misses by 9e-10, on the 9 nodes of the octaves
    # [4, 8] and [8, 16]
    exact = 1.0 - np.exp(-20.0)
    assert abs(np.dot(weights, np.exp(-nodes)) - exact) < 1e-15
    assert 1e-12 < abs(np.dot(coarse, np.exp(-nodes)) - exact) < 1e-8
    nodes, weights, _, _, _ = radial_panel_rule(20.0, 4.0, 16, 1)
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
    # panels and every node of the others are the coarse rule's.
    rng, choose = np.random.default_rng(20261018 + level), np.random.default_rng(level)
    for _ in range(40):
        r_end = float(10.0 ** rng.uniform(-0.5, 8.0))
        r_core = float(rng.uniform(4.0, 140.0))
        n_r = int(rng.integers(2, 40))
        levels = seeded_levels(choose, r_end, r_core, n_r, level)
        grow = choose.integers(0, 2, levels.size).astype(bool) | (np.arange(levels.size) == 0)
        coarse, coarse_w, _, coarse_panel, _ = radial_panel_rule(r_end, r_core, n_r, levels)
        fine, fine_w, _, fine_panel, even = radial_panel_rule(r_end, r_core, n_r, levels + grow)
        kept = even | ~grow[fine_panel]
        assert kept.sum() == coarse.size
        assert np.array_equal(fine[kept].view(np.uint64), coarse.view(np.uint64))
        assert np.array_equal(fine_w[~grow[fine_panel]].view(np.uint64), coarse_w[~grow[coarse_panel]].view(np.uint64))
        assert np.array_equal(fine_panel[kept], coarse_panel)
        # the first and last node of every panel are kept, and no two
        # neighbours within a refined panel are
        starts = np.flatnonzero(np.diff(fine_panel, prepend=-1))
        ends = np.append(starts[1:] - 1, fine.size - 1)
        assert even[starts].all() and even[ends].all()
        same_panel = fine_panel[1:] == fine_panel[:-1]
        assert not (kept[1:] & kept[:-1] & same_panel & grow[fine_panel[1:]]).any()
        assert fine[-1] == r_end and fine_w.sum() == pytest.approx(r_end, rel=1e-13)


def test_radial_mesh_rejects_nonpositive_radius():
    for r_end in (0.0, -1.0):
        with pytest.raises(ValueError):
            radial_panel_rule(r_end, 4.0, 8, 0)
