import numpy as np
import pytest

from dbar_fiber.quadrature import (
    _leggauss,
    decay_tail_integral,
    gauss_legendre_panels,
    half_line_decay_mass,
    nested_node_mask,
    radial_simpson_mesh,
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


def test_radial_mesh_ends_exactly_and_integrates():
    nodes, weights = radial_simpson_mesh(20.0, 4.0, 16)
    assert nodes[0] == 0.0
    assert nodes[-1] == 20.0
    # integral of 1 equals the length (Simpson is exact on constants)
    assert weights.sum() == pytest.approx(20.0, rel=1e-14)
    exact = 1.0 - np.exp(-20.0)
    err0 = abs(np.sum(weights * np.exp(-nodes)) - exact)
    assert err0 < 2e-6
    # doubling the mesh must shrink the error at fourth order
    nodes1, weights1 = radial_simpson_mesh(20.0, 4.0, 16, level=1)
    err1 = abs(np.sum(weights1 * np.exp(-nodes1)) - exact)
    assert err1 < err0 / 12.0


def test_radial_mesh_refinement_halves_spacing():
    coarse = radial_simpson_mesh(50.0, 4.0, 8, level=0)[0]
    fine = radial_simpson_mesh(50.0, 4.0, 8, level=1)[0]
    assert fine.size > 1.9 * coarse.size
    # graded: far octaves are much coarser than a uniform mesh would be
    uniform_count = 50.0 * 8
    assert coarse.size < uniform_count


@pytest.mark.parametrize("level", [0, 1, 2])
def test_radial_mesh_nests_bitwise_under_doubling(level):
    # Core [0, 4.5], then ten octaves; the last, [2304, 1000 pi], is clipped.
    r_end, r_core, n_r = 1000.0 * np.pi, 4.5, 12
    coarse, coarse_w = radial_simpson_mesh(r_end, r_core, n_r, level)
    fine, fine_w = radial_simpson_mesh(r_end, r_core, n_r, level + 1)
    kept = nested_node_mask(r_end, r_core, n_r, level + 1)
    assert kept.shape == fine.shape and kept.sum() == coarse.size
    assert np.array_equal(fine[kept], coarse)
    assert np.array_equal(fine[kept].view(np.uint64), coarse.view(np.uint64))
    # segments hold an odd node count each, so the even offsets within
    # segments are not the even global indices
    assert not np.array_equal(kept, np.arange(fine.size) % 2 == 0)
    assert coarse[-1] == r_end and fine[-1] == r_end
    assert fine_w.sum() == pytest.approx(r_end, rel=1e-13)


def test_nested_node_mask_needs_a_coarser_level():
    with pytest.raises(ValueError):
        nested_node_mask(20.0, 4.0, 8, 0)


def test_radial_mesh_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        radial_simpson_mesh(0.0, 4.0, 8)


def segment_by_segment_mesh(r_end, r_core, nodes_per_unit, level):
    """The mesh built one Simpson segment at a time: the core, then
    octaves doubling up to r_end (the last one clipped)."""
    def even(n):
        n = max(2, int(n))
        return n + n % 2

    core_end = min(r_core, r_end)
    segments = [(0.0, core_end, even(np.ceil(core_end * nodes_per_unit)) * 2 ** level)]
    lo = core_end
    while lo < r_end * (1.0 - 1e-12):
        segments.append((lo, min(2.0 * lo, r_end), even(max(8, nodes_per_unit)) * 2 ** level))
        lo = segments[-1][1]
    nodes, weights = [], []
    for a, b, m in segments:
        h = (b - a) / m
        x = a + h * np.arange(m + 1)
        x[-1] = b
        w = np.where(np.arange(m + 1) % 2 == 1, 4.0, 2.0)
        w[0] = w[-1] = 1.0
        nodes.append(x)
        weights.append(w * (h / 3.0))
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("r_end, r_core, nodes_per_unit", [
    (8.0, 8.0, 16), (100.0, 13.7, 24), (65536.0, 5.2, 24), (5.4e8, 36.0, 12), (3.0, 8.0, 5),
])
def test_radial_mesh_matches_the_segment_by_segment_construction(r_end, r_core, nodes_per_unit):
    for level in range(4):
        got = radial_simpson_mesh(r_end, r_core, nodes_per_unit, level)
        want = segment_by_segment_mesh(r_end, r_core, nodes_per_unit, level)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
