"""Acceptance suite: one test per release criterion, each printing a
live pass/fail line.  Tolerances are pinned here and nowhere else."""

from dataclasses import replace

import numpy as np

from dbar_fiber.bundle import chart_consistency, make_opm_bundle
from dbar_fiber.cauchy import (
    QuadratureSpec,
    SliceField,
    cauchy_transform,
    f_profile,
    kernel_mass_bound,
)
from dbar_fiber.cli import main
from dbar_fiber.fields import DecayBudget, builtin_form, point
from dbar_fiber.solver import bm_reconstruct, residual, solve_point

SOLVE_SPEC = QuadratureSpec(n_r=24, n_theta=64, tol_abs=1e-8, tol_tail=1e-4)


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def disc_samples(count, radius, seed):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(size=count))
    theta = 2.0 * np.pi * rng.uniform(size=count)
    return r * np.exp(1j * theta)


def test_criterion_1_transform_oracles(capsys):
    """Transform values match the closed-form potentials at 20 points."""
    cases = [
        (
            SliceField(value=lambda z: np.exp(-np.abs(z) ** 2) + 0j, decay=DecayBudget(1.0, 1.0)),
            lambda w: 0.0 if w == 0 else -np.expm1(-abs(w) ** 2) / w,
            SOLVE_SPEC,
        ),
        (
            SliceField(value=lambda z: 1.0 / (1.0 + np.abs(z) ** 2) ** 2 + 0j, decay=DecayBudget(3.0, 1.5)),
            lambda w: np.conj(w) / (1.0 + abs(w) ** 2),
            QuadratureSpec(n_r=24, n_theta=64, tol_abs=1e-8, tol_tail=1e-6),
        ),
    ]
    centers = disc_samples(20, 4.0, seed=101)
    worst = 0.0
    for sl, oracle, spec in cases:
        for w in centers:
            res = cauchy_transform(sl, w, spec)
            gap = abs(res.value - oracle(complex(w)))
            allowed = max(1e-6, res.err_estimate)
            worst = max(worst, gap / allowed)
            if gap > allowed:
                break
    announce(capsys, 1, worst <= 1.0, f"worst gap/allowed = {worst:.3e} over 40 samples")


def test_criterion_2_kernel_mass(capsys):
    results = {eps: kernel_mass_bound(eps) for eps in (0.5, 1.0, 2.0)}
    under = all(km.numeric_value <= km.analytic_bound for km in results.values())
    rel = abs(results[1.0].numeric_value - 2.0 * np.pi ** 2) / (2.0 * np.pi ** 2)
    announce(
        capsys, 2, under and rel <= 1e-4,
        f"all under bound = {under}, rel gap to 2*pi^2 at eps=1 is {rel:.2e}",
    )


def test_criterion_3_profile_monotone_vanishing(capsys):
    spec = QuadratureSpec(n_r=12, n_theta=128, tol_abs=1e-6, tol_tail=2e-3, max_refinements=3)
    prof = f_profile(0.0, 1.0, [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0], spec)
    monotone = all(
        b.value <= a.value + 2.0 * max(a.err_estimate, b.err_estimate)
        for a, b in zip(prof, prof[1:])
    )
    ratio = prof[-1].value / prof[0].value
    far_offset = f_profile(1e8, 1.0, [0.0], spec)[0].value
    vanishes = far_offset <= 1e-2 * prof[0].value
    announce(
        capsys, 3, monotone and ratio <= 0.1 and vanishes,
        f"monotone = {monotone}, F(32)/F(0) = {ratio:.4f}, F at huge offset = {far_offset:.2e}",
    )


# rational_form decays slowly: at SOLVE_SPEC its radius is 32, and the
# truncation circle's boundary term puts every point on the noise floor.
RESIDUAL_FORMS = [
    ("gaussian_form", {}, 0, SOLVE_SPEC),
    ("rational_form", {}, 0, replace(SOLVE_SPEC, tol_tail=1e-8)),
    ("product_form_k2", {}, 0, SOLVE_SPEC),
    ("opm_metric_form", {"m": 1}, 1, SOLVE_SPEC),
]


def test_criterion_4_residuals(capsys):
    h = 1e-3
    worst = 0.0
    checked_pairs = 0
    ratio_ok = True
    for name, params, n, spec in RESIDUAL_FORMS:
        form = builtin_form(name, params)
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            z = 1.5 * (rng.standard_normal(form.n) + 1j * rng.standard_normal(form.n))
            w = 1.5 * (rng.standard_normal(form.k) + 1j * rng.standard_normal(form.k))
            p = point(z=z, w=w)
            rep_h = residual(form, p, spec, h=h)
            rep_h2 = residual(form, p, spec, h=h / 2.0)
            # the tiny step is a deliberate probe of the noise floor
            floor = residual(form, p, spec, h=1e-5)
            entries_h = rep_h.w_residuals + rep_h.z_residuals
            entries_h2 = rep_h2.w_residuals + rep_h2.z_residuals
            entries_floor = floor.w_residuals + floor.z_residuals
            worst = max(worst, max(entries_h), max(entries_h2))
            for r1, r2, fl in zip(entries_h, entries_h2, entries_floor):
                if r1 > 25.0 * fl:
                    checked_pairs += 1
                    ratio_ok = ratio_ok and (r2 <= 0.3 * r1)
    ok = worst <= 1e-4 and ratio_ok and checked_pairs > 0
    announce(
        capsys, 4, ok,
        f"max residual = {worst:.3e} (cap 1e-4), h/2 ratio ok = {ratio_ok} "
        f"on {checked_pairs} pairs above the noise floor",
    )


def test_criterion_5_slot_independence(capsys):
    form = builtin_form("product_form_k2")
    rng = np.random.default_rng(55)
    worst_gap = 0.0
    within_err = True
    for _ in range(10):
        w = 1.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        p = point(w=w)
        r1 = solve_point(form, p, 1, SOLVE_SPEC)
        r2 = solve_point(form, p, 2, SOLVE_SPEC)
        gap = abs(r1.value - r2.value)
        worst_gap = max(worst_gap, gap)
        within_err = within_err and gap <= r1.err_estimate + r2.err_estimate
    ok = within_err and worst_gap <= 1e-5
    announce(capsys, 5, ok, f"max slot gap = {worst_gap:.3e} (ceiling 1e-5), within errors = {within_err}")


def test_criterion_6_disc_reconstruction(capsys):
    gauss = builtin_form("gaussian_form").b_coeffs[0]
    p = point(w=(0.0,))
    gaps = []
    boundaries = []
    envelope_ok = True
    for radius in (2.0, 4.0, 8.0):
        rec = bm_reconstruct(gauss, p, 1, radius, SOLVE_SPEC)
        gaps.append(abs(rec.interior + rec.boundary - 1.0))
        boundaries.append(abs(rec.boundary))
        envelope_ok = envelope_ok and abs(rec.boundary) <= 1.0 / (1.0 + radius ** 2)
    decreasing = boundaries[0] > boundaries[1] > boundaries[2]
    ok = max(gaps) <= 1e-6 and decreasing and envelope_ok
    announce(
        capsys, 6, ok,
        f"max reconstruction gap = {max(gaps):.2e}, boundary decreasing = {decreasing}, "
        f"boundary under envelope = {envelope_ok}",
    )


def test_criterion_7_chart_gluing(capsys):
    bundle = make_opm_bundle(1)
    form = builtin_form("opm_metric_form", {"m": 1})
    glue = chart_consistency(bundle, {"0": form, "1": form}, SOLVE_SPEC, n_samples=50, seed=7)
    gaps_ok = all(row.gap <= row.err_sum + 1e-6 for row in glue.rows)
    oracle_ok = True
    for row in glue.rows:
        expected = form.primitive_at(row.point)
        from_gap = abs(row.value_from - expected)
        to_gap = abs(row.value_to - expected)
        oracle_ok = oracle_ok and from_gap <= row.err_sum + 1e-6 and to_gap <= row.err_sum + 1e-6
    spot = solve_point(form, point(z=(2.0,), w=(1.0,)), 1, SOLVE_SPEC)
    spot_ok = abs(spot.value - 5.0 / 6.0) <= spot.err_estimate + 1e-6
    ok = gaps_ok and oracle_ok and spot_ok
    announce(
        capsys, 7, ok,
        f"max overlap gap = {max(r.gap for r in glue.rows):.3e} over 50 points, oracle match = {oracle_ok}, "
        f"spot value gap = {abs(spot.value - 5.0 / 6.0):.2e}",
    )


def _random_bump_field(rng):
    mu = 0.8 * (rng.standard_normal() + 1j * rng.standard_normal())
    amp = rng.standard_normal() + 1j * rng.standard_normal()
    budget = DecayBudget(1.0, 6.0 * max(1.0, abs(amp)))
    return (
        SliceField(value=lambda z, m=mu, a=amp: a * np.exp(-np.abs(z - m) ** 2), decay=budget),
        mu,
        amp,
        budget,
    )


PROP_SPEC = QuadratureSpec(n_r=12, n_theta=32, tol_abs=1e-7, r_max=16.0, max_refinements=2)


def test_criterion_8_properties_and_determinism(capsys, tmp_path):
    rng = np.random.default_rng(88)
    worst = {"linearity": 0.0, "translation": 0.0, "conjugation": 0.0}
    ok = True
    for _ in range(100):
        f1, mu1, a1, budget = _random_bump_field(rng)
        f2, mu2, a2, _ = _random_bump_field(rng)
        c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = 1.2 * (rng.standard_normal() + 1j * rng.standard_normal())

        combo = SliceField(
            value=lambda z, g1=f1.value, g2=f2.value, s1=c1, s2=c2: s1 * g1(z) + s2 * g2(z),
            decay=DecayBudget(1.0, budget.c_bound * (abs(c1) + abs(c2) + 1.0)),
        )
        lhs = cauchy_transform(combo, w, PROP_SPEC)
        r1 = cauchy_transform(f1, w, PROP_SPEC)
        r2 = cauchy_transform(f2, w, PROP_SPEC)
        gap = abs(lhs.value - (c1 * r1.value + c2 * r2.value))
        allowed = lhs.err_estimate + abs(c1) * r1.err_estimate + abs(c2) * r2.err_estimate
        worst["linearity"] = max(worst["linearity"], gap)
        ok = ok and gap <= allowed and gap <= 1e-6

        shift = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        shifted = SliceField(value=lambda z, g=f1.value, c=shift: g(z + c), decay=budget)
        lhs2 = cauchy_transform(shifted, w, PROP_SPEC)
        rhs2 = cauchy_transform(f1, w + shift, PROP_SPEC)
        gap2 = abs(lhs2.value - rhs2.value)
        worst["translation"] = max(worst["translation"], gap2)
        ok = ok and gap2 <= lhs2.err_estimate + rhs2.err_estimate + 1e-8 and gap2 <= 1e-6

        mirrored = SliceField(value=lambda z, g=f1.value: np.conj(g(np.conj(z))), decay=budget)
        lhs3 = cauchy_transform(mirrored, w, PROP_SPEC)
        rhs3 = cauchy_transform(f1, np.conj(w), PROP_SPEC)
        gap3 = abs(lhs3.value - np.conj(rhs3.value))
        worst["conjugation"] = max(worst["conjugation"], gap3)
        ok = ok and gap3 <= lhs3.err_estimate + rhs3.err_estimate + 1e-8 and gap3 <= 1e-6

    zero = SliceField(value=lambda z: np.zeros(np.shape(z), complex), decay=DecayBudget(1.0, 1.0))
    zeros_exact = cauchy_transform(zero, 0.3 + 0.7j, PROP_SPEC).value == 0.0
    zero_form = builtin_form("zero_form", {"k": 2})
    zeros_exact = zeros_exact and solve_point(zero_form, point(w=(1.0, 1.0)), 1, SOLVE_SPEC).value == 0.0

    cfg = tmp_path / "determinism.cfg"
    cfg.write_text(
        "form = gaussian_form\nquad.n_r = 16\nquad.n_theta = 32\n"
        "quad.tol_abs = 1e-7\nquad.tol_tail = 1e-3\nquad.max_refinements = 2\n"
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = main(["verify", "--config", str(cfg), "--out", str(out1), "--quiet"])
    code2 = main(["verify", "--config", str(cfg), "--out", str(out2), "--quiet"])
    identical = (
        code1 == 0 and code2 == 0
        and (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    )

    ok = ok and zeros_exact and identical
    announce(
        capsys, 8, ok,
        "100 cases each: linearity/translation/conjugation worst gaps = "
        f"{worst['linearity']:.1e}/{worst['translation']:.1e}/{worst['conjugation']:.1e}, "
        f"zero paths exact = {zeros_exact}, byte-identical reports = {identical}",
    )
