import numpy as np
import pytest

from dbar_fiber import bundle as bundle_mod
from dbar_fiber import solver
from dbar_fiber.bundle import (
    ChartConsistencyReport,
    OverlapRow,
    chart_consistency,
    cocycle_roundtrip_error,
    global_solve_report,
    make_opm_bundle,
    perturb_form,
    pull_form,
    pullback_agreement_error,
)
from dbar_fiber.cauchy import CauchyResult, QuadratureSpec
from dbar_fiber.fields import builtin_form, point
from dbar_fiber.report import CHECKS, TOLERANCES, VerificationReport
from dbar_fiber.solver import solve_point

SPEC = QuadratureSpec(n_r=24, n_theta=64, tol_abs=1e-8, tol_tail=1e-4)


def overlap_points(bundle, count, seed=0):
    rng = np.random.default_rng(seed)
    return [bundle.overlap_sampler(rng) for _ in range(count)]


def test_transition_arithmetic():
    bundle = make_opm_bundle(1)
    mapped = bundle.transition("0", "1").apply(point(z=(2.0,), w=(6.0,)))
    assert mapped.z[0] == pytest.approx(0.5)
    assert mapped.w[0] == pytest.approx(3.0)


def test_product_bundle_transition_fixes_fiber():
    bundle = make_opm_bundle(0)
    p = point(z=(0.5 + 0.5j,), w=(1.0 - 2.0j,))
    mapped = bundle.transition("0", "1").apply(p)
    assert mapped.w[0] == p.w[0]
    assert mapped.z[0] == pytest.approx(1.0 / p.z[0])


@pytest.mark.parametrize("m", [0, 1, 2, -1])
def test_cocycle_roundtrip(m):
    bundle = make_opm_bundle(m)
    err = cocycle_roundtrip_error(bundle, overlap_points(bundle, 20, seed=m + 5))
    assert err <= 1e-12


def test_pull_form_identityish_for_product_bundle():
    # m = 0 and a base-independent form: the pulled fiber part is unchanged
    bundle = make_opm_bundle(0)
    gauss = builtin_form("gaussian_form")
    err = pullback_agreement_error(
        gauss, gauss, bundle.transition("0", "1"),
        [p for _, _, p in overlap_points(bundle, 10)],
    )
    assert err == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("m", [1, 2])
def test_pull_form_matches_direct_expression(m):
    bundle = make_opm_bundle(m)
    form = builtin_form("opm_metric_form", {"m": m})
    pts = [p for _, _, p in overlap_points(bundle, 15, seed=9)]
    err = pullback_agreement_error(form, form, bundle.transition("0", "1"), pts)
    assert err <= 1e-10


def test_pulled_primitive_composes():
    bundle = make_opm_bundle(1)
    form = builtin_form("opm_metric_form", {"m": 1})
    pulled = pull_form(form, bundle.transition("0", "1"))
    p = point(z=(2.0,), w=(1.0,))
    # the potential is a global function: pulling it back through the
    # transition reproduces its value in the source coordinates
    assert pulled.primitive_at(p) == pytest.approx(form.primitive_at(p), abs=1e-12)


def test_chart_consistency_zero_form():
    bundle = make_opm_bundle(1)
    zero = builtin_form("zero_form")
    rep = chart_consistency(bundle, {"0": zero, "1": zero}, SPEC, n_samples=4, seed=1)
    assert max(r.gap for r in rep.rows) == 0.0
    assert all(r.within_bound() for r in rep.rows)


def test_chart_consistency_product_bundle_base_independent_form():
    # m = 0 keeps the fiber coordinate, and a base-independent form gives
    # bitwise identical slice data in both charts: the gap is exactly zero
    bundle = make_opm_bundle(0)
    gauss = builtin_form("gaussian_form")
    rep = chart_consistency(bundle, {"0": gauss, "1": gauss}, SPEC, n_samples=4, seed=4)
    assert max(r.gap for r in rep.rows) == 0.0


def test_chart_consistency_opm():
    bundle = make_opm_bundle(1)
    form = builtin_form("opm_metric_form", {"m": 1})
    rep = chart_consistency(bundle, {"0": form, "1": form}, SPEC, n_samples=10, seed=2)
    assert all(r.within_bound() for r in rep.rows)
    assert max(r.gap for r in rep.rows) <= 1e-6


def test_chart_consistency_spot_value():
    bundle = make_opm_bundle(1)
    form = builtin_form("opm_metric_form", {"m": 1})
    p = point(z=(2.0,), w=(1.0,))
    res0 = solve_point(form, p, 1, SPEC)
    res1 = solve_point(form, bundle.transition("0", "1").apply(p), 1, SPEC)
    assert abs(res0.value - 5.0 / 6.0) <= res0.err_estimate + 1e-6
    assert abs(res1.value - 5.0 / 6.0) <= res1.err_estimate + 1e-6
    assert abs(res0.value - res1.value) <= res0.err_estimate + res1.err_estimate


def test_perturbed_chart_detected():
    bundle = make_opm_bundle(1)
    form = builtin_form("opm_metric_form", {"m": 1})
    rep = chart_consistency(
        bundle, {"0": form, "1": perturb_form(form, 0.02)}, SPEC, n_samples=6, seed=3
    )
    assert len(rep.failing_rows()) > 0


def test_nan_overlap_row_fails_and_is_listed():
    p = point(z=(2.0,), w=(1.0,))
    nan_res = CauchyResult(complex("nan"), 0.0, 0.0, 0.0, 1.0, 0, 32, 0)
    ok_res = CauchyResult(0.5 + 0.0j, 1e-9, 0.0, 0.0, 1.0, 0, 32, 0)
    rep = ChartConsistencyReport((OverlapRow("0", "1", p, p, nan_res, ok_res),))
    assert not rep.rows[0].within_bound()
    assert rep.failing_rows() == rep.rows


@pytest.mark.parametrize("nan_first", [True, False])
def test_nan_overlap_row_sets_max_gap_and_max_excess_in_any_row_order(nan_first):
    p = point(z=(2.0,), w=(1.0,))
    nan_res = CauchyResult(complex("nan"), 0.0, 0.0, 0.0, 1.0, 0, 32, 0)
    ok_res = CauchyResult(0.5 + 0.0j, 1e-9, 0.0, 0.0, 1.0, 0, 32, 0)
    off_res = CauchyResult(0.4 + 0.0j, 1e-9, 0.0, 0.0, 1.0, 0, 32, 0)
    rows = [OverlapRow("0", "1", p, p, nan_res, ok_res), OverlapRow("0", "1", p, p, off_res, ok_res)]
    rep = ChartConsistencyReport(tuple(rows if nan_first else rows[::-1]))
    assert np.isnan(rep.max_excess)
    assert rep.failing_rows() == rep.rows


def test_an_overlap_row_at_the_rounding_edge_fails_its_flag_and_its_record():
    # gap <= err_sum + tol_glue holds here, but gap - err_sum <= tol_glue,
    # the rule of both the row flag and the record, does not
    gap, err_sum = float.fromhex("0x1.0530f21d07373p-1"), float.fromhex("0x1.0530d08f17f5cp-1")
    assert gap <= err_sum + TOLERANCES["tol_glue"]
    p = point(z=(2.0,), w=(1.0,))
    row = OverlapRow("0", "1", p, p, CauchyResult(gap + 0j, err_sum, 0.0, 0.0, 1.0, 0, 32, 0),
                     CauchyResult(0j, 0.0, 0.0, 0.0, 1.0, 0, 32, 0))
    assert (row.gap, row.err_sum) == (gap, err_sum)
    assert not row.within_bound()
    bundle = make_opm_bundle(0)
    gauss = builtin_form("gaussian_form")
    report = global_solve_report(bundle, {"0": gauss, "1": gauss}, SPEC, ChartConsistencyReport((row,)), seed=0)
    rec = report.records[-1]
    assert (rec.name, rec.measured, rec.passed) == ("overlap_consistency", gap - err_sum, False)


def _envelope_records(monkeypatch, rows):
    monkeypatch.setattr(bundle_mod, "decay_profile", lambda *args: solver.DecayProfile(tuple(rows)))
    bundle = make_opm_bundle(0)
    gauss = builtin_form("gaussian_form")
    forms = {"0": gauss, "1": gauss}
    report = global_solve_report(bundle, forms, SPEC, chart_consistency(bundle, forms, SPEC, n_samples=1), seed=0)
    recs = [rec for rec in report.records if rec.name.startswith("fiber_decay_envelope_chart_")]
    assert [rec.name for rec in recs] == ["fiber_decay_envelope_chart_0", "fiber_decay_envelope_chart_1"]
    assert all(rec.bound == 0.0 and rec.passed is False for rec in recs)
    return recs


def test_a_profile_row_above_its_envelope_and_estimate_fails_its_record(monkeypatch):
    # 5e-10 above envelope + err_estimate fails the bound 0, with no slack
    row = solver.DecayProfileRow(radius=1.0, abs_value=0.5 + 1e-8 + 5e-10, err_estimate=1e-8, envelope=0.5)
    assert all(rec.measured > 0.0 for rec in _envelope_records(monkeypatch, [row]))


def test_a_nan_profile_row_after_the_first_fails_its_record(monkeypatch):
    first = solver.DecayProfileRow(radius=1.0, abs_value=0.1, err_estimate=1e-8, envelope=0.5)
    nan_row = solver.DecayProfileRow(radius=2.0, abs_value=float("nan"), err_estimate=1e-8, envelope=0.5)
    assert all(np.isnan(rec.measured) for rec in _envelope_records(monkeypatch, [first, nan_row]))


def test_a_record_passes_iff_measured_is_at_most_its_bound():
    report = VerificationReport(metadata={})
    assert report.add("boundary_decay", 0.0).passed is True
    assert report.add("boundary_decay", 5e-324).passed is False
    assert report.add("cocycle_roundtrip", float("nan")).passed is False
    rec = report.add("residual_chart_{}", 1e-5, chart="1", detail="three points")
    assert (rec.name, rec.claim, rec.bound, rec.passed, rec.detail) == (
        "residual_chart_1", CHECKS["residual_chart_{}"][0], TOLERANCES["tol_residual"], True, "three points")
    assert not report.overall_pass


def test_overlap_row_derives_values_from_its_solves():
    bundle = make_opm_bundle(1)
    form = builtin_form("opm_metric_form", {"m": 1})
    row = chart_consistency(bundle, {"0": form, "1": form}, SPEC, n_samples=1, seed=2).rows[0]
    res_from = solve_point(form, row.point, 1, SPEC)
    res_to = solve_point(form, row.mapped_point, 1, SPEC)
    assert (row.res_from, row.res_to) == (res_from, res_to)
    assert row.value_from == res_from.value and row.value_to == res_to.value
    assert row.err_sum == res_from.err_estimate + res_to.err_estimate


def test_global_solve_report_solves_only_residuals_and_decay_profiles(monkeypatch):
    # The oracle checks read the gluing check's solves instead of making
    # their own. Per chart: 3 residual stencils, each one stacked transform
    # of 4 * (n + k) shifted fields, and a decay profile of 4 solves.
    bundle = make_opm_bundle(1)
    form = builtin_form("opm_metric_form", {"m": 1})
    forms = {"0": form, "1": form}
    glue = chart_consistency(bundle, forms, SPEC, n_samples=3, seed=1)
    calls, stacks = [], []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_point(*args, **kwargs)

    def stacking(form_, p, points, *args):
        stacks.append((p, points))
        return stencil(form_, p, points, *args)

    stencil = solver._solve_stencil
    monkeypatch.setattr(solver, "solve_point", counting)
    monkeypatch.setattr(bundle_mod, "solve_point", counting)
    monkeypatch.setattr(solver, "_solve_stencil", stacking)
    report = global_solve_report(bundle, forms, SPEC, glue, seed=0)
    assert len(calls) == len(bundle.charts) * 4
    assert len(stacks) == len(bundle.charts) * 3
    assert all(len(points) == 4 * (form.n + form.k) for _, points in stacks)
    assert not any(np.array_equal(q.w, p.w) and np.array_equal(q.z, p.z) for p, points in stacks for q in points)
    assert {"oracle_gap_chart_0", "oracle_gap_chart_1"} <= {rec.name for rec in report.records}


def test_global_solve_report_passes_for_opm():
    bundle = make_opm_bundle(1)
    form = builtin_form("opm_metric_form", {"m": 1})
    forms = {"0": form, "1": form}
    glue = chart_consistency(bundle, forms, SPEC, n_samples=6, seed=1)
    report = global_solve_report(bundle, forms, SPEC, glue, seed=0)
    assert report.overall_pass
    names = {rec.name for rec in report.records}
    assert "cocycle_roundtrip" in names
    assert "pullback_agreement" in names
    assert "overlap_consistency" in names
    # A record passes iff measured <= bound, which a NaN measurement does not.
    for rec in report.records:
        assert rec.passed == (rec.measured <= rec.bound)
    assert report.add("cocycle_roundtrip", float("nan")).passed is False
    assert not report.overall_pass


def test_global_solve_report_fails_for_perturbed():
    bundle = make_opm_bundle(1)
    form = builtin_form("opm_metric_form", {"m": 1})
    forms = {"0": form, "1": perturb_form(form, 0.05)}
    glue = chart_consistency(bundle, forms, SPEC, n_samples=6, seed=1)
    report = global_solve_report(bundle, forms, SPEC, glue, seed=0)
    assert not report.overall_pass
    failing = [rec for rec in report.records if not rec.passed]
    assert any(rec.name == "overlap_consistency" for rec in failing)
    # offending points are listed in the record detail
    glue_rec = next(rec for rec in failing if rec.name == "overlap_consistency")
    assert "z=" in glue_rec.detail


def test_overlap_record_takes_its_bound_and_sample_count_from_the_gluing_check():
    # The record's bound is the gluing slack its rows are judged by, the
    # one in TOLERANCES, and its sample count is the gluing check's own.
    bundle = make_opm_bundle(1)
    form = builtin_form("opm_metric_form", {"m": 1})
    forms = {"0": form, "1": perturb_form(form, 0.05)}
    glue = chart_consistency(bundle, forms, SPEC, n_samples=4, seed=1)
    report = global_solve_report(bundle, forms, SPEC, glue, seed=0)
    rec = next(rec for rec in report.records if rec.name == "overlap_consistency")
    assert rec.bound == TOLERANCES["tol_glue"]
    assert rec.passed is False and glue.failing_rows()
    assert rec.passed == (rec.measured <= rec.bound)
    assert report.metadata["n_samples"] == len(glue.rows) == 4
