"""Explicit-atlas fiber bundles and the global-solution consistency checks.

A bundle here is a finite list of charts plus transition maps between
them.  Transitions split into a base map ``z' = f(z)`` (independent of the
fiber) and a fiberwise biholomorphism ``w' = g(z, w)``; the conjugated
Jacobians of both are supplied analytically because they enter coefficient
transforms where differencing would inject avoidable noise.

The twisted line family over the Riemann sphere (two charts glued over
``z != 0`` by ``z' = 1/z``, ``w' = w * z**(-m)``) is built in and serves as
the concrete demo bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Tuple

import numpy as np

from .cauchy import CauchyResult, QuadratureSpec
from .fields import BaseFiberPoint, ScalarField, ZeroOneForm
from .report import TOLERANCES, VerificationReport
from .solver import decay_profile, oracle_excess, residual, solve_point

__all__ = [
    "Chart",
    "TransitionMap",
    "FiberBundleModel",
    "make_opm_bundle",
    "pull_form",
    "perturb_form",
    "cocycle_roundtrip_error",
    "pullback_agreement_error",
    "chart_consistency",
    "global_solve_report",
]


@dataclass(frozen=True)
class Chart:
    chart_id: str
    k: int
    sample_base: Callable[[np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class TransitionMap:
    """Coordinate change between two charts.

    ``f`` acts on base coordinates only; ``g`` acts on (z, w) and is a
    fiberwise bijection.  Jacobian conventions (component on the last axis,
    matrix axes appended): ``g_wbar_jacobian[..., g, d]`` is the conjugate
    fiber Jacobian entry (gamma, delta), ``f_zbar_jacobian[..., a, b]`` the
    conjugate base Jacobian, ``g_zbar_jacobian[..., g, b]`` the mixed block.
    """

    from_chart: str
    to_chart: str
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g_wbar_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f_zbar_jacobian: Callable[[np.ndarray], np.ndarray]
    g_zbar_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def apply(self, p: BaseFiberPoint) -> BaseFiberPoint:
        return BaseFiberPoint(np.asarray(self.f(p.z)), np.asarray(self.g(p.z, p.w)))


@dataclass(frozen=True)
class FiberBundleModel:
    charts: Tuple[Chart, ...]
    transitions: Tuple[TransitionMap, ...]
    overlap_sampler: Callable[[np.random.Generator], Tuple[str, str, BaseFiberPoint]]

    def transition(self, from_chart: str, to_chart: str) -> TransitionMap:
        for t in self.transitions:
            if t.from_chart == from_chart and t.to_chart == to_chart:
                return t
        raise KeyError(f"no transition {from_chart!r} -> {to_chart!r}")


def make_opm_bundle(m: int) -> FiberBundleModel:
    """Two-chart twisted line bundle with transition ``(1/z, w * z**(-m))``.

    ``m = 0`` is the product bundle.  The transition is its own inverse
    under swapping charts, and the conjugate fiber Jacobian is the 1x1
    matrix ``conj(z**(-m))``.
    """
    m = int(m)

    def f(z):
        return 1.0 / z

    def g(z, w):
        return w * z[..., :1] ** (-m)

    def f_zbar_jac(z):
        return np.conj(-z[..., 0] ** (-2))[..., None, None]

    def g_wbar_jac(z, w):
        return np.conj(z[..., 0] ** (-m))[..., None, None]

    def g_zbar_jac(z, w):
        return np.conj(-m * w[..., 0] * z[..., 0] ** (-m - 1))[..., None, None]

    def sample_base(rng):
        # Stay clear of both chart degeneracies: base on the annulus
        # 0.5 <= |z| <= 2.
        return np.array(
            [np.exp(rng.uniform(np.log(0.5), np.log(2.0))) * np.exp(2j * np.pi * rng.uniform())],
            dtype=complex,
        )

    def chart(cid):
        return Chart(chart_id=cid, k=1, sample_base=sample_base)

    def transition(src, dst):
        return TransitionMap(src, dst, f, g, g_wbar_jac, f_zbar_jac, g_zbar_jac)

    def overlap_sampler(rng):
        # base on the annulus, fiber on a log-spaced ball
        z = sample_base(rng)
        w = np.array(
            [10.0 ** rng.uniform(-1.0, 0.3) * np.exp(2j * np.pi * rng.uniform())],
            dtype=complex,
        )
        return "0", "1", BaseFiberPoint(z, w)

    return FiberBundleModel(
        charts=(chart("0"), chart("1")),
        transitions=(transition("0", "1"), transition("1", "0")),
        overlap_sampler=overlap_sampler,
    )


def pull_form(form_in_chart_to: ZeroOneForm, t: TransitionMap) -> ZeroOneForm:
    """Express a form given in the target chart in source-chart coordinates.

    The conjugate differentials transform through the conjugated Jacobians,
    so the fiber part picks up the conjugate fiber Jacobian while the base
    part collects contributions from both the base map and the fiber map.
    The declared decay budget is carried over unchanged; it remains the
    caller's claim on the compacts actually sampled.
    """
    src = form_in_chart_to
    n, k = src.n, src.k

    def mapped(z, w):
        return np.asarray(t.f(z)), np.asarray(t.g(z, w))

    def b_coeff(delta):
        def ev(z, w):
            z2, w2 = mapped(z, w)
            jac = np.asarray(t.g_wbar_jacobian(z, w))
            total = 0.0 + 0.0j
            for gamma in range(k):
                total = total + src.b_coeffs[gamma].evaluate(z2, w2) * jac[..., gamma, delta]
            return total

        prim = None
        if src.primitive is not None:
            prim = lambda z, w, _p=src.primitive: _p(*mapped(z, w))
        return ScalarField(evaluate=ev, primitive=prim)

    def a_coeff(beta):
        def ev(z, w):
            z2, w2 = mapped(z, w)
            jf = np.asarray(t.f_zbar_jacobian(z))
            jg = np.asarray(t.g_zbar_jacobian(z, w))
            total = 0.0 + 0.0j
            for alpha in range(n):
                total = total + src.a_coeffs[alpha].evaluate(z2, w2) * jf[..., alpha, beta]
            for gamma in range(k):
                total = total + src.b_coeffs[gamma].evaluate(z2, w2) * jg[..., gamma, beta]
            return total

        return ScalarField(evaluate=ev)

    return ZeroOneForm(
        n, k,
        tuple(a_coeff(beta) for beta in range(n)),
        tuple(b_coeff(delta) for delta in range(k)),
        src.decay,
        name=f"pulled({src.name})" if src.name else "pulled",
    )


def perturb_form(form: ZeroOneForm, factor: float) -> ZeroOneForm:
    """Scale the fiber coefficients by (1 + factor), breaking global gluing.

    Used to demonstrate that the consistency checks flag inconsistent
    per-chart data.  The potential oracle is dropped since it no longer
    matches, and so are the analytic derivatives, which no bundle check reads.
    """
    scale = 1.0 + factor
    return ZeroOneForm(
        form.n, form.k,
        form.a_coeffs,
        tuple(ScalarField(lambda z, w, _ev=b.evaluate: scale * _ev(z, w)) for b in form.b_coeffs),
        form.decay,
        name=f"{form.name}_perturbed" if form.name else "perturbed",
    )


def cocycle_roundtrip_error(bundle: FiberBundleModel, points: Sequence[Tuple[str, str, BaseFiberPoint]]) -> float:
    """Worst relative error of transition-then-inverse over the samples."""
    worst = 0.0
    for from_id, to_id, p in points:
        t = bundle.transition(from_id, to_id)
        back = bundle.transition(to_id, from_id).apply(t.apply(p))
        scale = max(1.0, float(np.max(np.abs(p.w))), float(np.max(np.abs(p.z))) if p.n else 1.0)
        gap = max(
            float(np.max(np.abs(back.w - p.w))),
            float(np.max(np.abs(back.z - p.z))) if p.n else 0.0,
        )
        worst = max(worst, gap / scale)
    return worst


def pullback_agreement_error(
    form_from: ZeroOneForm,
    form_to: ZeroOneForm,
    t: TransitionMap,
    points: Sequence[BaseFiberPoint],
) -> float:
    """Largest coefficient gap between the source-chart form and the pulled
    target-chart form over the samples (pure arithmetic, no quadrature)."""
    pairs = list(zip(form_from.terms(), pull_form(form_to, t).terms()))
    return max([0.0] + [abs(direct.at(p) - via.at(p)) for p in points for (_, direct), (_, via) in pairs])


@dataclass(frozen=True)
class OverlapRow:
    from_chart: str
    to_chart: str
    point: BaseFiberPoint
    mapped_point: BaseFiberPoint
    res_from: CauchyResult
    res_to: CauchyResult

    @property
    def value_from(self) -> complex:
        return self.res_from.value

    @property
    def value_to(self) -> complex:
        return self.res_to.value

    @property
    def err_sum(self) -> float:
        return self.res_from.err_estimate + self.res_to.err_estimate

    @property
    def gap(self) -> float:
        return abs(self.value_from - self.value_to)

    def within_bound(self) -> bool:
        """The gluing check's rule on this row; a NaN gap fails it."""
        return self.gap - self.err_sum <= TOLERANCES["tol_glue"]


@dataclass(frozen=True)
class ChartConsistencyReport:
    rows: Tuple[OverlapRow, ...]

    # np.max, unlike max, returns NaN when any row's gap is NaN, whatever
    # the row order, so a NaN row shows in the measured value it fails.
    @property
    def max_excess(self) -> float:
        return float(np.max([r.gap - r.err_sum for r in self.rows])) if self.rows else 0.0

    def failing_rows(self):
        return tuple(r for r in self.rows if not r.within_bound())


def chart_consistency(
    bundle: FiberBundleModel,
    forms: Mapping[str, ZeroOneForm],
    spec: QuadratureSpec,
    n_samples: int = 50,
    seed: int = 0,
) -> ChartConsistencyReport:
    """Solve on both sides of sampled overlap points and compare.

    The per-chart solutions express one global function, so the values must
    agree within the two quadrature error estimates plus ``TOLERANCES["tol_glue"]``.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_samples):
        from_id, to_id, p = bundle.overlap_sampler(rng)
        mapped = bundle.transition(from_id, to_id).apply(p)
        rows.append(
            OverlapRow(
                from_id, to_id, p, mapped,
                solve_point(forms[from_id], p, 1, spec),
                solve_point(forms[to_id], mapped, 1, spec),
            )
        )
    return ChartConsistencyReport(tuple(rows))


def global_solve_report(
    bundle: FiberBundleModel,
    forms: Mapping[str, ZeroOneForm],
    spec: QuadratureSpec,
    glue: ChartConsistencyReport,
    seed: int = 0,
) -> VerificationReport:
    """Aggregate residual, decay, pullback and gluing checks for a bundle.

    ``glue`` is the ``chart_consistency`` report of the same bundle, forms
    and spec; the gluing and oracle checks read its overlap solves and its
    sample count.  Every claim and bound comes from ``report.CHECKS``.
    """
    rng = np.random.default_rng(seed)
    report = VerificationReport(metadata={"seed": seed, "n_samples": len(glue.rows)})

    overlap_points = [bundle.overlap_sampler(rng) for _ in range(min(len(glue.rows), 16))]
    report.add("cocycle_roundtrip", cocycle_roundtrip_error(bundle, overlap_points))
    report.add("pullback_agreement", max([0.0] + [
        pullback_agreement_error(forms[from_id], forms[to_id], bundle.transition(from_id, to_id), [p])
        for from_id, to_id, p in overlap_points
    ]))

    def fiber_point(chart):
        z = chart.sample_base(rng)
        w = np.zeros(chart.k, dtype=complex)
        w[0] = 10.0 ** rng.uniform(-0.5, 0.3) * np.exp(2j * np.pi * rng.uniform())
        return BaseFiberPoint(z, w)

    for chart in bundle.charts:
        form = forms[chart.chart_id]
        points = [fiber_point(chart) for _ in range(3)]
        report.add("residual_chart_{}", max(residual(form, p, spec).max_residual for p in points), chart.chart_id)

        ray = np.zeros(chart.k, dtype=complex)
        ray[0] = 1.0
        prof = decay_profile(form, chart.sample_base(rng), ray, [1.0, 2.0, 4.0, 8.0], spec)
        report.add("fiber_decay_envelope_chart_{}",
                   float(np.max([r.abs_value - r.envelope - r.err_estimate for r in prof.rows])), chart.chart_id)
        vanish = prof.rows[-1].abs_value / max(prof.rows[0].abs_value, 1e-300)
        zero_start = prof.rows[0].abs_value <= max(1e-12, spec.tol_abs)
        report.add("fiber_decay_vanishing_chart_{}", 0.0 if zero_start else vanish, chart.chart_id)

        if form.primitive is not None:
            solved = [(r.point, r.res_from) for r in glue.rows if r.from_chart == chart.chart_id]
            solved += [(r.mapped_point, r.res_to) for r in glue.rows if r.to_chart == chart.chart_id]
            report.add("oracle_gap_chart_{}", oracle_excess(form, solved), chart.chart_id)

    report.add("overlap_consistency", glue.max_excess, detail="; ".join(
        f"z={row.point.z.tolist()}, w={row.point.w.tolist()}, gap={row.gap:.3e}"
        for row in glue.failing_rows()[:3]
    ))
    return report
