"""Forms with fiber-decay metadata and the operators acting on them.

A point carries base coordinates ``z`` (length ``n``, possibly empty) and
fiber coordinates ``w`` (length ``k >= 1``).  Coefficient functions are
plain callables ``(z, w) -> values`` written against numpy broadcasting:
the component index lives on the *last* axis of each argument and any
batch shape (for example a quadrature grid) rides on the leading axes of
``w``; ``z`` may carry leading axes that broadcast against them, as a
stack of residual stencil points does.  All evaluations are pure, so
everything here is safe to call concurrently.  Grid evaluators multiply
the complex grid by real factors only, left to right, the sign on a real
factor: ``-w * a / d`` is ``w * -a * (1.0 / d)``, the same bits but for
the sign of a zero (numpy divides by a real as a multiply by its
reciprocal), at half the cost per 16,384 samples on opm's b (214 -> 106 us).
Folding ``-a * (1.0 / d)`` first would round differently.

Built-in forms are registered by name (see ``builtin_form``); each one is
constructed from a closed-form potential so that solver output can be
compared against an exact answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import NonFiniteSampleError

BASE = "base"
FIBER = "fiber"

# Central-difference default: balances truncation against rounding at
# double precision.
FD_STEP_FACTOR = 1e-5


def _as_cvector(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=complex)).copy()
    if arr.ndim != 1:
        raise ValueError("coordinate vectors must be one dimensional")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BaseFiberPoint:
    """A point (z, w) with n base and k fiber coordinates."""

    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", _as_cvector(self.z) if np.size(self.z) else np.zeros(0, complex))
        object.__setattr__(self, "w", _as_cvector(self.w))
        if self.w.size < 1:
            raise ValueError("at least one fiber coordinate is required")
        if not (np.all(np.isfinite(self.z.view(float))) and np.all(np.isfinite(self.w.view(float)))):
            raise ValueError("point coordinates must be finite")

    @property
    def n(self) -> int:
        return self.z.size

    @property
    def k(self) -> int:
        return self.w.size

    def coord(self, kind: str, index: int) -> complex:
        vec = self.z if kind == BASE else self.w
        return complex(vec[index - 1])

    def with_coord(self, kind: str, index: int, value: complex) -> "BaseFiberPoint":
        vec = (self.z if kind == BASE else self.w).copy()
        vec[index - 1] = value
        if kind == BASE:
            return BaseFiberPoint(vec, self.w)
        return BaseFiberPoint(self.z, vec)


def point(z=(), w=(0.0,)) -> BaseFiberPoint:
    """Convenience constructor; ``z=()`` gives a pure-fiber point."""
    return BaseFiberPoint(np.asarray(z, dtype=complex).reshape(-1), np.asarray(w, dtype=complex).reshape(-1))


@dataclass(frozen=True)
class DecayBudget:
    """Declared fiber-decay data: exponent ``epsilon`` and constant ``c_bound``.

    The declaration is the caller's claim; ``decay_check`` validates it
    empirically on sampled rays.
    """

    epsilon: float
    c_bound: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.inf and 0.0 < self.c_bound < math.inf):
            raise ValueError("decay budget requires finite epsilon > 0 and c_bound > 0")


@dataclass(frozen=True)
class VariableId:
    """Selects one conjugate Wirtinger derivative: d/dzbar_a or d/dwbar_g.

    ``index`` is 1-based, matching the usual subscript convention.
    """

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in (BASE, FIBER):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.index < 1:
            raise ValueError("variable index is 1-based")


WirtingerMap = Mapping[tuple, Callable]


@dataclass(frozen=True)
class ScalarField:
    """A pure coefficient function with optional analytic extras.

    ``evaluate(z, w)`` follows the module broadcast convention.  The
    ``wirtinger`` map, when present, holds analytic conjugate derivatives
    keyed by ``(kind, index)``; entries missing from the map fall back to
    finite differences.  ``primitive`` is a closed-form potential whose
    conjugate derivatives reproduce this coefficient (the test oracle).
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    wirtinger: Optional[WirtingerMap] = None
    primitive: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def at(self, p: BaseFiberPoint) -> complex:
        with np.errstate(over="ignore", invalid="ignore"):
            value = complex(np.asarray(self.evaluate(p.z, p.w)))
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise NonFiniteSampleError("field evaluation returned a non-finite value")
        return value

    def analytic_wirtinger(self, p: BaseFiberPoint, v: VariableId):
        """Analytic derivative at ``p`` if provided, else ``None``; a
        non-finite one raises NonFiniteSampleError, as ``at`` does."""
        fn = (self.wirtinger or {}).get((v.kind, v.index))
        return None if fn is None else ScalarField(fn).at(p)


def zero_field() -> ScalarField:
    return ScalarField(
        evaluate=lambda z, w: np.zeros(np.shape(w[..., 0]), dtype=complex),
        wirtinger={},
        primitive=lambda z, w: np.zeros(np.shape(w[..., 0]), dtype=complex),
    )


@dataclass(frozen=True)
class ZeroOneForm:
    """Conjugate-differential form data: n base and k fiber coefficients."""

    n: int
    k: int
    a_coeffs: Sequence[ScalarField]
    b_coeffs: Sequence[ScalarField]
    decay: DecayBudget
    name: str = ""

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k >= 1 required")
        if len(self.a_coeffs) != self.n or len(self.b_coeffs) != self.k:
            raise ValueError("coefficient counts must match n and k")
        object.__setattr__(self, "a_coeffs", tuple(self.a_coeffs))
        object.__setattr__(self, "b_coeffs", tuple(self.b_coeffs))

    @property
    def primitive(self) -> Optional[Callable]:
        """The shared closed-form potential, when the form was built from one."""
        return self.b_coeffs[0].primitive

    def primitive_at(self, p: BaseFiberPoint) -> complex:
        fn = self.primitive
        if fn is None:
            raise ValueError(f"form {self.name or '<anonymous>'} carries no potential oracle")
        return complex(np.asarray(fn(p.z, p.w)))

    def terms(self) -> tuple:
        """``(variable, coefficient)`` for each conjugate variable of the
        form: ``(w_gamma, b_gamma)`` for gamma = 1..k, then ``(z_alpha,
        a_alpha)`` for alpha = 1..n."""
        fiber = [(VariableId(FIBER, gamma), b) for gamma, b in enumerate(self.b_coeffs, 1)]
        return tuple(fiber + [(VariableId(BASE, alpha), a) for alpha, a in enumerate(self.a_coeffs, 1)])


def _point_eval(f, p: BaseFiberPoint) -> complex:
    if isinstance(f, ScalarField):
        return f.at(p)
    return complex(f(p))


def wirtinger_fd(f, p: BaseFiberPoint, v: VariableId, h: Optional[float] = None) -> complex:
    """Central-difference conjugate Wirtinger derivative of ``f`` at ``p``.

    ``f`` may be a :class:`ScalarField` or any callable taking a point.
    Accuracy is O(h^2) for three-times differentiable fields.
    """
    if h is None:
        h = FD_STEP_FACTOR * max(1.0, abs(p.coord(v.kind, v.index)))
    if h <= 0.0:
        raise ValueError("step must be positive")
    return _fd_quotient([_point_eval(f, q) for q in _fd_stencil(p, v, h)], h)


def _fd_stencil(p: BaseFiberPoint, v: VariableId, h: float) -> tuple:
    """The four points of the central difference: ``p`` with coordinate
    ``v`` moved by h, -h, ih and -ih."""
    c = p.coord(v.kind, v.index)
    return tuple(p.with_coord(v.kind, v.index, c + off) for off in (h, -h, 1j * h, -1j * h))


def _fd_quotient(samples, h: float) -> complex:
    """The conjugate Wirtinger difference quotient of the values at the
    four points of :func:`_fd_stencil`, in its order."""
    if not all(math.isfinite(s.real) and math.isfinite(s.imag) for s in samples):
        raise NonFiniteSampleError("non-finite sample in derivative stencil")
    d_re = (samples[0] - samples[1]) / (2.0 * h)
    d_im = (samples[2] - samples[3]) / (2.0 * h)
    return 0.5 * (d_re + 1j * d_im)


def compatibility_residual(form: ZeroOneForm, p: BaseFiberPoint, h: Optional[float] = None) -> float:
    """Largest violation of the cross-derivative identities a closed form obeys.

    Checks, over every pair of conjugate variables u, v with coefficients
    c_u, c_v (see :meth:`ZeroOneForm.terms`), that ``dc_u/dvbar ==
    dc_v/dubar``: base/base, base/fiber and fiber/fiber pairs alike.  Zero
    (up to O(h^2) when finite differences are used) iff the form is closed
    at ``p``.
    """

    def d(fld, v):
        value = fld.analytic_wirtinger(p, v)
        return wirtinger_fd(fld, p, v, h) if value is None else value

    return max([0.0] + [abs(d(c_u, v) - d(c_v, u)) for (u, c_u), (v, c_v) in combinations(form.terms(), 2)])


def fiber_decay_denominator(w: np.ndarray, epsilon: float):
    """``1 + sum_d |w_d|**(1+eps)`` with the batch shape of ``w``, or inf."""
    with np.errstate(over="ignore"):
        return 1.0 + np.sum(np.abs(w) ** (1.0 + epsilon), axis=-1)


@dataclass(frozen=True)
class DecayCheckReport:
    b_ok: bool
    a_ok: bool
    max_b_ratio: float

    @property
    def ok(self) -> bool:
        return self.b_ok and self.a_ok


def decay_check(
    form: ZeroOneForm,
    z_fixed,
    radii: Sequence[float],
    directions: Sequence,
) -> DecayCheckReport:
    """Empirically validate the declared decay budget along fiber rays.

    For every sampled ``w = r * direction`` the b-coefficients must stay
    inside the declared envelope (ratio <= 1) and the a-coefficient moduli
    must decrease toward zero as ``r`` grows.  No rate is imposed on the
    a-part; only the trend is checked.
    """
    radii = [float(r) for r in radii]
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    z = np.asarray(z_fixed, dtype=complex).reshape(-1)
    eps, c = form.decay.epsilon, form.decay.c_bound
    max_ratio = 0.0
    a_ok = True
    for direction in directions:
        dvec = np.asarray(direction, dtype=complex).reshape(-1)
        if dvec.size != form.k:
            raise ValueError("direction length must equal k")
        a_trace = []
        for r in radii:
            p = BaseFiberPoint(z, r * dvec)
            denom = float(fiber_decay_denominator(p.w, eps))
            # a 0 sample reads 0 under an infinite denominator; np.max keeps a NaN
            ratios = [v * denom / c if v else 0.0 for v in (abs(b.at(p)) for b in form.b_coeffs)]
            max_ratio = float(np.max([max_ratio] + ratios))
            a_vals = tuple(abs(a.at(p)) for a in form.a_coeffs)
            a_trace.append(a_vals)
        for alpha in range(form.n):
            trace = [vals[alpha] for vals in a_trace]
            # Only the limit matters, so tolerate a bump at small radii:
            # past its maximum the trace must fall monotonically toward 0.
            peak = max(range(len(trace)), key=trace.__getitem__)
            tail = trace[peak:]
            nonincreasing = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
            vanishing = trace[-1] <= max(0.5 * trace[peak], 1e-15)
            if not (nonincreasing and vanishing):
                a_ok = False
    return DecayCheckReport(max_ratio <= 1.0, a_ok, max_ratio)


# ---------------------------------------------------------------------------
# Built-in forms.  Each is exact-differential by construction, with the
# potential attached to every coefficient.
# ---------------------------------------------------------------------------


def _gaussian_potential_fiber(ww):
    # (1 - exp(-|w|^2)) / w, extended by 0 where |w|^2 underflows (removable; the quotient may overflow)
    t = np.abs(ww) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = -np.expm1(-t) / ww
    return np.where(t > 0.0, raw, 0.0 + 0.0j)


def _gaussian_form(params) -> ZeroOneForm:
    z_profile = bool(params.get("z_profile", False))
    eps = float(params.get("epsilon", 1.0))
    c = float(params.get("c_bound", 1.0))

    if not z_profile:
        prim = lambda z, w: _gaussian_potential_fiber(w[..., 0])
        b = ScalarField(
            evaluate=lambda z, w: np.exp(-np.abs(w[..., 0]) ** 2).astype(complex),
            wirtinger={
                (FIBER, 1): lambda z, w: w[..., 0] * -np.exp(-np.abs(w[..., 0]) ** 2),
            },
            primitive=prim,
        )
        return ZeroOneForm(0, 1, (), (b,), DecayBudget(eps, c), name="gaussian_form")

    # Potential p(z) * phi0(w) with p = 1/(1+|z|^2); the base part is
    # nontrivial, which exercises the mixed compatibility identities.
    def p_of(z):
        return 1.0 / (1.0 + np.abs(z[..., 0]) ** 2)

    prim = lambda z, w: p_of(z) * _gaussian_potential_fiber(w[..., 0])
    b = ScalarField(
        evaluate=lambda z, w: (p_of(z) * np.exp(-np.abs(w[..., 0]) ** 2)).astype(complex),
        wirtinger={
            (FIBER, 1): lambda z, w: -p_of(z) * w[..., 0] * np.exp(-np.abs(w[..., 0]) ** 2),
            (BASE, 1): lambda z, w: -z[..., 0] * p_of(z) ** 2 * np.exp(-np.abs(w[..., 0]) ** 2),
        },
        primitive=prim,
    )
    a = ScalarField(
        evaluate=lambda z, w: -z[..., 0] * p_of(z) ** 2 * _gaussian_potential_fiber(w[..., 0]),
        wirtinger={
            (FIBER, 1): lambda z, w: -z[..., 0] * p_of(z) ** 2 * np.exp(-np.abs(w[..., 0]) ** 2),
            (BASE, 1): lambda z, w: 2.0 * z[..., 0] ** 2 * p_of(z) ** 3 * _gaussian_potential_fiber(w[..., 0]),
        },
        primitive=prim,
    )
    return ZeroOneForm(1, 1, (a,), (b,), DecayBudget(eps, c), name="gaussian_form")


def _rational_form(params) -> ZeroOneForm:
    eps = float(params.get("epsilon", 3.0))
    c = float(params.get("c_bound", 1.5))
    prim = lambda z, w: np.conj(w[..., 0]) / (1.0 + np.abs(w[..., 0]) ** 2)
    b = ScalarField(
        evaluate=lambda z, w: (1.0 / (1.0 + np.abs(w[..., 0]) ** 2) ** 2).astype(complex),
        wirtinger={
            (FIBER, 1): lambda z, w: -2.0 * w[..., 0] * (1.0 / (1.0 + np.abs(w[..., 0]) ** 2) ** 3),
        },
        primitive=prim,
    )
    return ZeroOneForm(0, 1, (), (b,), DecayBudget(eps, c), name="rational_form")


def _product_form_k2(params) -> ZeroOneForm:
    eps = float(params.get("epsilon", 1.0))
    c = float(params.get("c_bound", 2.0))

    def t(w, i):
        return np.abs(w[..., i]) ** 2

    prim = lambda z, w: (1.0 / ((1.0 + t(w, 0)) * (1.0 + t(w, 1)))).astype(complex)

    def b_coeff(i):
        j = 1 - i

        def ev(z, w):
            return w[..., i] * (-1.0 / ((1.0 + t(w, i)) ** 2 * (1.0 + t(w, j))))

        wmap = {
            (FIBER, i + 1): lambda z, w: 2.0 * w[..., i] ** 2 * (1.0 / ((1.0 + t(w, i)) ** 3 * (1.0 + t(w, j)))),
            (FIBER, j + 1): lambda z, w: w[..., 0] * w[..., 1] * (1.0 / ((1.0 + t(w, 0)) ** 2 * (1.0 + t(w, 1)) ** 2)),
        }
        return ScalarField(evaluate=ev, wirtinger=wmap, primitive=prim)

    return ZeroOneForm(0, 2, (), (b_coeff(0), b_coeff(1)), DecayBudget(eps, c), name="product_form_k2")


def _opm_metric_form(params) -> ZeroOneForm:
    m = int(params.get("m", 1))
    eps = float(params.get("epsilon", 1.0))
    c = float(params.get("c_bound", 2.0))

    def pieces(z, w):
        s = np.abs(z[..., 0]) ** 2
        t = np.abs(w[..., 0]) ** 2
        a_pow = (1.0 + s) ** m
        return s, t, a_pow

    def prim(z, w):
        s, t, a_pow = pieces(z, w)
        return (a_pow / (a_pow + t)).astype(complex)

    def a_eval(z, w):
        s, t, a_pow = pieces(z, w)
        return m * z[..., 0] * (1.0 + s) ** (m - 1) * t / (a_pow + t) ** 2

    def b_eval(z, w):
        s, t, a_pow = pieces(z, w)
        return w[..., 0] * -a_pow * (1.0 / (a_pow + t) ** 2)

    def b_dwbar(z, w):
        s, t, a_pow = pieces(z, w)
        return 2.0 * w[..., 0] ** 2 * a_pow * (1.0 / (a_pow + t) ** 3)

    def cross(z, w):
        # d a1 / dwbar == d b1 / dzbar; one function serves both entries.
        s, t, a_pow = pieces(z, w)
        return m * z[..., 0] * w[..., 0] * (1.0 + s) ** (m - 1) * (a_pow - t) / (a_pow + t) ** 3

    def a_dzbar(z, w):
        s, t, a_pow = pieces(z, w)
        return (
            m * z[..., 0] ** 2 * t * (1.0 + s) ** (m - 2)
            * ((m - 1) * (a_pow + t) - 2.0 * m * a_pow)
            / (a_pow + t) ** 3
        )

    a1 = ScalarField(
        evaluate=a_eval,
        wirtinger={
            (FIBER, 1): cross,
            (BASE, 1): a_dzbar,
        },
        primitive=prim,
    )
    b1 = ScalarField(
        evaluate=b_eval,
        wirtinger={
            (FIBER, 1): b_dwbar,
            (BASE, 1): cross,
        },
        primitive=prim,
    )
    return ZeroOneForm(1, 1, (a1,), (b1,), DecayBudget(eps, c), name="opm_metric_form")


def _zero_form(params) -> ZeroOneForm:
    n = int(params.get("n", 0))
    k = int(params.get("k", 1))
    eps = float(params.get("epsilon", 1.0))
    c = float(params.get("c_bound", 1.0))
    return ZeroOneForm(
        n, k,
        tuple(zero_field() for _ in range(n)),
        tuple(zero_field() for _ in range(k)),
        DecayBudget(eps, c),
        name="zero_form",
    )


_REGISTRY = {
    "zero_form": _zero_form,
    "gaussian_form": _gaussian_form,
    "rational_form": _rational_form,
    "product_form_k2": _product_form_k2,
    "opm_metric_form": _opm_metric_form,
}


def builtin_form(name: str, params: Optional[Mapping] = None) -> ZeroOneForm:
    """Construct a registered test form.

    Registry names and their parameters:

    * ``zero_form``: ``n`` (default 0), ``k`` (default 1)
    * ``gaussian_form``: ``z_profile`` (default false) switches on a
      rational base profile with a nontrivial base coefficient
    * ``rational_form``: no parameters
    * ``product_form_k2``: no parameters
    * ``opm_metric_form``: twist degree ``m`` (default 1)

    All accept ``epsilon`` and ``c_bound`` overrides for the declared decay
    budget; the defaults are validated by the test suite on the sampled
    compacts they are used on.
    """
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown form name {name!r}; known: {sorted(_REGISTRY)}") from None
    return builder(dict(params or {}))


def registered_form_names():
    return sorted(_REGISTRY)
