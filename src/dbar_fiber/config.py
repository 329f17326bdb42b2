"""Run configuration: a flat, human-editable key = value text file.

Lines are ``key = value``; ``#`` starts a comment; blank lines are
ignored.  Lists are comma separated, ranges are ``start:stop:count``
(inclusive, linearly spaced), complex values use Python literal syntax
without spaces (``1+2j``).  The full schema is documented in the README;
unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .cauchy import QuadratureSpec
from .errors import ConfigError
from .fields import registered_form_names
from .report import DEFAULT_TOLERANCES

_KNOWN_KEYS = {
    "form",
    "form.m", "form.z_profile", "form.n", "form.k", "form.epsilon", "form.c_bound",
    "quad.r_max", "quad.n_theta", "quad.n_r", "quad.tol_abs", "quad.tol_tail", "quad.max_refinements",
    "grid.z", "grid.slot", "grid.w_re", "grid.w_im", "grid.w_fill",
    "grid.radii", "grid.ray",
    "tol.residual", "tol.oracle", "tol.glue", "tol.fd_h",
    "bounds.epsilons", "bounds.off_norms", "bounds.xs",
    "bundle.m", "bundle.samples", "bundle.perturb", "bundle.form",
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.strip())
    except ValueError:
        raise ConfigError(f"expected a complex literal like 1+2j, got {text!r}") from None
    if not cmath.isfinite(value):
        raise ConfigError(f"complex values must be finite, got {text!r}")
    return value


def _parse_float(text: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"numbers must be finite, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float_list(text: str) -> List[float]:
    items = [t for t in (piece.strip() for piece in text.split(",")) if t]
    if not items:
        return []
    return [_parse_float(t) for t in items]


def _parse_complex_list(text: str) -> List[complex]:
    items = [t for t in (piece.strip() for piece in text.split(",")) if t]
    return [_parse_complex(t) for t in items]


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected start:stop:count, got {text!r}")
    start, stop = _parse_float(parts[0]), _parse_float(parts[1])
    count = _parse_int(parts[2])
    if count < 1:
        raise ConfigError("grid counts must be >= 1")
    return np.linspace(start, stop, count)


@dataclass
class RunConfig:
    raw: Dict[str, str]
    path: str = ""

    def require(self, key: str) -> str:
        if key not in self.raw:
            raise ConfigError(f"missing required config key {key!r}")
        return self.raw[key]

    @property
    def form_name(self) -> str:
        name = self.require("form")
        if name not in registered_form_names():
            raise ConfigError(f"unknown form {name!r}; known: {registered_form_names()}")
        return name

    def form_params(self) -> Dict:
        params: Dict = {}
        if "form.m" in self.raw:
            params["m"] = _parse_int(self.raw["form.m"])
        if "form.z_profile" in self.raw:
            params["z_profile"] = _parse_bool(self.raw["form.z_profile"])
        if "form.n" in self.raw:
            params["n"] = _parse_int(self.raw["form.n"])
        if "form.k" in self.raw:
            params["k"] = _parse_int(self.raw["form.k"])
        for src, dst in (("form.epsilon", "epsilon"), ("form.c_bound", "c_bound")):
            if src in self.raw:
                params[dst] = _parse_float(self.raw[src])
        return params

    def quadrature_spec(self) -> QuadratureSpec:
        kwargs = {}
        for key, caster, name in (
            ("quad.r_max", _parse_float, "r_max"),
            ("quad.n_theta", _parse_int, "n_theta"),
            ("quad.n_r", _parse_int, "n_r"),
            ("quad.tol_abs", _parse_float, "tol_abs"),
            ("quad.tol_tail", _parse_float, "tol_tail"),
            ("quad.max_refinements", _parse_int, "max_refinements"),
        ):
            if key in self.raw:
                kwargs[name] = caster(self.raw[key])
        try:
            return QuadratureSpec(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"invalid quadrature spec: {exc}") from None

    def tolerances(self) -> Dict[str, float]:
        out = dict(DEFAULT_TOLERANCES)
        mapping = {
            "tol.residual": "tol_residual",
            "tol.oracle": "tol_oracle",
            "tol.glue": "tol_glue",
            "tol.fd_h": "fd_h",
        }
        for key, name in mapping.items():
            if key in self.raw:
                out[name] = _parse_float(self.raw[key])
                if out[name] <= 0.0:
                    raise ConfigError(f"{key} must be positive")
        return out

    def grid_z(self) -> np.ndarray:
        if "grid.z" not in self.raw or not self.raw["grid.z"].strip():
            return np.zeros(0, dtype=complex)
        return np.asarray(_parse_complex_list(self.raw["grid.z"]), dtype=complex)

    def grid_slot(self) -> int:
        return _parse_int(self.raw.get("grid.slot", "1"))

    def grid_w_points(self, k: int) -> np.ndarray:
        """Fiber points swept by the grid: the chosen slot runs over a
        Cartesian re/im mesh, the others stay at ``grid.w_fill``."""
        slot = self.grid_slot()
        if not 1 <= slot <= k:
            raise ConfigError(f"grid.slot {slot} out of range for k={k}")
        re = _parse_range(self.raw.get("grid.w_re", "-2:2:5"))
        im = _parse_range(self.raw.get("grid.w_im", "-2:2:5"))
        fill = _parse_complex_list(self.raw.get("grid.w_fill", "0"))
        if len(fill) == 1:
            fill = fill * k
        if len(fill) != k:
            raise ConfigError("grid.w_fill must list one value or k values")
        points = []
        for b in im:
            for a in re:
                w = np.asarray(fill, dtype=complex).copy()
                w[slot - 1] = a + 1j * b
                points.append(w)
        return np.asarray(points)

    def grid_radii(self) -> List[float]:
        radii = _parse_float_list(self.raw.get("grid.radii", "1,2,4,8"))
        if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("grid.radii must be a nonempty, strictly increasing list")
        return radii

    def grid_ray(self, k: int) -> np.ndarray:
        ray = np.asarray(_parse_complex_list(self.raw.get("grid.ray", "1")), dtype=complex)
        if ray.size == 1 and k > 1:
            ray = np.concatenate([ray, np.zeros(k - 1, dtype=complex)])
        if ray.size != k:
            raise ConfigError("grid.ray must list k components")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(ray))
        if norm == 0.0 or not math.isfinite(norm):
            raise ConfigError("grid.ray must be nonzero, with a finite norm")
        return ray / norm

    def bounds_epsilons(self) -> List[float]:
        eps = _parse_float_list(self.raw.get("bounds.epsilons", "0.5,1,2"))
        if not eps or any(e <= 0 or not math.isfinite(4.0 * math.pi * (1.0 + 1.0 / e)) for e in eps):
            raise ConfigError("bounds.epsilons must be positive numbers with a finite bound 4 pi (1 + 1/eps)")
        return eps

    def bounds_off_norms(self) -> List[float]:
        offs = _parse_float_list(self.raw.get("bounds.off_norms", "0"))
        if not offs or any(o < 0 for o in offs):
            raise ConfigError("bounds.off_norms must be a nonempty list of values >= 0")
        return offs

    def bounds_xs(self) -> List[float]:
        xs = _parse_float_list(self.raw.get("bounds.xs", "0,1,2,4,8,16,32"))
        if not xs or any(x < 0 for x in xs) or any(b <= a for a, b in zip(xs, xs[1:])):
            raise ConfigError("bounds.xs must be a nonempty, nonnegative and strictly increasing list")
        return xs

    def bundle_m(self) -> int:
        return _parse_int(self.raw.get("bundle.m", "1"))

    def bundle_samples(self) -> int:
        samples = _parse_int(self.raw.get("bundle.samples", "50"))
        if samples < 1:
            raise ConfigError("bundle.samples must be >= 1")
        return samples

    def bundle_perturb(self) -> float:
        return _parse_float(self.raw.get("bundle.perturb", "0"))

    def bundle_form_name(self) -> str:
        name = self.raw.get("bundle.form", "opm_metric_form")
        if name not in registered_form_names():
            raise ConfigError(f"unknown bundle form {name!r}")
        return name

    def echo(self) -> Dict[str, str]:
        return {key: self.raw[key] for key in sorted(self.raw)}


def parse_config_text(text: str, path: str = "") -> RunConfig:
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path or '<config>'}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path or '<config>'}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path or '<config>'}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return RunConfig(raw=raw, path=path)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text, path=path)
