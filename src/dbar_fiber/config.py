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

# Cap on the grid.w_re and grid.w_im counts and their product (one solve a point)
_GRID_MAX = 10 ** 6

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
    return [_parse_float(t) for t in map(str.strip, text.split(",")) if t]


def _parse_complex_list(text: str) -> List[complex]:
    return [_parse_complex(t) for t in map(str.strip, text.split(",")) if t]


def _parse_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected start:stop:count, got {text!r}")
    start, stop = _parse_float(parts[0]), _parse_float(parts[1])
    count = _parse_int(parts[2])
    if count < 1:
        raise ConfigError("grid counts must be >= 1")
    return start, stop, count


# Every config key and the parser of its value; any other key is rejected.
_KEYS = {
    "form": str,
    "form.m": _parse_int, "form.z_profile": _parse_bool, "form.n": _parse_int, "form.k": _parse_int,
    "form.epsilon": _parse_float, "form.c_bound": _parse_float,
    "quad.r_max": _parse_float, "quad.n_theta": _parse_int, "quad.n_r": _parse_int,
    "quad.tol_abs": _parse_float, "quad.tol_tail": _parse_float, "quad.max_refinements": _parse_int,
    "grid.z": _parse_complex_list, "grid.slot": _parse_int, "grid.w_re": _parse_range, "grid.w_im": _parse_range,
    "grid.w_fill": _parse_complex_list, "grid.radii": _parse_float_list, "grid.ray": _parse_complex_list,
    "bounds.epsilons": _parse_float_list, "bounds.off_norms": _parse_float_list, "bounds.xs": _parse_float_list,
    "bundle.m": _parse_int, "bundle.samples": _parse_int, "bundle.perturb": _parse_float, "bundle.form": str,
}


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

    def _get(self, key: str, default: str):
        return _KEYS[key](self.raw.get(key, default))

    def _section(self, prefix: str):
        """``(suffix, value)`` of each ``prefix`` key the config sets, parsed lazily in table order."""
        for key, parse in _KEYS.items():
            if key.startswith(prefix) and key in self.raw:
                yield key[len(prefix):], parse(self.raw[key])

    def _increasing(self, key: str, default: str) -> List[float]:
        values = self._get(key, default)
        if not values or values[0] < 0 or any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"{key} must be a nonempty, nonnegative and strictly increasing list")
        return values

    def form_params(self) -> Dict:
        return dict(self._section("form."))

    def quadrature_spec(self) -> QuadratureSpec:
        try:
            return QuadratureSpec(**dict(self._section("quad.")))
        except ValueError as exc:
            raise ConfigError(f"invalid quadrature spec: {exc}") from None

    def grid_z(self) -> np.ndarray:
        return np.asarray(self._get("grid.z", ""), dtype=complex)

    def grid_slot(self) -> int:
        return self._get("grid.slot", "1")

    def grid_w_points(self, k: int) -> np.ndarray:
        """Fiber points swept by the grid: the chosen slot runs over a
        Cartesian re/im mesh, the others stay at ``grid.w_fill``."""
        slot = self.grid_slot()
        if not 1 <= slot <= k:
            raise ConfigError(f"grid.slot {slot} out of range for k={k}")
        re, im = (self._get(key, "-2:2:5") for key in ("grid.w_re", "grid.w_im"))
        for key, count in (("grid.w_re", re[2]), ("grid.w_im", im[2]), ("grid.w_re x grid.w_im", re[2] * im[2])):
            if count > _GRID_MAX:
                raise ConfigError(f"{key} gives {count} grid points, above the cap of {_GRID_MAX}")
        re, im = np.linspace(*re), np.linspace(*im)
        fill = self._get("grid.w_fill", "0")
        if len(fill) == 1:
            fill = fill * k
        if len(fill) != k:
            raise ConfigError("grid.w_fill must list one value or k values")
        points = np.tile(np.asarray(fill, dtype=complex), (im.size * re.size, 1))
        points[:, slot - 1] = (re[None, :] + 1j * im[:, None]).ravel()
        return points

    def grid_radii(self) -> List[float]:
        return self._increasing("grid.radii", "1,2,4,8")

    def grid_ray(self, k: int) -> np.ndarray:
        ray = np.asarray(self._get("grid.ray", "1"), dtype=complex)
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
        eps = self._get("bounds.epsilons", "0.5,1,2")
        if not eps or any(e <= 0 or not math.isfinite(4.0 * math.pi * (1.0 + 1.0 / e)) for e in eps):
            raise ConfigError("bounds.epsilons must be positive numbers with a finite bound 4 pi (1 + 1/eps)")
        return eps

    def bounds_off_norms(self) -> List[float]:
        offs = self._get("bounds.off_norms", "0")
        if not offs or any(o < 0 for o in offs):
            raise ConfigError("bounds.off_norms must be a nonempty list of values >= 0")
        return offs

    def bounds_xs(self) -> List[float]:
        return self._increasing("bounds.xs", "0,1,2,4,8,16,32")

    def bundle_m(self) -> int:
        return self._get("bundle.m", "1")

    def bundle_samples(self) -> int:
        samples = self._get("bundle.samples", "50")
        # two solves a sample: a bundle run solves no more points than the largest grid
        if not 1 <= samples <= _GRID_MAX // 2:
            raise ConfigError(f"bundle.samples must be between 1 and {_GRID_MAX // 2}, got {samples}")
        return samples

    def bundle_perturb(self) -> float:
        return self._get("bundle.perturb", "0")

    def bundle_form_name(self) -> str:
        name = self._get("bundle.form", "opm_metric_form")
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
        if key not in _KEYS:
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
