"""Structured verification output and deterministic file writers.

CSV cells use 17-significant-digit floats and JSON uses the standard
shortest round-trip representation, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, List, Sequence

import numpy as np

# Every report's check thresholds, which nothing overrides: residual and
# oracle caps, gluing slack, and the residual stencils' difference step.
TOLERANCES = MappingProxyType(
    {"tol_residual": 1e-4, "tol_oracle": 1e-6, "tol_glue": 1e-6, "fd_h": 1e-3}
)


_TOL_RESIDUAL, _TOL_ORACLE = TOLERANCES["tol_residual"], TOLERANCES["tol_oracle"]

# Every check a report can hold: name -> (claim, bound).  A record passes
# when ``measured <= bound``; "{}" in a name stands for a chart id.
CHECKS = MappingProxyType({
    "closedness": ("cross derivatives of the coefficients satisfy the closedness identities", _TOL_RESIDUAL),
    "decay_b_envelope": ("fiber coefficients stay inside the declared decay envelope", 1.0),
    "decay_a_vanishing": ("base coefficients vanish along fiber rays", 0.5),
    "oracle_gap": ("solution matches the closed-form potential within the error estimate", _TOL_ORACLE),
    "dbar_residual": ("conjugate derivatives of the solution reproduce the form coefficients", _TOL_RESIDUAL),
    "slot_independence": ("the solution does not depend on the transformed fiber slot", 0.0),
    "disc_reconstruction": ("circle average plus interior kernel integral reproduces the coefficient", _TOL_ORACLE),
    "boundary_decay": ("the circle average decays inside the declared envelope", 0.0),
    "cocycle_roundtrip": ("transition followed by its inverse is the identity", 1e-12),
    "pullback_agreement": ("coefficients transform through the conjugated Jacobians", 1e-10),
    "residual_chart_{}": ("conjugate derivatives of the solution equal the form coefficients", _TOL_RESIDUAL),
    "fiber_decay_envelope_chart_{}": ("|solution| stays below the profile envelope along fiber rays", 0.0),
    "fiber_decay_vanishing_chart_{}": ("|solution| tends to 0 along fiber rays", 0.5),
    "oracle_gap_chart_{}": ("solution matches the closed-form potential", _TOL_ORACLE),
    "overlap_consistency": ("per-chart solutions agree on sampled overlap points", TOLERANCES["tol_glue"]),
})


@dataclass(frozen=True)
class CheckRecord:
    """One verified claim: what was measured and the bound it must respect."""

    name: str
    claim: str
    measured: float
    bound: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "measured": float(self.measured),
            "bound": float(self.bound),
            "passed": bool(self.passed),
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    metadata: dict
    records: List[CheckRecord] = field(default_factory=list)

    def add(self, check: str, measured, chart: str = "", detail: str = "") -> CheckRecord:
        """Append the record of ``CHECKS[check]`` for ``chart``.  It passes
        when ``measured <= bound``, which is false for a NaN measurement."""
        claim, bound = CHECKS[check]
        measured = float(measured)
        rec = CheckRecord(check.format(chart), claim, measured, bound, measured <= bound, detail)
        self.records.append(rec)
        return rec

    @property
    def overall_pass(self) -> bool:
        return all(rec.passed for rec in self.records)

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "checks": [rec.to_dict() for rec in self.records],
            "overall_pass": self.overall_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
