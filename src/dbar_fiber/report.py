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

    def add(self, name, claim, measured, bound, passed=None, detail="") -> CheckRecord:
        """Append one record.  ``passed`` defaults to ``measured <= bound``,
        which is false for a NaN measurement."""
        measured, bound = float(measured), float(bound)
        if passed is None:
            passed = measured <= bound
        rec = CheckRecord(name, claim, measured, bound, bool(passed), detail)
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
