"""Identity reports and the envelopes that carry them: canonical JSON and CSV.

An :class:`IdentityReport` is the machine-readable verdict of one identity
or inequality check.

Envelope layout (schema 1)::

    {
      "schema": 1,
      "tool": "rqlab",
      "version": ...,
      "command": ...,
      "config": {...},          # full resolved configuration, defaults included
      "generated_at": ...,      # ISO timestamp (metadata, not payload)
      "results": {...},
      "rollup": {"pass": bool, "n_pass": int, "n_fail": int, "n_na": int}
    }

JSON is emitted with sorted keys and repr-shortest floats, so parsing and
re-serializing an envelope reproduces it byte for byte.  Floats outside the
[1e-300, 1e300] magnitude band (and non-finite values) are carried as
decimal strings to keep the interchange lossless.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any

import numpy as np

from . import __version__

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

RESIDUAL_FLOOR = 1e-30  # avoids 0/0 verdicts on identically-zero identities


def relative_residual(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), RESIDUAL_FLOOR)


@dataclass(frozen=True)
class IdentityReport:
    """One checked identity/inequality instance.

    ``identity_id`` names the relation, ``index`` carries whatever index
    tuple applies (k, l, order gap, ...).  ``details`` holds auxiliary
    residuals (alternate evaluation routes, sign-variant diagnostics).
    """

    identity_id: str
    index: tuple = ()
    lhs: float = 0.0
    rhs: float = 0.0
    abs_residual: float = 0.0
    rel_residual: float = 0.0
    verdict: str = PASS
    notes: str = ""
    details: dict = field(default_factory=dict)


def equality_report(identity_id, index, lhs, rhs, tol, notes="", details=None) -> IdentityReport:
    rel = relative_residual(lhs, rhs)
    return IdentityReport(
        identity_id=identity_id,
        index=tuple(index),
        lhs=float(lhs),
        rhs=float(rhs),
        abs_residual=abs(lhs - rhs),
        rel_residual=rel,
        verdict=PASS if rel <= tol else FAIL,
        notes=notes,
        details=details or {},
    )


def bound_report(identity_id, index, value, bound, notes="", details=None) -> IdentityReport:
    """Pass when value <= bound (one-sided smallness check)."""
    return IdentityReport(
        identity_id=identity_id,
        index=tuple(index),
        lhs=float(value),
        rhs=float(bound),
        abs_residual=max(value - bound, 0.0),
        rel_residual=float(value) / max(abs(bound), RESIDUAL_FLOOR),
        verdict=PASS if value <= bound else FAIL,
        notes=notes,
        details=details or {},
    )


def not_applicable(identity_id, index, notes="") -> IdentityReport:
    return IdentityReport(
        identity_id=identity_id, index=tuple(index), verdict=NOT_APPLICABLE, notes=notes
    )


SCHEMA_VERSION = 1
TOOL_NAME = "rqlab"
FLOAT_BAND = (1e-300, 1e300)


def to_jsonable(obj: Any) -> Any:
    """Recursively convert package values to JSON-safe builtins."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return repr(obj)
        if obj != 0.0 and not FLOAT_BAND[0] <= abs(obj) <= FLOAT_BAND[1]:
            return repr(obj)
        return obj
    if isinstance(obj, complex):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def make_envelope(command: str, config: dict, results: Any, rollup: dict | None = None) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "config": to_jsonable(config),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "results": to_jsonable(results),
        "rollup": to_jsonable(rollup or {}),
    }


def dumps_envelope(envelope: dict) -> str:
    return json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False) + "\n"


def rollup_from_reports(reports) -> dict:
    n_pass = sum(1 for r in reports if r.verdict == PASS)
    n_fail = sum(1 for r in reports if r.verdict == FAIL)
    n_na = len(reports) - n_pass - n_fail
    return {"pass": n_fail == 0, "n_pass": n_pass, "n_fail": n_fail, "n_na": n_na}


def format_csv(rows: list[dict], columns: list[str]) -> str:
    """CSV with repr-shortest numbers and a fixed column order."""

    def cell(value) -> str:
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def format_table(rows: list[dict], columns: list[str]) -> str:
    """Plain text table for terminal viewing."""

    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.12g}"
        return str(value)

    grid = [columns] + [[cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(r[i]) for r in grid) for i in range(len(columns))]
    out = []
    for idx, row in enumerate(grid):
        out.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        if idx == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"
