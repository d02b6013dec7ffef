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

:func:`dumps_envelope` writes that text in one pass over the payloads, the
text ``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)`` gives,
without the stdlib's pure-Python indent encoder.  An envelope holds exactly
the types rqlab builds: ``dict`` with ``str`` keys, ``list``, ``tuple`` and
dataclass instances (their fields as a dict), and ``float``, ``int``, ``str``,
``True``, ``False`` and ``None``.  No value of a subclass counts
(``np.float64``, ``OrderedDict``), and nothing is converted: any other value,
a numpy scalar, ``complex``, ``Fraction``, an array or a set, and any key that
is not a ``str``, raises ``TypeError``.

CSV cells are written bare, except that a cell holding ``,``, ``"``, CR or LF
is quoted as ``csv.writer`` quotes it: wrapped in double quotes, with each
quote inside doubled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from typing import Any

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
_LO, _HI = FLOAT_BAND
_FIELDS: dict[type, list[str]] = {}  # a dataclass's field names, sorted
_quote = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__
_CSV_SPECIAL = frozenset(',"\r\n')  # a CSV cell holding one of these is quoted


def _emit(value: Any, out: list, nl: str) -> None:
    """Append the JSON text of ``value`` to ``out``; ``nl`` is a newline and its line's indent."""
    cls = type(value)
    inner = nl + "  "
    if cls is list or cls is tuple:
        heads, values, sep, closing = [inner] * len(value), value, "[", "]"
    else:
        if cls is dict:
            keys = sorted(value)
            values = [value[k] for k in keys]
        else:
            keys = _FIELDS.get(cls)
            if keys is None:
                if not is_dataclass(cls):
                    raise TypeError(f"an envelope cannot hold a {cls.__name__}: {value!r}")
                keys = _FIELDS[cls] = sorted(f.name for f in fields(cls))
            values = [getattr(value, k) for k in keys]
        heads, sep, closing = [f"{inner}{_quote(k)}: " for k in keys], "{", "}"
    if not heads:
        out.append(sep + closing)
        return
    for head, v in zip(heads, values):
        t = type(v)
        if t is float:
            out.append(sep + head + (_float_repr(v) if _LO <= abs(v) <= _HI or v == 0.0
                                     else _quote(repr(v))))
        elif t is str:
            out.append(sep + head + _quote(v))
        elif t is int:
            out.append(sep + head + _int_repr(v))
        elif v is None:
            out.append(sep + head + "null")
        elif v is True:
            out.append(sep + head + "true")
        elif v is False:
            out.append(sep + head + "false")
        else:
            out.append(sep + head)
            _emit(v, out, inner)
        sep = ","
    out.append(nl + closing)


def make_envelope(command: str, config: dict, results: Any, rollup: dict | None = None) -> dict:
    """The envelope of one command; ``dumps_envelope`` walks its payloads."""
    return {
        "schema": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "config": config,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "results": results,
        "rollup": rollup or {},
    }


def dumps_envelope(envelope: dict) -> str:
    """The envelope's JSON text: indent 2, sorted keys, one trailing newline."""
    out: list[str] = []
    _emit(envelope, out, "\n")
    out.append("\n")
    return "".join(out)


def rollup_from_reports(reports) -> dict:
    n_pass = sum(1 for r in reports if r.verdict == PASS)
    n_fail = sum(1 for r in reports if r.verdict == FAIL)
    n_na = len(reports) - n_pass - n_fail
    return {"pass": n_fail == 0, "n_pass": n_pass, "n_fail": n_fail, "n_na": n_na}


def format_csv(rows: list[dict], columns: list[str]) -> str:
    """CSV with repr-shortest numbers, a fixed column order and minimal quoting."""

    def cell(value) -> str:
        text = repr(value) if isinstance(value, float) else str(value)
        if _CSV_SPECIAL.isdisjoint(text):
            return text
        return '"' + text.replace('"', '""') + '"'

    lines = [",".join(map(cell, columns))]
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
