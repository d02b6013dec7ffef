"""Output checker: reduce an op's output to facts and compare with the reference.

``facts(exit_code, stdout)`` keeps what the reference table records for
each argv: the exit code, eigenvalues (scanned), Ritz values, identity
verdict counts, gap-table and sweep summaries.  ``compare`` checks live
facts against the reference with fixed tolerances, and ``anchor_errors``
checks scanned eigenvalues against independent closed forms.
"""

from __future__ import annotations

import json
import math

EIG_RTOL = 1e-11  # scanned eigenvalues (the scan claims ~1e-13)
RITZ_RTOL = 1e-9  # Ritz values at K <= 20 (claimed ~1e-10)
GAP_ATOL = 4e-11  # relative gaps built from two scanned eigenvalues


def _verdicts(reports) -> dict:
    out = {"pass": 0, "fail": 0, "na": 0}
    for r in reports:
        key = r["verdict"] if r["verdict"] in ("pass", "fail") else "na"
        out[key] += 1
    return out


def _condition_verdicts(condition_reports) -> dict:
    out = {"pass": 0, "fail": 0, "na": 0}
    for rep in condition_reports:
        for group in ("pair_inequalities", "pair_equalities", "moment_signs",
                      "gf_inequalities", "gf_factorization"):
            for k, v in _verdicts(rep[group]).items():
                out[k] += v
    return out


def facts(exit_code: int, stdout: str) -> dict:
    """The checked content of one op's output."""
    out: dict = {"exit": exit_code}
    if exit_code not in (0, 3) or not stdout.strip():
        return out
    env = json.loads(stdout)
    cmd, res = env["command"], env["results"]
    out["pass"] = bool(env["rollup"].get("pass"))
    if cmd == "spectrum":
        out["spec"] = res["spec"]
        out["eigenvalues"] = res["eigenvalues"]
        out["ritz"] = res["ritz"]
    elif cmd == "ritz":
        out["spec"] = res["spec"]
        out["ritz"] = [r["ritz"] for r in res["rows"]]
        out["eigenvalues"] = [r["determinant"] for r in res["rows"] if "determinant" in r]
    elif cmd == "eigenfunction":
        out["spec"] = res["spec"]
        out["eigenvalues"] = [res["Lambda"]]
        out["index"] = res["index"]
    elif cmd == "verify":
        out["verdicts"] = _verdicts(res["reports"])
    elif cmd == "disjoint":
        table = res["table"]
        out["spec"] = {"n": table["n"], "m": table["m"], "p": table["p"], "parity": "symmetric"}
        out["eigenvalues"] = table["eigenvalues_n"]
        out["eigenvalues_m"] = table["eigenvalues_m"]
        out["candidates"] = [[c["index_n"], c["index_m"]] for c in table["candidates"]]
        out["verdicts"] = _condition_verdicts(res["condition_reports"])
    elif cmd == "sweep":
        summary = res["summary"]
        out["partial"] = summary["partial"]
        out["pairs"] = [[sp["n"], sp["m"], sp["min_gap"], list(sp["min_pair"]),
                         sp["candidate_count"]] for sp in summary["pairs"]]
        out["candidates"] = [[c["n"], c["index_n"], c["m"], c["index_m"]]
                             for c in summary["candidates"]]
        out["verdicts"] = _condition_verdicts(summary["condition_reports"])
    elif cmd == "plotdata":
        ind = [r["indicator"] for r in res["rows"]]
        out["rows"] = len(ind)
        out["sign_changes"] = sum(1 for a, b in zip(ind, ind[1:]) if a * b < 0)
    return out


def delivered(f: dict) -> tuple[int, int]:
    """(eigenvalues, identity/condition reports) one output delivers."""
    eig = len(f.get("eigenvalues", ())) + len(f.get("eigenvalues_m", ())) + len(f.get("ritz", ()))
    checks = sum(f.get("verdicts", {}).values())
    return eig, checks


def _close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _seq_errors(name, live, ref, rtol) -> list[str]:
    if len(live) != len(ref):
        return [f"{name}: {len(live)} values, reference has {len(ref)}"]
    return [f"{name}[{i}]: {a!r} vs reference {b!r}"
            for i, (a, b) in enumerate(zip(live, ref)) if not _close(a, b, rtol)]


def compare(live: dict, ref: dict) -> list[str]:
    """Every way ``live`` departs from the reference (empty when it matches)."""
    if live["exit"] != ref["exit"]:
        return [f"exit code {live['exit']}, reference {ref['exit']}"]
    errors = []
    if "pass" in ref and live.get("pass") != ref["pass"]:
        errors.append(f"rollup.pass {live.get('pass')}, reference {ref['pass']}")
    for key, rtol in (("eigenvalues", EIG_RTOL), ("eigenvalues_m", EIG_RTOL),
                      ("ritz", RITZ_RTOL)):
        if key in ref:
            errors += _seq_errors(key, live.get(key, []), ref[key], rtol)
    for key in ("verdicts", "candidates", "index", "rows", "sign_changes", "partial", "spec"):
        if key in ref and live.get(key) != ref[key]:
            errors.append(f"{key}: {live.get(key)!r}, reference {ref[key]!r}")
    if "pairs" in ref:
        lp, rp = live.get("pairs", []), ref["pairs"]
        if len(lp) != len(rp):
            errors.append(f"pairs: {len(lp)} rows, reference {len(rp)}")
        for a, b in zip(lp, rp):
            same_gap = (isinstance(a[2], float) and isinstance(b[2], float)
                        and abs(a[2] - b[2]) <= GAP_ATOL) or a[2] == b[2]
            if a[:2] != b[:2] or a[3:] != b[3:] or not same_gap:
                errors.append(f"pair {a[:2]}: {a[2:]!r}, reference {b[2:]!r}")
    return errors


# closed forms, rqlab's [-1, 1] convention: index k = 0, 1, ...
ANCHORS = {
    (1, 1, "symmetric"): lambda k: ((k + 0.5) * math.pi) ** 2,
    (1, 1, "antisymmetric"): lambda k: ((k + 1) * math.pi) ** 2,
    (2, 1, "symmetric"): lambda k: ((k + 1) * math.pi) ** 2,
}


def anchor_errors(live: dict) -> list[str]:
    """Scanned eigenvalues that miss an independent closed form."""
    spec = live.get("spec")
    if not spec:
        return []
    errors = []
    series = [("eigenvalues", spec["n"])]
    if "eigenvalues_m" in live:
        series.append(("eigenvalues_m", spec["m"]))
    for key, n in series:
        form = ANCHORS.get((n, spec["p"], spec["parity"]))
        if form is None:
            continue
        first = live.get("index", 0)
        for i, lam in enumerate(live.get(key, [])):
            want = form(first + i)
            if not _close(lam, want, EIG_RTOL):
                errors.append(f"{key}[{first + i}] = {lam!r}, closed form {want!r}")
    return errors


def op_failed(live: dict) -> bool:
    """Failed from the user's side: bad exit code, failing rollup or partial sweep."""
    return live["exit"] != 0 or live.get("pass") is False or bool(live.get("partial"))


def deviations(live: dict, ref: dict | None) -> list[str]:
    """Every way an output departs from the reference table or a closed form."""
    if ref is None:
        return ["argv missing from the reference table"]
    return compare(live, ref) + anchor_errors(live)
