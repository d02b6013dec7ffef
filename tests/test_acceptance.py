"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Expected values never come from the code paths they check: spectra are
compared against closed forms and plain-bisection roots, integrals against
a fixed Gauss-Legendre rule, and the identity anchors against hand-computed
constants.  Criteria 01, 09 and the anchors of 05 run the checks of
``rqlab.selftest``, their one implementation, and hold each report to the
criterion's own bound.
"""

import json
import time

from rqlab import invariants as inv
from rqlab.cli import main
from rqlab.disjointness import sweep_conjecture
from rqlab.invariants import antisym_equals_next_sym
from rqlab.problem import ProblemSpec
from rqlab.reporting import NOT_APPLICABLE, PASS
from rqlab.ritz import assemble, ritz_values
from rqlab.selftest import (
    closed_form_spectrum_checks,
    identity_anchor_checks,
    property_checks,
    run_selftest,
)
from rqlab.solver import cached_spectrum

from conftest import rel_err

S = "symmetric"
GRID = [(n, p) for n in range(1, 7) for p in range(1, min(n, 3) + 1)]


def _verdict(capsys, num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_closed_form_eigenvalues(capsys):
    # (1,1) both parities and (2,1) in closed form; (3,1) and (2,2) against bisection roots
    reports = closed_form_spectrum_checks()
    ok = len(reports) == 9
    ok &= all(rel_err(r.lhs, r.rhs) <= (1e-7 if r.index[:2] in {(3, 1), (2, 2)} else 1e-9)
              for r in reports)
    _verdict(capsys, 1, "closed-form eigenvalues", ok)


def test_criterion_02_parity_shift(capsys):
    worst = 0.0
    ok = True
    for n in range(1, 5):
        for p in (1, 2):
            if p > n:
                continue
            reports = antisym_equals_next_sym(n, p, count=5, tol=1e-8)
            ok &= all(r.verdict == PASS for r in reports)
            worst = max(worst, max(r.rel_residual for r in reports))
    _verdict(capsys, 2, "antisym spectrum equals next symmetric", ok, f"worst rel {worst:.2e}")


def test_criterion_03_ritz_cross_oracle(capsys):
    ok = True
    worst = 0.0
    for (n, p) in GRID:
        for parity in (S, "antisymmetric"):
            spec = ProblemSpec(n, p, parity)
            det_val = cached_spectrum(n, p, parity, 1)[0]
            ritz = ritz_values(assemble(spec, 20), 1)[0]
            gap = rel_err(ritz, det_val)
            worst = max(worst, gap)
            ok &= gap <= 1e-6
            # upper bound, 1e-9 slack read relative: an absolute 1e-9 on
            # Lambda ~ 1e5 sits below float64 eigensolve resolution
            ok &= ritz >= det_val * (1 - 1e-9)
    _verdict(capsys, 3, "Ritz K=20 agrees with determinant scan", ok, f"worst rel {worst:.2e}")


def test_criterion_04_strict_monotonicity(capsys):
    ok = True
    smallest = float("inf")
    for (n, p) in GRID:
        if (n - 1, p) not in GRID:
            continue
        lo = cached_spectrum(n - 1, p, S, 1)[0]
        hi = cached_spectrum(n, p, S, 1)[0]
        margin = (hi - lo) / hi
        smallest = min(smallest, margin)
        ok &= margin > 1e-6
    _verdict(capsys, 4, "strict monotonicity in the order", ok, f"min rel margin {smallest:.2e}")


def _suite_reports():
    reports = []
    for (n, p) in GRID:
        reports.extend(inv.run_identity_suite(n, p, count=3))
    return reports


def test_criterion_05_identity_suite(capsys):
    reports = _suite_reports()
    by_id = {}
    for r in reports:
        if r.verdict != NOT_APPLICABLE:
            by_id.setdefault(r.identity_id, []).append(r)

    ok = all(r.verdict == PASS for r in by_id["stone-identity"])
    ok &= max(r.rel_residual for r in by_id["stone-identity"]) <= 1e-8
    ok &= all(r.verdict == PASS for r in by_id["cross-order"])
    ok &= max(r.rel_residual for r in by_id["cross-order"]) <= 1e-8
    ok &= all(r.verdict == PASS for r in by_id["bilinear"])
    ok &= max(r.rel_residual for r in by_id["bilinear"]) <= 1e-8
    ok &= max(r.details["bracket_rel_residual"] for r in by_id["bilinear"]) <= 1e-8
    ok &= max(r.details["route_consistency"] for r in by_id["bilinear"]) <= 1e-9
    ok &= all(r.verdict == PASS for r in by_id["positivity"])
    ok &= max(r.rel_residual for r in by_id["positivity"]) <= 1e-8

    # hand-computed anchors on the closed-form pairs (p = 1, orders 1 and 2)
    anchors = identity_anchor_checks()
    ok &= len(anchors) == 6 and all(rel_err(r.lhs, r.rhs) <= 1e-10 for r in anchors)
    _verdict(capsys, 5, "identity suite residuals and anchors", ok)


def test_criterion_06_stone_lemma_consequences(capsys):
    reports = _suite_reports()
    applicable = [r for r in reports if r.verdict != NOT_APPLICABLE]
    stones = [r for r in applicable if r.identity_id == "stone-lemma"]
    ladders = [r for r in applicable if r.identity_id == "h-ladder"]
    ok = bool(stones) and all(r.verdict == PASS for r in stones)
    # d^2 h^k = h^(k-1): exact symbolic differentiation, residual at rounding
    # level; float sums are not bit-reproducible across grouping, so "exact"
    # is pinned at 1e-12 relative (observed <= ~2e-16)
    ok &= bool(ladders) and all(r.verdict == PASS and r.rel_residual <= 1e-12 for r in ladders)
    # cross-k stone coefficient consistency at 1e-9 is enforced inside
    # stone_polynomials; reaching here means no cell tripped it
    _verdict(capsys, 6, "stone lemma consequences", ok)


def test_criterion_07_root_completeness_and_kernel_flatness(capsys):
    reports = _suite_reports()
    applicable = [r for r in reports if r.verdict != NOT_APPLICABLE]
    roots = [r for r in applicable if r.identity_id == "root-completeness"]
    flat = [r for r in applicable if r.identity_id == "xi-flatness"]
    ok = bool(roots) and all(r.verdict == PASS for r in roots)
    ok &= bool(flat) and all(r.verdict == PASS for r in flat)
    _verdict(capsys, 7, "root completeness and squared-variable flatness", ok)


def test_criterion_08_disjointness_sweep(capsys):
    start = time.time()
    lines = []
    ok = True
    for p in (1, 2):
        summary = sweep_conjecture(p, 5, 5, collision_tol=1e-4)
        ok &= not summary.candidates and not summary.partial
        for pair in summary.pairs:
            lines.append(
                f"    p={p} n={pair.n} m={pair.m} min_gap={pair.min_gap:.6f} @ {pair.min_pair}"
            )
    elapsed = time.time() - start
    ok &= elapsed <= 300.0
    with capsys.disabled():
        print("  min-gap table:")
        for line in lines:
            print(line)
    _verdict(capsys, 8, "disjointness sweep has no collision candidates", ok, f"{elapsed:.1f}s")


def test_criterion_09_property_suites(capsys):
    bounds = {
        "prop-linearity": 1e-10,
        "prop-integration-by-parts": 1e-10,
        "prop-hermiticity": 1e-10,
        "prop-quadrature-agreement": 1e-10,
        "prop-boundary-residual": 1e-9,
        "prop-operator-residual": 1e-8,
    }
    reports = property_checks(seed=424242, cases=200)
    ok = [r.identity_id for r in reports] == list(bounds)
    ok &= all(r.lhs <= bounds[r.identity_id] for r in reports)
    _verdict(capsys, 9, "randomized property suites", ok)


def test_criterion_10_cli_contract(capsys, tmp_path):
    ok = main(["spectrum", "--n", "1", "--p", "1", "--count", "1"]) == 0
    ok &= main(["spectrum", "--n", "1", "--p", "2", "--count", "1"]) == 1
    ok &= main(["spectrum", "--n", "1", "--p", "1", "--count", "1", "--lambda-max", "1.5"]) == 2
    ok &= main(["verify", "--n", "2", "--p", "1", "--count", "1", "--inject-fault"]) == 3
    capsys.readouterr()

    code = main(["spectrum", "--n", "2", "--p", "1", "--count", "2", "--format", "json"])
    out = capsys.readouterr().out
    ok &= code == 0
    round_trip = json.dumps(json.loads(out), sort_keys=True, indent=2, allow_nan=False) + "\n"
    ok &= round_trip == out

    start = time.time()
    reports = run_selftest(seed=1, cases=200)
    elapsed = time.time() - start
    ok &= all(r.verdict != "fail" for r in reports)
    ok &= elapsed < 60.0
    _verdict(capsys, 10, "CLI exit codes, stable JSON, fast selftest", ok, f"selftest {elapsed:.1f}s")
