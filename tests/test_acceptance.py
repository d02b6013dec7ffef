"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Expected values never come from the code paths they check: spectra are
compared against closed forms and plain-bisection roots, integrals against
adaptive quadrature, and the identity anchors against hand-computed
constants.
"""

import json
import math
import time

import numpy as np

from rqlab import invariants as inv
from rqlab.cli import main
from rqlab.disjointness import sweep_conjecture
from rqlab.exppoly import ExpPoly, inner_product, l2_norm_sq
from rqlab.problem import ProblemSpec
from rqlab.ritz import assemble, ritz_values
from rqlab.selftest import run_selftest
from rqlab.solver import (
    antisym_equals_next_sym,
    cached_eigenpair,
    cached_spectrum,
    eigenpair_from_function,
)

from conftest import PI, bisect_root, quad_integral, random_exppoly, random_real_exppoly, rel_err

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
    checks = []

    def spectrum(n, p, parity, count):
        return cached_spectrum(n, p, parity, count)

    got = spectrum(1, 1, S, 3)
    want = [((k + 0.5) * PI) ** 2 for k in range(3)]
    checks += [rel_err(a, b) <= 1e-9 for a, b in zip(got, want)]

    for parity_spec in ((1, 1, "antisymmetric"), (2, 1, S)):
        got = spectrum(*parity_spec, 2)
        want = [(k * PI) ** 2 for k in (1, 2)]
        checks += [rel_err(a, b) <= 1e-9 for a, b in zip(got, want)]

    root = bisect_root(lambda t: math.tan(t) - t, PI + 1e-9, 1.5 * PI - 1e-9)
    checks.append(rel_err(spectrum(3, 1, S, 1)[0], root * root) <= 1e-7)

    root = bisect_root(lambda t: math.tan(t) + math.tanh(t), PI / 2 + 1e-9, PI)
    checks.append(rel_err(spectrum(2, 2, S, 1)[0], root**4) <= 1e-7)

    _verdict(capsys, 1, "closed-form eigenvalues", all(checks))


def test_criterion_02_parity_shift(capsys):
    worst = 0.0
    ok = True
    for n in range(1, 5):
        for p in (1, 2):
            if p > n:
                continue
            reports = antisym_equals_next_sym(n, p, count=5, tol=1e-8)
            ok &= all(r.passed for r in reports)
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
        if r.applicable:
            by_id.setdefault(r.identity_id, []).append(r)

    ok = all(r.passed for r in by_id["stone-identity"])
    ok &= max(r.rel_residual for r in by_id["stone-identity"]) <= 1e-8
    ok &= all(r.passed for r in by_id["cross-order"])
    ok &= max(r.rel_residual for r in by_id["cross-order"]) <= 1e-8
    ok &= all(r.passed for r in by_id["bilinear"])
    ok &= max(r.rel_residual for r in by_id["bilinear"]) <= 1e-8
    ok &= max(r.details["bracket_rel_residual"] for r in by_id["bilinear"]) <= 1e-8
    ok &= max(r.details["route_consistency"] for r in by_id["bilinear"]) <= 1e-9
    ok &= all(r.passed for r in by_id["positivity"])
    ok &= max(r.rel_residual for r in by_id["positivity"]) <= 1e-8

    # hand-computed anchors on the closed-form pair (p = 1, orders 1 and 2)
    z1 = eigenpair_from_function(ProblemSpec(1, 1, S), PI * PI / 4, ExpPoly.cosine(PI / 2), 0)
    z2 = eigenpair_from_function(
        ProblemSpec(2, 1, S), PI * PI, ExpPoly.constant(1) + ExpPoly.cosine(PI), 0
    )
    cross = inv.check_cross_identity(z1, z2)
    ok &= rel_err(cross.lhs, -4 * PI) <= 1e-10 and rel_err(cross.rhs, -4 * PI) <= 1e-10
    pos = inv.check_positivity_family(z2, 0)
    ok &= all(rel_err(pos.details[r], 2 * PI**4) <= 1e-10
              for r in ("norm_route", "h_route", "bracket_route"))
    _verdict(capsys, 5, "identity suite residuals and anchors", ok)


def test_criterion_06_stone_lemma_consequences(capsys):
    reports = _suite_reports()
    stones = [r for r in reports if r.identity_id == "stone-lemma" and r.applicable]
    ladders = [r for r in reports if r.identity_id == "h-ladder" and r.applicable]
    ok = bool(stones) and all(r.passed for r in stones)
    # d^2 h^k = h^(k-1): exact symbolic differentiation, residual at rounding
    # level; float sums are not bit-reproducible across grouping, so "exact"
    # is pinned at 1e-12 relative (observed <= ~2e-16)
    ok &= bool(ladders) and all(r.passed and r.rel_residual <= 1e-12 for r in ladders)
    # cross-k stone coefficient consistency at 1e-9 is enforced inside
    # stone_polynomials; reaching here means no cell tripped it
    _verdict(capsys, 6, "stone lemma consequences", ok)


def test_criterion_07_root_completeness_and_kernel_flatness(capsys):
    reports = _suite_reports()
    roots = [r for r in reports if r.identity_id == "root-completeness" and r.applicable]
    flat = [r for r in reports if r.identity_id == "xi-flatness" and r.applicable]
    ok = bool(roots) and all(r.passed for r in roots)
    ok &= bool(flat) and all(r.passed for r in flat)
    _verdict(capsys, 7, "root completeness and squared-variable flatness", ok)


def test_criterion_08_disjointness_sweep(capsys):
    start = time.time()
    lines = []
    ok = True
    for p in (1, 2):
        summary = sweep_conjecture(p, 5, 5, collision_tol=1e-4)
        ok &= summary.candidate_free and not summary.partial
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
    rng = np.random.RandomState(424242)
    ok = True

    worst = 0.0
    for _ in range(200):
        f = random_exppoly(rng, freq_scale=30, max_degree=5, terms=2)
        g = random_exppoly(rng, freq_scale=30, max_degree=5, terms=2)
        al = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        be = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = (f.scaled(al) + g.scaled(be)).integrate_unit()
        rhs = al * f.integrate_unit() + be * g.integrate_unit()
        scale = max(abs(lhs), abs(rhs), abs(f.integrate_unit()), abs(g.integrate_unit()), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    ok &= worst <= 1e-10

    window = ExpPoly.build([(0j, (1.0, 0.0, -1.0))])
    worst = 0.0
    for _ in range(200):
        f = random_real_exppoly(rng, freq_scale=20, max_degree=3, terms=2) * window
        g = random_real_exppoly(rng, freq_scale=20, max_degree=3, terms=2) * window
        lhs = inner_product(f.differentiate(), g)
        rhs = -inner_product(f, g.differentiate())
        scale = max(abs(lhs), abs(rhs),
                    math.sqrt(l2_norm_sq(f.differentiate()) * l2_norm_sq(g)), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    ok &= worst <= 1e-10

    worst = 0.0
    for trial in range(200):
        k = 1 + trial % 3
        clamp = window
        for _ in range(k - 1):
            clamp = clamp * window
        f = random_real_exppoly(rng, freq_scale=8, max_degree=2, terms=2) * clamp
        g = random_real_exppoly(rng, freq_scale=8, max_degree=2, terms=2) * clamp
        sf, sg = f, g
        for _ in range(k):
            sf = sf.differentiate().scaled(1j)
            sg = sg.differentiate().scaled(1j)
        lhs = inner_product(sf, g.conjugate())
        rhs = inner_product(f, sg.conjugate())
        scale = max(abs(lhs), abs(rhs), math.sqrt(l2_norm_sq(sf) * l2_norm_sq(g)), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    ok &= worst <= 1e-10

    worst = 0.0
    for _ in range(200):
        f = random_exppoly(rng, freq_scale=50, max_degree=8, terms=2)
        closed = f.integrate_unit()
        reference = quad_integral(f)
        scale = max(abs(closed), abs(reference), 1e-10 * f.magnitude_bound(), 1e-30)
        worst = max(worst, abs(closed - reference) / scale)
    ok &= worst <= 1e-10

    for (n, p) in ((2, 1), (3, 2), (5, 2)):
        cached_spectrum(n, p, S, 2)  # one scan for both pairs
        for pair in (cached_eigenpair(n, p, S, i) for i in range(2)):
            r = pair.residuals
            ok &= r.boundary_residual <= 1e-9 * r.boundary_scale
            ok &= r.operator_residual <= 1e-8 * r.operator_scale
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
