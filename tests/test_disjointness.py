"""Gap tables, conditional-collision diagnostics, conjecture sweeps."""

import math

import numpy as np
import pytest

from rqlab import disjointness, solver
from rqlab.disjointness import (
    alpha_sequence,
    compare_spectra,
    evaluate_necessary_conditions,
    follow_up_candidates,
    sweep_conjecture,
)
from rqlab.errors import ConfigError, NonSimpleEigenvalueError, SolverError
from rqlab.invariants import bracket, stone_coefficients
from rqlab.problem import ProblemSpec
from rqlab.solver import cached_eigenpair

from conftest import PI


def gf(seq) -> np.ndarray:
    """Coefficients in t of the generating function sum f_k (-t)^k."""
    return np.array([(-1) ** k * v for k, v in enumerate(seq)])


class TestGeneratingFunctions:
    def test_bracket_equals_series_coefficient(self, rng):
        for _ in range(50):
            f = [float(v) for v in rng.uniform(-3, 3, size=6)]
            g = [float(v) for v in rng.uniform(-3, 3, size=6)]
            product = np.convolve(gf(f), gf(g))
            for k in range(6):
                assert bracket(f, g, k) == pytest.approx(product[k], rel=1e-12, abs=1e-12)
            assert bracket(f, g, -1) == 0.0

    def test_alpha_is_one_minus_eps_t_times_a(self, rng):
        a = [float(v) for v in rng.uniform(-3, 3, size=5)]
        eps = 0.37
        alpha = alpha_sequence(a, eps)
        product = np.convolve([1.0, -eps], gf(a))[:5]
        assert list(gf(alpha)) == pytest.approx(list(product), rel=1e-13)


class TestCompareSpectra:
    def test_closed_form_gap_table(self):
        table = compare_spectra(1, 2, 1, 3)
        ev_n = [((k + 0.5) * PI) ** 2 for k in range(3)]
        ev_m = [(k * PI) ** 2 for k in (1, 2, 3)]
        for i, li in enumerate(ev_n):
            for j, lj in enumerate(ev_m):
                expect = abs(li - lj) / max(li, lj)
                assert table.gaps[i][j] == pytest.approx(expect, rel=1e-10)
        mins = min(min(row) for row in table.gaps)
        assert table.min_gap == pytest.approx(mins)
        assert not table.candidates

    def test_2_3_gaps_bounded_away(self):
        table = compare_spectra(2, 3, 1, 2)
        assert table.min_gap > 0.3
        assert not table.candidates

    def test_guards(self):
        with pytest.raises(ConfigError):
            compare_spectra(2, 2, 1, 3)  # same order rejected
        with pytest.raises(ConfigError):
            compare_spectra(1, 2, 2, 3)  # n < p
        with pytest.raises(ConfigError):
            compare_spectra(1, 2, 1, 0)


class TestNecessaryConditions:
    def test_cloned_pair_rejected(self):
        # a forced zero order gap is refused outright, however close the values
        zn = cached_eigenpair(3, 1, "symmetric", 0)
        with pytest.raises(ConfigError):
            evaluate_necessary_conditions(zn, zn._replace())

    def test_adjacent_order_contradiction(self):
        zn = cached_eigenpair(3, 1, "symmetric", 0)
        zm = cached_eigenpair(4, 1, "symmetric", 0)._replace(Lambda=zn.Lambda * (1 + 1e-8))
        report = evaluate_necessary_conditions(zn, zm)
        assert report.verdict == "violated"
        head = [r for r in report.pair_equalities if r.identity_id == "collision-head-vanishing"]
        assert head[0].verdict == "fail" and abs(head[0].lhs) > 0.1

    def test_order_gap_two_contradiction(self):
        zn = cached_eigenpair(3, 1, "symmetric", 0)
        zm = cached_eigenpair(5, 1, "symmetric", 0)._replace(Lambda=zn.Lambda * (1 + 1e-8))
        report = evaluate_necessary_conditions(zn, zm)
        assert report.verdict == "violated"

    def test_manufactured_diagnostic_run_is_finite(self):
        zn = cached_eigenpair(3, 1, "symmetric", 0)
        zm = cached_eigenpair(6, 1, "symmetric", 0)._replace(Lambda=zn.Lambda * (1 + 1e-6))
        report = evaluate_necessary_conditions(zn, zm)
        groups = (report.pair_inequalities, report.pair_equalities, report.moment_signs,
                  report.gf_inequalities, report.gf_factorization)
        assert any(groups)
        for r in (r for group in groups for r in group):
            assert math.isfinite(r.lhs) and math.isfinite(r.rhs)
        assert report.data_consistency[0] < 1e-12  # genuine side
        assert report.data_consistency[1] > 1e-3  # manufactured side, recorded

    @pytest.mark.parametrize("n, m", [(3, 6), (4, 6), (5, 6)])
    def test_gf_inequality_lhs_is_the_four_fold_product(self, n, m):
        zn = cached_eigenpair(n, 1, "symmetric", 0)
        zm = cached_eigenpair(m, 1, "symmetric", 0)._replace(Lambda=zn.Lambda * (1 + 1e-6))
        report = evaluate_necessary_conditions(zn, zm)
        c, d = (stone_coefficients(z) for z in (zn, zm))
        four_fold = gf(report.alpha)
        for factor in (report.beta, c, d):
            four_fold = np.convolve(four_fold, gf(factor))
        assert report.gf_inequalities
        for k, r in enumerate(report.gf_inequalities):
            order = 2 * k + (m - n) % 2
            assert r.index == (k,)
            assert r.lhs == pytest.approx(four_fold[order], rel=1e-12)

    def test_translation_identity_is_internal(self):
        zn = cached_eigenpair(3, 1, "symmetric", 0)
        zm = cached_eigenpair(4, 1, "symmetric", 0)._replace(Lambda=zn.Lambda * (1 + 1e-8))
        report = evaluate_necessary_conditions(zn, zm)
        trans = [
            r for r in report.pair_equalities if r.identity_id == "collision-head-translation"
        ]
        assert trans[0].verdict == "pass"

    def test_midpoint_and_endpoint_epsilons(self):
        zn = cached_eigenpair(3, 1, "symmetric", 0)
        zm = cached_eigenpair(4, 1, "symmetric", 0)._replace(Lambda=zn.Lambda * (1 + 1e-8))
        report = evaluate_necessary_conditions(zn, zm)
        assert report.eps_mid == pytest.approx(report.Lambda_mid ** (-1.0), rel=1e-12)
        assert len(report.eps_endpoints) == 2


class TestSweep:
    def test_p1_grid_is_candidate_free(self):
        summary = sweep_conjecture(1, 4, 5)
        assert not summary.candidates
        assert not summary.partial
        assert summary.global_min_gap > 1e-3
        assert len(summary.pairs) == 6  # (n, m) pairs with 1 <= n < m <= 4

    def test_p2_grid_is_candidate_free(self):
        summary = sweep_conjecture(2, 4, 4)
        assert not summary.candidates
        assert summary.global_min_gap > 1e-3

    def test_deterministic(self):
        a = sweep_conjecture(1, 3, 3)
        b = sweep_conjecture(1, 3, 3)
        assert a == b

    def test_solver_errors_make_a_partial_row(self, monkeypatch):
        def fail(*args):
            raise SolverError("no spectrum")

        monkeypatch.setattr(disjointness, "compare_spectra", fail)
        summary = sweep_conjecture(1, 3, 2)
        assert summary.partial
        assert all(sp.error == "SolverError: no spectrum" for sp in summary.pairs)

    def test_a_failed_candidate_extraction_makes_its_pair_partial(self, monkeypatch):
        # (3, 5) at p = 1 has one candidate at this tolerance
        table = compare_spectra(3, 5, 1, 5, 0.05)
        assert len(table.candidates) == len(follow_up_candidates(table)) == 1
        clean = sweep_conjecture(1, 5, 5, 0.05)
        # candidates at n = p are not followed up
        followed = {(sp.n, sp.m) for sp in clean.pairs if sp.candidate_count and sp.n > 1}
        assert not clean.partial and (3, 5) in followed

        def non_simple(*args):
            raise NonSimpleEigenvalueError("two near-zero singular values")

        monkeypatch.setattr(disjointness, "cached_eigenpair", non_simple)
        summary = sweep_conjecture(1, 5, 5, 0.05)
        assert summary.partial and not summary.condition_reports
        errors = {(sp.n, sp.m): sp.error for sp in summary.pairs if sp.error}
        assert errors == dict.fromkeys(followed,
                                       "NonSimpleEigenvalueError: two near-zero singular values")

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args):
            raise TypeError("not a solver failure")

        monkeypatch.setattr(disjointness, "compare_spectra", broken)
        with pytest.raises(TypeError):
            sweep_conjecture(1, 3, 2)

    @pytest.mark.parametrize("p, n_max, count, failing", [
        # the benchmark's edge sweep, chosen when (7,1) found too few roots at count 8
        (1, 7, 8, set()),
        # (4,1) holds 62 roots below the scan ceiling
        (1, 4, 63, {4}),
    ])
    def test_each_sweep_row_is_its_pair_compared_alone(self, monkeypatch, p, n_max, count,
                                                       failing):
        monkeypatch.setattr(solver, "_STORE", {})
        summary = sweep_conjecture(p, n_max, count)
        assert {n for sp in summary.pairs if sp.error for n in (sp.n, sp.m)} >= failing
        for sp in summary.pairs:
            monkeypatch.setattr(solver, "_STORE", {})
            try:
                table = compare_spectra(sp.n, sp.m, p, count)
            except SolverError as exc:
                assert sp.error == f"{type(exc).__name__}: {exc}" and (failing & {sp.n, sp.m})
            else:
                assert (sp.error, sp.min_gap, sp.min_pair) == ("", table.min_gap, table.min_pair)

    def test_an_order_that_breaks_interlacing_fails_every_pair_it_is_in(self, monkeypatch):
        # root 2 of the stored order 3 lies past root 2 of order 5, so order 5 is
        # never stored, and each pair that needs it rescans it and fails alike
        store = {}
        monkeypatch.setattr(solver, "_STORE", store)
        values = list(solver.scan_spectrum(ProblemSpec(3, 2, "symmetric"), 4).eigenvalues)
        values[2] = solver.scan_spectrum(ProblemSpec(5, 2, "symmetric"), 4).eigenvalues[2] * 1.01
        store[(3, 2, "symmetric")] = solver._Order(tuple(values))
        summary = sweep_conjecture(2, 6, 4)
        errors = {(sp.n, sp.m): sp.error for sp in summary.pairs if sp.error}
        assert set(errors) == {(2, 5), (3, 5), (4, 5), (5, 6)}
        assert len(set(errors.values())) == 1
        assert "of (n=3, p=2, sym) exceeds Lambda_2" in errors[2, 5]
        assert store[(5, 2, "symmetric")].eigenvalues == ()

    def test_degenerate_grid_guard(self):
        with pytest.raises(ConfigError):
            sweep_conjecture(2, 2, 3)  # no n < m pair above p
        with pytest.raises(ConfigError):
            sweep_conjecture(1, 1, 3)
