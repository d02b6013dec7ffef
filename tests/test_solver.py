"""Determinant scan and eigenfunction extraction."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rqlab
from rqlab import exppoly, solver
from rqlab import invariants as inv
from rqlab.cli import _corrupted_pair, main
from rqlab.errors import ConfigError, DegenerateSystemError, NonSimpleEigenvalueError
from rqlab.errors import ScanExhaustedError, SolverError
from rqlab.exppoly import ExpPoly, inner_product
from rqlab.invariants import antisym_equals_next_sym
from rqlab.problem import ProblemSpec, root_system, solution_basis
from rqlab.reporting import PASS
from rqlab.selftest import closed_form_anchor_pairs, closed_form_spectrum_checks
from rqlab.solver import (
    cached_eigenpair,
    cached_spectrum,
    extract_eigenfunction,
    monomial_annihilator,
    monomial_inverse,
    reduced_matrices,
    scan_spectrum,
)

from conftest import PI, bisect_root, cold_start, exppoly_route_pair, exppoly_route_residuals
from conftest import rel_err

S, A = "symmetric", "antisymmetric"


def one_order(spec, rho):
    """:func:`solver.reduced_matrices` of the one order, an ``(L, p, p)`` stack."""
    (matrices,), degenerate, _, _ = reduced_matrices((spec,), rho)
    assert not degenerate
    return matrices


def det_indicator(spec, Lambda):
    """The scan's reduced determinant det R at the one eigenvalue Lambda."""
    ((_, value, _),) = solver.indicator_series(spec, [root_system(spec.p, Lambda).rho])
    return value


class TestDetIndicator:
    def test_sign_change_around_first_2_1_eigenvalue(self):
        spec = ProblemSpec(2, 1, S)
        assert det_indicator(spec, 9.0) * det_indicator(spec, 11.0) < 0

    def test_zeros_of_1_1_at_half_integer_multiples(self):
        spec = ProblemSpec(1, 1, S)
        lam = PI / 2
        assert abs(det_indicator(spec, lam * lam)) < 1e-14
        assert det_indicator(spec, (lam - 0.1) ** 2) * det_indicator(spec, (lam + 0.1) ** 2) < 0

    def test_2_2_zero_matches_bisection_oracle(self):
        root = bisect_root(lambda t: math.tan(t) + math.tanh(t), PI / 2 + 1e-9, PI)
        spec = ProblemSpec(2, 2, S)
        assert det_indicator(spec, (root - 1e-3) ** 4) * det_indicator(spec, (root + 1e-3) ** 4) < 0

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ConfigError):
            det_indicator(ProblemSpec(2, 1, S), -3.0)


# row-scaled entries lie in [-1, 1]; the closed form and the ExpPoly chain round
# differently, by at most a few ulps of 1
ORACLE_BOUND = 8 * np.finfo(float).eps


def exppoly_reduced_matrix(spec: ProblemSpec, Lambda: float) -> np.ndarray:
    """``N K`` with K's rows through ExpPoly differentiation, row i over ``sum_j |N_ij| rho^j``."""
    rows = []
    derivatives = solution_basis(spec, Lambda)[:spec.p]
    for _ in range(spec.n):
        rows.append([fn.evaluate(1.0).real for fn in derivatives])
        derivatives = [fn.differentiate() for fn in derivatives]
    basis = np.array(monomial_annihilator(spec), dtype=float)
    scale = np.abs(basis) @ root_system(spec.p, Lambda).rho ** np.arange(spec.n)
    return basis @ np.array(rows) / scale[:, None]


class TestBoundaryMatrix:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_closed_forms_agree_with_exppoly_chain(self, n):
        for p in range(1, n + 1):
            for parity in (S, A):
                spec = ProblemSpec(n, p, parity)
                Lambdas = [float(lam) ** (2 * p) for lam in np.arange(0.02, 60.0, 0.91)]
                rhos = [root_system(p, Lambda).rho for Lambda in Lambdas]
                reduced = one_order(spec, rhos)
                assert reduced.shape == (len(Lambdas), p, p)
                for matrix, Lambda in zip(reduced, Lambdas):
                    oracle = exppoly_reduced_matrix(spec, Lambda)
                    assert np.abs(matrix - oracle).max() <= ORACLE_BOUND, (spec.label(), Lambda)

    def test_batched_reduced_matrices_equal_one_point_calls_and_the_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
            st.sampled_from((S, A)),
            st.lists(st.one_of(st.floats(0.02, 60.0, exclude_min=True, exclude_max=True),
                               st.floats(60.0, 5000.0)),
                     min_size=1, max_size=12),
        )
        def rows_match(order, parity, lams):
            spec = ProblemSpec(*order, parity)
            depth = max(root.imag for root in root_system(spec.p, 1.0).roots)
            Lambdas = [lam ** (2 * spec.p) for lam in lams]
            rhos = [root_system(spec.p, Lambda).rho for Lambda in Lambdas]
            batched = one_order(spec, rhos)
            assert np.abs(batched).max() <= 1.0
            determinants = [f for _, f, _ in solver.indicator_series(spec, rhos)]
            for matrix, Lambda, rho, f in zip(batched, Lambdas, rhos, determinants):
                assert np.array_equal(matrix, one_order(spec, [rho])[0])
                if rho * depth < 700.0:  # the oracle's e^(rho b) is still finite
                    oracle = exppoly_reduced_matrix(spec, Lambda)
                    assert np.abs(matrix - oracle).max() <= ORACLE_BOUND
                assert f == det_indicator(spec, Lambda) and math.isfinite(f)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows_match()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_entries_and_determinants_stay_finite_for_large_root_coordinates(self, n):
        # e^(rho b) overflows past rho b ~ 709.78; the kernel never forms it
        rhos = [700.0, 709.9, 720.0, 1000.0, 4999.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for p in range(1, n + 1):
                for parity in (S, A):
                    spec = ProblemSpec(n, p, parity)
                    matrices = one_order(spec, rhos)
                    values = [f for _, f, _ in solver.indicator_series(spec, rhos)]
                    assert np.isfinite(matrices).all() and np.abs(matrices).max() <= 1.0
                    assert np.isfinite(values).all() and np.abs(values).max() <= 1.0

    def test_a_row_without_monomials_that_vanishes_is_degenerate(self):
        # rho^2 underflows, so the last row of the (3,3) matrix has no scale
        spec = ProblemSpec(3, 3, S)
        (matrices,), degenerate, _, _ = reduced_matrices((spec,), [1.0, 1e-200])
        assert list(degenerate) == [0] and isinstance(degenerate[0], DegenerateSystemError)
        assert str(degenerate[0]).startswith("reduced boundary row 2 vanishes identically")
        assert not matrices.any()
        with pytest.raises(DegenerateSystemError, match="reduced boundary row 2"):
            list(solver.indicator_series(spec, [1.0, 1e-200]))
        assert np.isfinite(one_order(ProblemSpec(3, 1, S), [1e-200])).all()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_a_vanishing_or_underflowed_reduced_row_is_untrusted(self, monkeypatch, p):
        # the trust test divides by nothing, so a zero or subnormal row gives no
        # RuntimeWarning, and its determinant, 0 or near it, is never trusted
        rows = np.eye(p)
        stack = np.array([rows, rows, rows])
        stack[0, 0] = 0.0
        stack[1, -1] = 5e-324
        stack[2, 0, 0] = 1e-300
        monkeypatch.setattr(solver, "reduced_matrices",
                            lambda specs, rho: (stack[None, :len(rho)], {}, None, None))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            series = list(solver.indicator_series(ProblemSpec(3, p, S), [1.0, 2.0, 3.0]))
        assert [trusted for _, _, trusted in series] == [False, False, False]
        assert all(math.isfinite(f) for _, f, _ in series)


class TestReduction:
    @pytest.mark.parametrize("parity", [S, A])
    def test_annihilator_is_an_exact_left_null_basis_of_rank_p(self, parity):
        for n in range(1, 13):
            for p in range(1, n + 1):
                spec = ProblemSpec(n, p, parity)
                basis = monomial_annihilator(spec)
                assert len(basis) == p and all(len(row) == n for row in basis)
                assert all(type(v) is int for row in basis for v in row)
                for m in spec.monomial_degrees:
                    assert all(sum(v * math.perm(m, j) for j, v in enumerate(row)) == 0
                               for row in basis), (spec.label(), m)
                # exact in floats, and of full rank
                assert max(abs(v) for row in basis for v in row) < 2**53
                assert np.linalg.matrix_rank(np.array(basis, dtype=float)) == p, spec.label()

    @pytest.mark.parametrize("parity", [S, A])
    def test_the_inverse_of_the_top_monomial_block_is_exact(self, parity):
        for n in range(1, 13):
            for p in range(1, n + 1):
                spec = ProblemSpec(n, p, parity)
                inverse = monomial_inverse(spec)
                q = n - p
                top = [[math.perm(m, j) for m in spec.monomial_degrees] for j in range(q)]
                product = [[sum(inverse[i][k] * top[k][j] for k in range(q)) for j in range(q)]
                           for i in range(q)]
                assert product == [[int(i == j) for j in range(q)] for i in range(q)], spec.label()
                assert all(type(v) is Fraction for row in inverse for v in row)

    def test_p_equal_to_n_reduces_nothing(self):
        for n in range(1, 6):
            spec = ProblemSpec(n, n, A)
            assert np.array_equal(monomial_annihilator(spec), np.eye(n, dtype=int))
            assert monomial_inverse(spec) == ()

    @pytest.mark.parametrize("parity", [S, A])
    def test_every_order_completes_at_count_8(self, parity):
        # (12, 12) is the trust rule's hard case: there no monomial is reduced away,
        # and the grid points within about 0.2 of each root are untrusted
        for n in range(1, 13):
            for p in range(1, n + 1):
                out = scan_spectrum(ProblemSpec(n, p, parity), 8)
                roots = [v ** (1 / (2 * p)) for v in out.eigenvalues]
                assert len(roots) == 8
                assert max(hi - lo for lo, hi in zip(roots, roots[1:])) < solver.MAX_ROOT_GAP


def drive(refine, determinant):
    """Run one ``_refine`` generator to its (root, evaluations), one determinant per trial."""
    value = None
    while True:
        try:
            x = refine.send(value)
        except StopIteration as done:
            return done.value
        value = determinant(x)


class TestScanSpectrum:
    # the closed forms are the self-test's; the store holds the direct scan bit for bit
    @pytest.fixture(scope="class")
    def closed_forms(self):
        reports = {}
        for r in closed_form_spectrum_checks():
            reports.setdefault(r.index[:2], []).append(r)
        return reports

    def test_1_1_symmetric_closed_form(self, closed_forms):
        assert len(closed_forms[(1, 1)]) == 5  # three symmetric, two antisymmetric
        assert all(rel_err(r.lhs, r.rhs) < 1e-12 for r in closed_forms[(1, 1)])

    def test_2_1_symmetric_closed_form(self, closed_forms):
        assert len(closed_forms[(2, 1)]) == 2
        assert all(rel_err(r.lhs, r.rhs) < 1e-12 for r in closed_forms[(2, 1)])

    def test_3_1_first_matches_tangent_oracle(self, closed_forms):
        (report,) = closed_forms[(3, 1)]
        assert rel_err(report.lhs, report.rhs) < 1e-9

    def test_metadata_and_ordering(self):
        out = scan_spectrum(ProblemSpec(4, 2, S), 3)
        assert out.metadata.bracket_count >= 3
        assert out.metadata.grid_step == solver.DEFAULT_SCAN_STEP == 0.25
        assert list(out.eigenvalues) == sorted(out.eigenvalues)
        assert len(out.metadata.refinement_iterations) >= 3

    def test_ceiling_failure_is_explicit(self):
        with pytest.raises(SolverError):
            scan_spectrum(ProblemSpec(1, 1, S), 3, lambda_ceiling=2.0)
        # the grid ends at the ceiling: a root below it is found, one above it is not
        with pytest.raises(ScanExhaustedError) as exhausted:
            scan_spectrum(ProblemSpec(1, 1, S), 2, lambda_ceiling=4.7)
        assert exhausted.value.eigenvalues == scan_spectrum(ProblemSpec(1, 1, S), 1).eigenvalues
        got = scan_spectrum(ProblemSpec(1, 1, S), 2, lambda_ceiling=4.72).eigenvalues
        assert rel_err(got[1], (1.5 * PI) ** 2) < 1e-12

    def test_near_zero_dip_is_recorded_as_a_suspect(self, monkeypatch):
        # a dip below 1e-8 of its neighbours without a sign change is a suspected
        # double root; a shallower dip is not
        metadata = self.scan_with_samples(monkeypatch, {1: 1.0, 2: 1e-9, 3: 1.0, 4: 1e-3, 5: 1.0})
        assert metadata.suspects == (0.10,)

    @staticmethod
    def scan_with_samples(monkeypatch, samples):
        """A (1,1) scan of the 1x1 determinant ``0.325 - rho``, except at the grid
        points ``rho = 0.05 k`` whose k ``samples`` maps to a value of their own
        (0.0 is below every trust bound, so it makes the point untrusted)."""

        def matrix(rho):
            rhos = np.asarray(rho, dtype=float)
            values = 0.325 - rhos
            for k, value in samples.items():
                values = np.where(np.rint(rhos / 0.05) == k, value, values)
            return values[..., None, None]

        monkeypatch.setattr(solver, "reduced_matrices",
                            lambda specs, rho: (matrix(rho)[None], {}, None, None))
        out = scan_spectrum(ProblemSpec(1, 1, S), 1, step=0.05)
        assert rel_err(out.eigenvalues[0], 0.325**2) < 1e-12
        return out.metadata

    @pytest.mark.parametrize("dip, untrusted", [(2, 3), (3, 2)])
    def test_a_dip_with_an_untrusted_point_between_its_samples_is_no_suspect(
        self, monkeypatch, dip, untrusted
    ):
        # deep against its trusted neighbours, but they are not its adjacent samples
        alone = self.scan_with_samples(monkeypatch, {dip: 1e-9})
        assert alone.suspects == pytest.approx((0.05 * dip,), rel=1e-12)
        metadata = self.scan_with_samples(monkeypatch, {dip: 1e-9, untrusted: 0.0})
        assert metadata.untrusted_points == 1 and metadata.suspects == ()

    @pytest.mark.parametrize("dip", [2, 3])
    def test_a_dip_straddling_a_chunk_boundary_is_a_suspect(self, monkeypatch, dip):
        # two points per chunk: the dip at k = 2 closes its chunk, the one at k = 3 opens one
        monkeypatch.setattr(solver, "SCAN_CHUNK", 2)
        metadata = self.scan_with_samples(monkeypatch, {dip: 1e-9})
        assert metadata.untrusted_points == 0
        assert metadata.suspects == pytest.approx((0.05 * dip,), rel=1e-12)

    def test_count_validation(self):
        with pytest.raises(ConfigError):
            scan_spectrum(ProblemSpec(1, 1, S), 0)

    # float.hex of the eigenvalues, the evaluations per refined root and the
    # untrusted grid points of the reduced-determinant scan at the default step,
    # refined with Anderson-Bjorck weights
    PINNED_SCANS = {
        ((1, 1, S), 5): (
            ("0x1.3bd3cc9be45eap+1", "0x1.634e462f60e9ap+4", "0x1.ed7aefb394d2dp+5",
             "0x1.e39c514eb5afcp+6", "0x1.8fb80ef54d06dp+7"), (4, 4, 4, 4, 4), 0),
        ((9, 4, S), 6): (
            ("0x1.1edd87a8dc581p+27", "0x1.6b232b52591a4p+30", "0x1.f32494f5df7f4p+32",
             "0x1.edbe1c436337dp+34", "0x1.89f97e6e3a3adp+36", "0x1.0d8cfcaa8ec43p+38"),
            (6, 6, 5, 5, 5, 5), 7),
        ((8, 1, S), 8): (
            ("0x1.ba142e6acf7dbp+6", "0x1.93b333434ab4bp+7", "0x1.377375d9ee479p+8",
             "0x1.b84e43d22aa23p+8", "0x1.265748ed82db4p+9", "0x1.7a5766b5ee7a4p+9",
             "0x1.d82d9b3c4ab7bp+9", "0x1.1fee8c68f4989p+10"), (5, 5, 5, 5, 4, 4, 5, 5), 1),
        ((8, 1, A), 8): (
            ("0x1.0fc5d62900537p+7", "0x1.dc3fd6ef17b68p+7", "0x1.6614743d36d1bp+8",
             "0x1.f115218eace9ep+8", "0x1.47c0cc3e1f7d8p+9", "0x1.a0bfcd7209240p+9",
             "0x1.01c8404a36266p+10", "0x1.381bd0ab4cbdep+10"), (5, 5, 5, 5, 5, 5, 5, 5), 2),
    }

    @pytest.mark.parametrize("case, count", list(PINNED_SCANS))
    def test_scan_is_bit_identical_to_its_pinned_values(self, case, count):
        out = scan_spectrum(ProblemSpec(*case), count)
        assert (tuple(v.hex() for v in out.eigenvalues), out.metadata.refinement_iterations,
                out.metadata.untrusted_points) == self.PINNED_SCANS[case, count]
        assert out.metadata.suspects == ()

    # the same scans, and the first seven (8,1,anti) roots, the only ones it found
    # then, as the n x n boundary determinant gave them when its closed form raised
    # (rho freq)^j to a complex power at every point and multiplied e^(-rho b) in
    # after e^(rho freq)
    EARLIER_PINS = {
        ((1, 1, S), 5): (
            "0x1.3bd3cc9be45dep+1", "0x1.634e462f60e9ap+4", "0x1.ed7aefb394d2bp+5",
            "0x1.e39c514eb5afcp+6", "0x1.8fb80ef54d06dp+7"),
        ((9, 4, S), 6): (
            "0x1.1edd87a8dc595p+27", "0x1.6b232b52591cbp+30", "0x1.f32494f5df56ep+32",
            "0x1.edbe1c436349cp+34", "0x1.89f97e6e3a828p+36", "0x1.0d8cfcaa8ec07p+38"),
        ((8, 1, S), 8): (
            "0x1.ba142e6acf7f5p+6", "0x1.93b333434aacbp+7", "0x1.377375d9ee472p+8",
            "0x1.b84e43d22aa43p+8", "0x1.265748ed82dbbp+9", "0x1.7a5766b5ede64p+9",
            "0x1.d82d9b3c4ab73p+9", "0x1.1fee8c68f34eep+10"),
        ((8, 1, A), 7): (
            "0x1.0fc5d6290050fp+7", "0x1.dc3fd6ef17b49p+7", "0x1.6614743d36d0dp+8",
            "0x1.f115218eace93p+8", "0x1.47c0cc3e1f940p+9", "0x1.a0bfcd72093d1p+9",
            "0x1.01c8404a36276p+10"),
    }

    @pytest.mark.parametrize("case, count", list(EARLIER_PINS))
    def test_scan_stays_within_2e_12_of_its_earlier_pins(self, case, count):
        earlier = self.EARLIER_PINS[case, count]
        eigenvalues = scan_spectrum(ProblemSpec(*case), count).eigenvalues
        assert len(eigenvalues) == len(earlier)
        for value, pinned in zip(eigenvalues, map(float.fromhex, earlier)):
            assert rel_err(value, pinned) <= 2e-12, (case, value, pinned)

    # the same scans as they were at step 0.05 with Illinois weights, and the
    # tolerance each order's band stays within
    STEP_005_PINS = {
        ((1, 1, S), 5): (1e-14, (
            "0x1.3bd3cc9be45dep+1", "0x1.634e462f60e9ap+4", "0x1.ed7aefb394d2bp+5",
            "0x1.e39c514eb5afcp+6", "0x1.8fb80ef54d06dp+7")),
        ((9, 4, S), 6): (2e-11, (
            "0x1.1edd87a8dc565p+27", "0x1.6b232b5259197p+30", "0x1.f32494f5df811p+32",
            "0x1.edbe1c4363371p+34", "0x1.89f97e6e3a3adp+36", "0x1.0d8cfcaa8ec43p+38")),
        ((8, 1, S), 8): (1e-13, (
            "0x1.ba142e6acf7dep+6", "0x1.93b333434ab4bp+7", "0x1.377375d9ee479p+8",
            "0x1.b84e43d22aa23p+8", "0x1.265748ed82db4p+9", "0x1.7a5766b5ee7a5p+9",
            "0x1.d82d9b3c4ab7bp+9", "0x1.1fee8c68f4989p+10")),
        ((8, 1, A), 8): (1e-13, (
            "0x1.0fc5d6290053ep+7", "0x1.dc3fd6ef17b66p+7", "0x1.6614743d36d1bp+8",
            "0x1.f115218eace9ep+8", "0x1.47c0cc3e1f7d8p+9", "0x1.a0bfcd7209240p+9",
            "0x1.01c8404a36266p+10", "0x1.381bd0ab4cbdep+10")),
    }

    @pytest.mark.parametrize("case, count", list(STEP_005_PINS))
    def test_scan_stays_within_its_band_of_the_step_005_pins(self, case, count):
        bound, pins = self.STEP_005_PINS[case, count]
        eigenvalues = scan_spectrum(ProblemSpec(*case), count).eigenvalues
        assert len(eigenvalues) == len(pins)
        for value, pinned in zip(eigenvalues, map(float.fromhex, pins)):
            assert rel_err(value, pinned) <= bound, (case, value, pinned)

    @pytest.mark.parametrize("case, count, ceiling, prefix", [
        ((8, 1, A), 8, 30.0, (
            "0x1.0fc5d62900537p+7", "0x1.dc3fd6ef17b68p+7", "0x1.6614743d36d1bp+8",
            "0x1.f115218eace9ep+8", "0x1.47c0cc3e1f7d8p+9", "0x1.a0bfcd7209240p+9")),
        ((1, 1, S), 2, 4.7, ("0x1.3bd3cc9be45eap+1",)),
    ])
    def test_exhausted_scan_keeps_its_pinned_prefix(self, case, count, ceiling, prefix):
        with pytest.raises(ScanExhaustedError) as exhausted:
            scan_spectrum(ProblemSpec(*case), count, lambda_ceiling=ceiling)
        assert tuple(v.hex() for v in exhausted.value.eigenvalues) == prefix
        assert str(exhausted.value) == (
            f"found only {len(prefix)} of {count} eigenvalues for {ProblemSpec(*case).label()} "
            f"below lambda={ceiling} (Lambda={ceiling ** 2:.6g})")  # p = 1

    def test_gap_witness_message_is_pinned(self):
        # (2,1,sym) has its roots at (k + 1) pi; a step of 5 puts 5 pi and 6 pi in
        # one grid cell, [15, 20], so the scan goes from 4 pi to 7 pi
        with pytest.raises(SolverError) as gap:
            scan_spectrum(ProblemSpec(2, 1, S), 3, step=5.0)
        assert type(gap.value) is SolverError
        assert str(gap.value) == (
            "root coordinate gap 3.00 pi from 12.566370614359172 to 21.991148575128552 "
            "for (n=2, p=1, sym): a root was skipped")

    def test_determinism(self):
        a = scan_spectrum(ProblemSpec(3, 2, S), 2)
        b = scan_spectrum(ProblemSpec(3, 2, S), 2)
        assert a.eigenvalues == b.eigenvalues

    def test_refinement_reuses_the_grid_and_converges_fast(self, monkeypatch):
        # the refiner starts from the two grid samples of its bracket, so the
        # scan evaluates the grid up to the end of the chunk holding its last
        # root, and one more point per refinement step; the brackets advance in
        # lockstep, so a round of steps is one kernel evaluation
        points = []
        original = solver.reduced_matrices

        def counted(specs, rho):
            points.append(len(rho))
            return original(specs, rho)

        monkeypatch.setattr(solver, "reduced_matrices", counted)
        evaluations = []
        for (n, p) in [(2, 1), (4, 2), (6, 3)]:
            for parity in (S, A):
                points.clear()
                out = scan_spectrum(ProblemSpec(n, p, parity), 5)
                refinement = out.metadata.refinement_iterations
                root = out.eigenvalues[-1] ** (1 / (2 * p))
                grid_points = math.floor(root / out.metadata.grid_step) + 1
                chunks = -(-grid_points // solver.SCAN_CHUNK)
                assert sum(points) == chunks * solver.SCAN_CHUNK + sum(refinement)
                assert len(points) == chunks + max(refinement)
                evaluations.extend(refinement)
        assert sum(evaluations) / len(evaluations) <= 8

    @pytest.mark.parametrize("chunk", [1, 7, solver.SCAN_CHUNK])
    def test_scan_is_independent_of_the_chunk_size(self, monkeypatch, chunk):
        cases = [(1, 1, S), (3, 2, A), (5, 1, S), (6, 3, A), (9, 4, S)]
        expected = {case: scan_spectrum(ProblemSpec(*case), 6) for case in cases}
        with pytest.raises(ScanExhaustedError) as exhausted:
            scan_spectrum(ProblemSpec(1, 1, S), 3, lambda_ceiling=2.0)
        monkeypatch.setattr(solver, "SCAN_CHUNK", chunk)
        for case, out in expected.items():
            assert scan_spectrum(ProblemSpec(*case), 6) == out, case
        with pytest.raises(ScanExhaustedError) as again:
            scan_spectrum(ProblemSpec(1, 1, S), 3, lambda_ceiling=2.0)
        assert again.value.args == exhausted.value.args
        assert (again.value.eigenvalues, again.value.ceiling) == (
            exhausted.value.eigenvalues, exhausted.value.ceiling)

    def test_refine_on_a_jump_stays_in_its_bracket(self):
        for jump in (0.1 + 1e-16, 0.1234567, 0.1499999999):
            trials = []

            def step_function(x):
                assert 0.1 < x < 0.15
                trials.append(x)
                return -1.0 if x < jump else 1.0

            root, evaluations = drive(solver._refine(0.1, -1.0, 0.15, 1.0), step_function)
            assert evaluations == len(trials) < 100
            assert abs(root - jump) <= 1e-15 + 4e-15 * 0.15

    @staticmethod
    def _run_fresh(code, openblas_threads):
        # this process imported rqlab, so its environment already carries
        # OPENBLAS_NUM_THREADS=1: the child's value is set or removed explicitly
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(rqlab.__file__).parents[1])
        if openblas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas_threads
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.strip()

    def test_import_leaves_scipy_out(self):
        # rqlab needs no scipy, so none may load; and a command reads its
        # flags without argparse, which would load gettext and locale
        code = (
            "import contextlib, io, sys, rqlab.cli\n"
            "def loaded(): return [m for m in sys.modules if m.split('.')[0] in "
            "('argparse', 'gettext', 'locale', 'scipy')]\n"
            "after_import = loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = rqlab.cli.main(['spectrum', '--n', '1', '--p', '1', '--count', '1'])\n"
            "print(code, after_import, loaded())\n"
        )
        assert self._run_fresh(code, None) == "0 [] []"

    def test_import_and_spectrum_leave_numpy_polynomial_out(self):
        # only the self-test's quadrature rule needs numpy.polynomial, imported on use
        code = (
            "import contextlib, io, sys, rqlab.cli\n"
            "def loaded(): return [m for m in sys.modules if m.startswith('numpy.polynomial')]\n"
            "after_import = loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = rqlab.cli.main(['spectrum', '--n', '1', '--p', '1', '--count', '1'])\n"
            "print(code, after_import, loaded())\n"
        )
        assert self._run_fresh(code, None) == "0 [] []"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_import_and_selftest_start_no_thread(self):
        # numpy's OpenBLAS runs on the calling thread, through import and the self-test
        code = (
            "import contextlib, io, os, rqlab.cli\n"
            "def threads(): return len(os.listdir('/proc/self/task'))\n"
            "after_import = threads()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = rqlab.cli.main(['selftest', '--cases', '1'])\n"
            "print(code, after_import, threads())\n"
        )
        assert self._run_fresh(code, None) == "0 1 1"

    def test_import_keeps_a_preset_openblas_thread_count(self):
        code = "import os, rqlab\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
        assert self._run_fresh(code, "2") == "2"


class TestExtraction:
    def test_2_1_closed_form_with_normalization(self):
        pair = extract_eigenfunction(ProblemSpec(2, 1, S), PI * PI, index=0)
        # normalized so <(z')^2> = 1: z = (1 + cos(pi x)) / pi
        for x in (-0.8, 0.0, 0.43, 1.0):
            expect = (1 + math.cos(PI * x)) / PI
            assert abs(pair.z.evaluate(x).real - expect) < 1e-12
        w = pair.z.differentiate(1)
        assert inner_product(w, w).real == pytest.approx(1.0, rel=1e-12)

    def test_1_1_closed_form(self):
        pair = extract_eigenfunction(ProblemSpec(1, 1, S), PI * PI / 4, index=0)
        for x in (-0.5, 0.0, 0.9):
            assert abs(pair.z.evaluate(x).real - math.cos(PI * x / 2)) < 1e-12

    def test_boundary_residual_bound(self):
        for (n, p, parity) in [(2, 1, S), (3, 2, A), (5, 2, S), (4, 4, S)]:
            cached_spectrum(n, p, parity, 2)  # one scan for both pairs
            for pair in (cached_eigenpair(n, p, parity, i) for i in range(2)):
                r = pair.residuals
                assert r.boundary_residual <= 1e-9 * r.boundary_scale
                assert r.operator_residual <= 1e-8 * r.operator_scale
                assert r.nullspace_quality <= 1e-6

    def test_eigenfunction_has_requested_parity(self):
        for parity, sign in ((S, 1.0), (A, -1.0)):
            pair = cached_eigenpair(3, 1, parity, 0)
            for x in (0.3, 0.77, 1.0):
                left = pair.z.evaluate(-x).real
                right = pair.z.evaluate(x).real
                assert abs(left - sign * right) < 1e-10 * max(abs(right), 1e-3)

    def test_quotient_equals_eigenvalue(self):
        # with <(z^(n-p))^2> = 1 the quotient reads directly as <(z^(n))^2>
        for (n, p) in [(2, 1), (3, 2), (4, 2)]:
            pair = cached_eigenpair(n, p, S, 0)
            hi = pair.z.differentiate(n)
            assert inner_product(hi, hi).real == pytest.approx(pair.Lambda, rel=1e-10)

    def test_extraction_away_from_eigenvalue_fails(self):
        with pytest.raises(SolverError):
            extract_eigenfunction(ProblemSpec(2, 1, S), 12.0)

    def test_kernel_and_poly_views(self):
        pair = extract_eigenfunction(ProblemSpec(2, 1, S), PI * PI, index=0)
        assert len(pair.kernel_coeffs) == 2
        assert pair.kernel_coeffs[0] == pytest.approx(pair.kernel_coeffs[1])  # cos split
        assert len(pair.poly_coeffs) == 1
        assert pair.poly_coeffs[0] == pytest.approx(1 / PI, rel=1e-12)

    @pytest.mark.parametrize("parity", [S, A])
    def test_kernel_frequencies_are_exactly_the_roots(self, parity):
        # the kernel template and root_system build mirror roots alike, so
        # kernel_coeffs can look each root's term up by exact frequency
        for n in range(1, 7):
            for p in range(1, n + 1):
                cached_spectrum(n, p, parity, 4)
                for index in range(4):
                    pair = cached_eigenpair(n, p, parity, index)
                    roots = root_system(p, pair.Lambda).roots
                    kernel = pair.z.nonzero_frequency_part()
                    assert {mu for mu, _ in kernel.terms} == {1j * r for r in roots}
                    assert all(pair.kernel_coeffs), (n, p, index)

    def test_rescaled_view(self):
        pair = cached_eigenpair(3, 1, S, 0)
        doubled = dataclasses.replace(pair, z=pair.z.scaled(2.0), normalized=False)
        mean = pair.z.integrate_unit().real
        assert doubled.z.integrate_unit().real == pytest.approx(2 * mean, rel=1e-13)
        assert not doubled.normalized
        assert doubled.poly_coeffs == tuple(2 * c for c in pair.poly_coeffs)
        assert doubled.kernel_coeffs == tuple(2 * c for c in pair.kernel_coeffs)
        assert len(doubled.kernel_coeffs) == 2 and len(doubled.poly_coeffs) == 3
        # the derivative table follows z and stays out of equality
        assert doubled.derivatives[0] is doubled.z
        assert doubled.derivatives == doubled.z.derivatives(6)
        same = dataclasses.replace(pair)
        assert same == pair and hash(same) == hash(pair)
        assert same.derivatives == pair.derivatives

    def test_extraction_evaluates_the_kernel_once(self, monkeypatch):
        calls = []
        original = solver.reduced_matrices

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "reduced_matrices", counted)
        Lambda = cached_spectrum(3, 1, S, 1)[0]
        calls.clear()
        pair = extract_eigenfunction(ProblemSpec(3, 1, S), Lambda, index=0)
        assert len(calls) == 1
        assert pair.residuals.det_indicator == det_indicator(ProblemSpec(3, 1, S), Lambda)

    @pytest.mark.parametrize("n, p", [(12, 1), (10, 3)])
    def test_high_index_pairs_meet_their_boundary_rows(self, n, p):
        # the n x n boundary matrix flagged most (12,1) pairs non-simple and
        # left up to 8e-10 on their boundary rows
        cached_spectrum(n, p, S, 20)
        for index in (0, 6, 12, 19):
            r = cached_eigenpair(n, p, S, index).residuals
            assert r.boundary_residual <= 1e-12 * r.boundary_scale, (n, p, index)
            assert r.operator_residual <= 1e-12 * r.operator_scale, (n, p, index)

    def test_sign_of_an_antisymmetric_kernel_only_pair_is_pinned(self):
        # at n = p an antisymmetric z has <z> = 0, no polynomial part and z(0) = 0,
        # so z'(0) fixes its sign
        for n in range(1, 7):
            cached_spectrum(n, n, A, 6)
            for index in range(6):
                z = cached_eigenpair(n, n, A, index).z
                assert z.differentiate(1).evaluate(0.0).real > 1e-6 * z.magnitude_bound()

    def test_a_second_small_singular_value_is_non_simple_only_at_p_of_2_or_more(
        self, monkeypatch
    ):
        Lambda = cached_spectrum(3, 2, S, 1)[0]
        svd = np.linalg.svd

        def twin_zeros(matrices):  # the stack of one extraction's matrices
            u, svals, vt = svd(matrices)
            tail = np.array([1e-12, 0.0])[-svals.shape[-1]:]
            svals[..., -len(tail):] = tail
            return u, svals, vt

        monkeypatch.setattr(np.linalg, "svd", twin_zeros)
        with pytest.raises(NonSimpleEigenvalueError, match="two near-zero singular values"):
            extract_eigenfunction(ProblemSpec(3, 2, S), Lambda)
        # at p = 1 R has one singular value, so an eigenvalue there is simple
        extract_eigenfunction(ProblemSpec(3, 1, S), cached_spectrum(3, 1, S, 1)[0])


class TestSpectrumStructure:
    def test_parity_shift_closed_form(self):
        reports = antisym_equals_next_sym(1, 1, 2, tol=1e-10)
        assert all(r.verdict == PASS for r in reports)
        anti = cached_spectrum(1, 1, A, 2)
        for value, expect in zip(anti, [PI * PI, 4 * PI * PI]):
            assert rel_err(value, expect) < 1e-12

    def test_parity_shift_2_2(self):
        reports = antisym_equals_next_sym(2, 2, 1, tol=1e-9)
        assert all(r.verdict == PASS for r in reports)

    def test_exact_tolerance_is_honored(self):
        reports = antisym_equals_next_sym(1, 1, 1, tol=0.0)
        # identical only on exact float coincidence; either outcome must be
        # reported honestly rather than upgraded
        assert reports[0].verdict in ("pass", "fail")
        assert (reports[0].rel_residual == 0.0) == (reports[0].verdict == PASS)

    def test_variational_ordering(self):
        for (n, p) in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            lo = cached_spectrum(n, p, S, 1)[0]
            hi = cached_spectrum(n + 1, p, S, 1)[0]
            assert lo <= hi * (1 + 1e-9)

    def test_strict_monotonicity_in_order(self):
        for p in (1, 2, 3):
            for n in range(p + 1, 7):
                lo = cached_spectrum(n - 1, p, S, 1)[0]
                hi = cached_spectrum(n, p, S, 1)[0]
                assert (hi - lo) / hi > 1e-6

    def test_high_order_envelope(self):
        # engineering envelope: n up to 8 stays at machine-precision residuals
        for (n, p) in [(7, 1), (8, 4)]:
            Lambda = scan_spectrum(ProblemSpec(n, p, S), 1).eigenvalues[0]
            r = extract_eigenfunction(ProblemSpec(n, p, S), Lambda, index=0).residuals
            assert r.operator_residual <= 1e-8 * r.operator_scale
            assert r.boundary_residual <= 1e-9 * r.boundary_scale

    @pytest.mark.parametrize("parity", [S, A])
    def test_index_witness_root_coordinate_gaps(self, parity):
        # per parity the roots lambda_k = Lambda_k^(1/2p) are spaced about pi
        # apart (0.997 pi to 1.15 pi for n <= 6), so a root skipped inside one
        # grid cell shows up as a gap near 2 pi
        for n in range(1, 5):
            for p in range(1, n + 1):
                roots = [v ** (1 / (2 * p)) for v in cached_spectrum(n, p, parity, 6)]
                for lo, hi in zip(roots, roots[1:]):
                    assert 0.75 * PI < hi - lo < 1.25 * PI, (n, p, lo, hi)

    def test_root_next_to_an_untrusted_grid_point_is_kept(self):
        # at (12, 12) the grid points within about 0.2 of a root fall inside the
        # sign's rounding bound; the bracket then spans them instead of losing the root
        spec = ProblemSpec(12, 12, S)
        roots = [v ** (1 / 24) for v in cached_spectrum(12, 12, S, 8)]
        untrusted = [lam for lam, _, trusted in solver.indicator_series(
            spec, (0.05 * k for k in range(1, 700))) if not trusted]
        for root in roots:
            assert any(abs(lam - root) < 0.05 for lam in untrusted), root
        for lo, hi in zip(roots, roots[1:]):
            assert 0.75 * PI < hi - lo < 1.25 * PI, (lo, hi)
        assert rel_err(cached_spectrum(9, 4, S, 8)[7], cached_spectrum(8, 4, A, 8)[7]) < 1e-10
        assert len(cached_spectrum(8, 1, S, 8)) == 8

    def test_parity_shift_to_machine_precision(self):
        for n in range(1, 5):
            for p in range(1, n + 1):
                reports = antisym_equals_next_sym(n, p, 5, tol=1e-14)
                assert all(r.verdict == PASS for r in reports), (n, p)

    def test_indicator_self_consistency_at_refined_eigenvalues(self):
        for (n, p, parity) in [(2, 1, S), (3, 2, S), (4, 2, A)]:
            spec = ProblemSpec(n, p, parity)
            for lam_value in cached_spectrum(n, p, parity, 2):
                local = max(
                    abs(det_indicator(spec, lam_value * 1.02)),
                    abs(det_indicator(spec, lam_value * 0.98)),
                )
                residual = abs(det_indicator(spec, lam_value))
                assert residual < 1e-9 * local


def count_calls(monkeypatch, *names):
    """Each named ``solver`` member wrapped to count its calls, and the counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(solver, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    return counts


class TestLazyResiduals:
    @pytest.fixture
    def calls(self, monkeypatch):
        """A cold start, with eigenpairs and residual records counted."""
        cold_start(monkeypatch)
        return count_calls(monkeypatch, "EigenPair", "EigenResiduals")

    @pytest.mark.parametrize(
        "argv, pairs, residuals",
        [
            # the identity suite and the candidate follow-ups read no residuals
            ("verify --n 3 --p 1 --count 2", 4, 0),
            ("disjoint --n 2 --m 4 --p 1 --count 5 --collision-tol 0.05", 4, 0),
            ("sweep --p 1 --n-max 5 --count 5 --collision-tol 0.05", 6, 0),
            # the spectrum table and the eigenfunction detail print them
            ("spectrum --n 3 --p 1 --count 3", 3, 3),
            ("eigenfunction --n 3 --p 1 --index 1", 1, 1),
        ],
    )
    def test_only_a_command_that_prints_residuals_builds_them(
        self, calls, capsys, argv, pairs, residuals
    ):
        assert main(argv.split()) == 0
        capsys.readouterr()
        assert calls == {"EigenPair": pairs, "EigenResiduals": residuals}

    def test_residuals_are_built_once_and_follow_z(self):
        pair = cached_eigenpair(3, 1, S, 0)
        assert pair.residuals is pair.residuals
        r = pair.residuals
        assert r.operator_residual > 0
        # a replaced copy reads its residuals off its own z: doubling z doubles each
        # residual and scale exactly, as the closed forms are homogeneous
        doubled = dataclasses.replace(pair, z=pair.z.scaled(2.0))
        assert doubled.residuals == dataclasses.replace(
            r, operator_residual=2 * r.operator_residual, operator_scale=2 * r.operator_scale,
            boundary_residual=2 * r.boundary_residual, boundary_scale=2 * r.boundary_scale)


def component_ulps(f, g) -> float:
    """The largest distance, in ulps of the larger, between matching parts of two term lists."""
    assert [mu for mu, _ in f.terms] == [mu for mu, _ in g.terms]
    return max((abs(u - v) / math.ulp(max(abs(u), abs(v)))
                for (_, a), (_, b) in zip(f.terms, g.terms) for x, y in zip(a, b, strict=True)
                for u, v in ((x.real, y.real), (x.imag, y.imag)) if u != v), default=0.0)


class TestClosedForms:
    """Norm, sign and residuals off z's terms, against the ExpPoly route of conftest."""

    @pytest.mark.parametrize("parity", [S, A])
    def test_every_order_up_to_12_matches_the_exppoly_route(self, parity):
        for n in range(1, 13):
            # the normalisation integral cancels more with each order: measured at most
            # 12 ulps for n <= 6, 791 at n = 10 and 65,977 (7.5e-12) at (12,2,antisym)
            ulps = max(16, 4 ** (n - 3))
            for p in range(1, n + 1):
                spec = ProblemSpec(n, p, parity)
                bound = 1e-12 if (n, p, parity) in ((12, 1, S), (10, 3, S)) else None
                for pair in solver.extract_eigenfunctions(spec, cached_spectrum(n, p, parity, 8)):
                    z = exppoly_route_pair(spec, pair.Lambda)
                    assert sum((a[0] * b[0].conjugate()).real
                               for (_, a), (_, b) in zip(z.terms, pair.z.terms)) > 0
                    assert component_ulps(z, pair.z) <= ulps, (spec.label(), pair.index)
                    r, old = pair.residuals, exppoly_route_residuals(pair)
                    assert r.boundary_residual <= (bound or 1e-9) * r.boundary_scale
                    assert r.operator_residual <= (bound or 1e-8) * r.operator_scale
                    # on the same z: the relative columns agree to 6e-26, the scales to
                    # 5.8e-13 relative, at (12,11,sym), where z^(24)'s norm cancels most
                    for column, scale in (("operator_residual", "operator_scale"),
                                          ("boundary_residual", "boundary_scale")):
                        assert abs(getattr(r, column) / getattr(r, scale)
                                   - old[column] / old[scale]) <= 1e-12
                        assert getattr(r, scale) == pytest.approx(old[scale], rel=1e-11)

    def test_anchors_and_the_injected_fault_have_their_exppoly_residuals(self):
        # constants at nonzero frequencies plus a polynomial, not extracted: the bump
        # x^2 of (2,1)'s corrupted pair leaves the operator a polynomial image
        anchors = closed_form_anchor_pairs()
        corrupted = _corrupted_pair(cached_eigenpair(2, 1, S, 0))
        for pair in (*anchors, corrupted):
            r, old = pair.residuals, exppoly_route_residuals(pair)
            for column in old:
                assert getattr(r, column) == pytest.approx(old[column], rel=1e-12, abs=1e-13)
        assert corrupted.residuals.operator_residual > 1e-3 * corrupted.residuals.operator_scale

    def test_a_polynomial_at_a_nonzero_frequency_has_no_closed_form(self):
        spec = ProblemSpec(2, 1, S)
        pair = solver.eigenpair_from_function(spec, PI * PI, ExpPoly.build([(1j, (1.0, 1.0))]))
        with pytest.raises(ValueError, match="constant coefficient"):
            pair.residuals

    @pytest.mark.parametrize("parity", [S, A])
    def test_a_batch_extracts_each_pair_as_alone(self, monkeypatch, parity):
        # every order n <= 12 at count 8: the stacked SVD gives each matrix's own null
        # vector, and each pair, with its residuals, is its own extraction's bit for bit
        svd, calls = np.linalg.svd, []

        def recorded(matrices):
            u, svals, vt = svd(matrices)
            calls.append((matrices, svals, vt))
            return u, svals, vt

        monkeypatch.setattr(np.linalg, "svd", recorded)
        for n in range(1, 13):
            for p in range(1, n + 1):
                spec = ProblemSpec(n, p, parity)
                eigenvalues = cached_spectrum(n, p, parity, 8)
                calls.clear()
                batch = solver.extract_eigenfunctions(spec, eigenvalues)
                ((stack, svals, vt),) = calls
                for i, (Lambda, pair) in enumerate(zip(eigenvalues, batch, strict=True)):
                    calls.clear()
                    alone = extract_eigenfunction(spec, Lambda, index=i)
                    ((one, one_svals, one_vt),) = calls
                    assert np.array_equal(one[0], stack[i]) and np.array_equal(one_vt[0], vt[i])
                    assert np.array_equal(one_svals[0], svals[i])
                    assert alone == pair and alone.residuals == pair.residuals


class TestNoExpPolyAlgebra:
    @pytest.fixture
    def algebra(self, monkeypatch):
        """A cold start, with ExpPoly products, canonical forms and derivative tables counted."""
        cold_start(monkeypatch)
        counts = {"__mul__": 0, "derivatives": 0, "_canonical": 0}
        for owner, name in ((ExpPoly, "__mul__"), (ExpPoly, "derivatives"),
                            (exppoly, "_canonical")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        return counts

    @pytest.mark.parametrize("argv", [
        "spectrum --n 4 --p 2 --count 4 --format json",
        "spectrum --n 3 --p 3 --parity antisym --count 3",
        "spectrum --n 12 --p 1 --count 3 --format csv",
        "eigenfunction --n 3 --p 1 --index 2 --format json",
        "eigenfunction --n 5 --p 5 --parity antisym --index 1",
    ])
    def test_spectrum_and_eigenfunction_fill_their_rows_without_it(self, algebra, capsys, argv):
        assert main(argv.split()) == 0
        assert capsys.readouterr().out
        assert algebra == {"__mul__": 0, "derivatives": 0, "_canonical": 0}

    def test_the_identity_suite_still_reads_the_derivative_table(self, algebra, capsys):
        assert main("verify --n 3 --p 1 --count 1".split()) == 0
        capsys.readouterr()
        assert algebra["derivatives"] > 0 and algebra["__mul__"] == 0


class TestSpectrumStore:
    @pytest.fixture
    def calls(self, monkeypatch):
        """An empty store, with scanned orders, extraction batches and extracted pairs counted."""
        monkeypatch.setattr(solver, "_STORE", {})
        calls = {"scanned_orders": 0, "batches": 0, "pairs": 0}
        original, extract = solver.scan_family, solver.extract_eigenfunctions

        def counted(specs, *args, **kwargs):
            calls["scanned_orders"] += len(specs)
            return original(specs, *args, **kwargs)

        def extracting(spec, eigenvalues, *args):
            calls["batches"] += 1
            calls["pairs"] += len(eigenvalues)
            return extract(spec, eigenvalues, *args)

        monkeypatch.setattr(solver, "scan_family", counted)
        monkeypatch.setattr(solver, "extract_eigenfunctions", extracting)
        return calls

    @pytest.mark.parametrize(
        "argv, scans, batches, pairs",
        [
            # orders 3, 2 and 4 for the suite, antisymmetric 3 for the parity shift;
            # each suite order's three pairs in one batch
            ("verify --n 3 --p 1 --count 3 --m 4", 4, 3, 9),
            # one candidate pair, one eigenpair on each side
            ("disjoint --n 3 --m 5 --p 1 --count 5 --collision-tol 0.05", 2, 2, 2),
            # a candidate at n = p has no stones to compare: no extraction
            ("disjoint --n 2 --m 4 --p 2 --count 4 --collision-tol 0.05", 2, 0, 0),
            ("eigenfunction --n 3 --p 1 --index 3", 1, 1, 1),
            # the cross-check column reads the store; Ritz needs no eigenpair
            ("ritz --n 3 --p 1 --K 12 --count 2 --cross-check", 1, 0, 0),
        ],
    )
    def test_each_order_is_scanned_once(self, calls, capsys, argv, scans, batches, pairs):
        assert main(argv.split()) == 0
        capsys.readouterr()
        assert calls == {"scanned_orders": scans, "batches": batches, "pairs": pairs}

    def test_longer_prefix_rescans_shorter_does_not(self, calls):
        cached_spectrum(2, 1, S, 2)
        cached_spectrum(2, 1, S, 1)
        assert calls["scanned_orders"] == 1
        cached_spectrum(2, 1, S, 3)
        cached_eigenpair(2, 1, S, 2)
        cached_eigenpair(2, 1, S, 2)
        assert calls == {"scanned_orders": 2, "batches": 1, "pairs": 1}

    def test_the_suite_extracts_a_missing_prefix_in_one_batch(self, calls):
        eigenvalues = cached_spectrum(3, 1, S, 4)
        held = cached_eigenpair(3, 1, S, 2)
        pairs = inv._pairs(3, 1, 4)
        # one batch from the first missing index to the end; the held pair is kept
        assert calls == {"scanned_orders": 1, "batches": 2, "pairs": 5}
        assert pairs[2] is held and [pair.index for pair in pairs] == [0, 1, 2, 3]
        assert inv._pairs(3, 1, 4) == pairs and calls["batches"] == 2
        for i, pair in enumerate(pairs):
            alone = extract_eigenfunction(ProblemSpec(3, 1, S), eigenvalues[i], index=i)
            assert alone == pair and alone.residuals == pair.residuals

    def test_the_first_failing_index_raises_and_the_pairs_before_it_are_kept(
            self, calls, monkeypatch):
        extract = solver.extract_eigenfunctions

        def failing(spec, eigenvalues, first_index=0):
            outcomes = extract(spec, eigenvalues, first_index)
            return outcomes[:1] + [SolverError(f"index {first_index + i}")
                                   for i in range(1, len(outcomes))]

        monkeypatch.setattr(solver, "extract_eigenfunctions", failing)
        with pytest.raises(SolverError, match="^index 1$"):
            inv._pairs(3, 1, 3)
        assert sorted(solver._STORE[(3, 1, S)].pairs) == [0]

    def test_exhausted_scan_is_kept(self, calls, monkeypatch):
        # (1,1,sym) has lambda = (k + 1/2) pi, so a ceiling of 5 holds two roots
        spec = ProblemSpec(1, 1, S)
        fresh = {}
        for count in (3, 4):
            with pytest.raises(SolverError) as exc:
                scan_spectrum(spec, count, lambda_ceiling=5.0)
            fresh[count] = str(exc.value)
        prefix = scan_spectrum(spec, 2, lambda_ceiling=5.0)
        monkeypatch.setattr(solver, "scan_family",
                            functools.partial(solver.scan_family, lambda_ceiling=5.0))
        calls["scanned_orders"] = 0
        for count in (3, 3, 4):
            with pytest.raises(SolverError) as caught:
                cached_spectrum(1, 1, S, count)
            assert str(caught.value) == fresh[count]
        assert str(caught.value).startswith("found only 2 of 4 eigenvalues")
        assert cached_spectrum(1, 1, S, 2) == prefix.eigenvalues
        assert cached_spectrum(1, 1, S, 1) == prefix.eigenvalues[:1]
        assert calls["scanned_orders"] == 1

    @pytest.mark.parametrize("n, p, parity", [(3, 1, S), (4, 2, A), (5, 3, S)])
    def test_store_is_bit_identical_to_a_direct_scan(self, monkeypatch, n, p, parity):
        monkeypatch.setattr(solver, "_STORE", {})
        spec = ProblemSpec(n, p, parity)
        longer = scan_spectrum(spec, 5).eigenvalues
        assert cached_spectrum(n, p, parity, 2) == longer[:2]
        assert cached_spectrum(n, p, parity, 5) == longer
        shorter = scan_spectrum(spec, 2).eigenvalues
        assert cached_eigenpair(n, p, parity, 1).z == extract_eigenfunction(spec, shorter[1]).z

    def test_count_validation(self):
        with pytest.raises(ConfigError):
            cached_spectrum(1, 1, S, 0)

    @pytest.mark.parametrize("n, p, parity", [(1, 2, S), (2, 1, "sideways")])
    def test_invalid_order_leaves_the_store_unchanged(self, calls, n, p, parity):
        with pytest.raises(ConfigError):
            cached_spectrum(n, p, parity, 1)
        assert solver._STORE == {} and calls["scanned_orders"] == 0


def outcome_of(scan):
    """A scan's slice, or its error as (type, message, the roots it kept)."""
    try:
        return scan()
    except SolverError as exc:
        return type(exc), str(exc), getattr(exc, "eigenvalues", None)


class TestFamilyScan:
    @pytest.mark.parametrize("parity", [S, A])
    def test_every_order_up_to_12_scanned_together_equals_its_own_scan(self, parity):
        # the 78 orders n <= 12 of each parity, all of one p in one lockstep
        for p in range(1, 13):
            specs = [ProblemSpec(n, p, parity) for n in range(p, 13)]
            for spec, together in zip(specs, solver.scan_family(specs, 20), strict=True):
                alone = scan_spectrum(spec, 20)
                assert together.eigenvalues == alone.eigenvalues, spec.label()
                for f in dataclasses.fields(solver.ScanMetadata):
                    assert getattr(together.metadata, f.name) == getattr(alone.metadata, f.name)

    @pytest.mark.parametrize("orders, count, options, failing", [
        # (1,1) holds both roots below the ceiling, (5,1) runs out of grid
        ([1, 5], 2, {"lambda_ceiling": 5.0}, [False, True]),
        # a step of 4 skips a root of orders 2 and 4 only
        ([1, 2, 3, 4], 3, {"step": 4.0}, [False, True, False, True]),
        # rho^2 underflows, so (3,3) is degenerate at the first chunk while (7,3)
        # walks on, to the end of a grid that holds none of its roots
        ([3, 7], 1, {"step": 1e-170, "lambda_ceiling": 1e-166}, [True, True]),
        # rho^2 overflows, so (3,1)'s powers would fill (1,1)'s padding with nan;
        # alone, (1,1) finds its grid too coarse and (3,1) finds no root
        ([1, 3], 2, {"step": 1e155, "lambda_ceiling": 1e159}, [True, True]),
    ])
    def test_an_order_that_fails_fails_as_it_does_alone(self, orders, count, options, failing):
        p = min(orders)
        specs = [ProblemSpec(n, p, S) for n in orders]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # an overflowing order's own
            together = solver.scan_family(specs, count, **options)
            alone = [outcome_of(lambda: scan_spectrum(spec, count, **options)) for spec in specs]
        assert [isinstance(outcome, SolverError) for outcome in together] == failing
        for outcome, expected in zip(together, alone, strict=True):
            if isinstance(outcome, SolverError):
                outcome = type(outcome), str(outcome), getattr(outcome, "eigenvalues", None)
            assert outcome == expected
        if p == 3:
            assert isinstance(together[0], DegenerateSystemError)
            assert isinstance(together[1], ScanExhaustedError)

    def test_a_family_shares_p_and_parity(self):
        with pytest.raises(ConfigError, match="share p and parity"):
            solver.scan_family([ProblemSpec(2, 1, S), ProblemSpec(2, 2, S)], 1)
        with pytest.raises(ConfigError, match="share p and parity"):
            solver.scan_family([ProblemSpec(2, 1, S), ProblemSpec(3, 1, A)], 1)

    def test_the_walk_resumes_across_chunks(self):
        # one sample at a time, or all at once, the walk ends alike
        samples = [(0.1 * k, math.cos(k), k % 7 != 3) for k in range(1, 80)]
        walks = []
        for wanted in (3, 40):
            for chunk in (1, 5, len(samples)):
                walk = solver._walk(wanted)
                next(walk)
                try:
                    for start in range(0, len(samples), chunk):
                        for sample in samples[start:start + chunk]:
                            walk.send(sample)
                    walk.send(None)
                except StopIteration as done:
                    walks.append((wanted, done.value))
        assert walks[0] == walks[1] == walks[2] and len(walks[0][1][0]) == 3
        assert walks[3] == walks[4] == walks[5] and len(walks[3][1][0]) < 40

    def test_a_store_request_scans_its_stale_orders_together(self, monkeypatch):
        monkeypatch.setattr(solver, "_STORE", {})
        families = []
        original = solver.scan_family

        def recorded(specs, *args, **kwargs):
            families.append([spec.n for spec in specs])
            return original(specs, *args, **kwargs)

        expected = {n: direct_scan(n, 1, S, 4) for n in (1, 3, 5)}
        monkeypatch.setattr(solver, "scan_family", recorded)
        assert cached_spectrum(3, 1, S, 4) == expected[3]
        assert solver.cached_spectra([5, 3, 1, 5], 1, S, 4) == expected
        assert families == [[3], [1, 5]]

    @pytest.mark.parametrize("argv, families", [
        # the suite's orders n-1, n and --m and the parity shift's n+1, then antisymmetric n
        ("verify --n 3 --p 1 --count 2", [[(2, S), (3, S), (4, S)], [(3, A)]]),
        ("verify --n 3 --p 1 --count 2 --m 6", [[(2, S), (3, S), (4, S), (6, S)], [(3, A)]]),
        ("verify --n 2 --p 2 --count 2 --inject-fault", [[(2, S), (3, S)], [(2, A)]]),
        # an order the suite refuses scans nothing
        ("verify --n 3 --p 1 --count 2 --m 3", []),
    ])
    def test_verify_scans_its_symmetric_orders_in_one_lockstep(
        self, monkeypatch, capsys, argv, families
    ):
        monkeypatch.setattr(solver, "_STORE", {})
        scanned = []
        original = solver.scan_family

        def recorded(specs, *args, **kwargs):
            scanned.append([(spec.n, spec.parity) for spec in specs])
            return original(specs, *args, **kwargs)

        monkeypatch.setattr(solver, "scan_family", recorded)
        main(argv.split())
        capsys.readouterr()
        assert scanned == families


class TestOneProducer:
    def test_every_evaluation_of_R_goes_through_reduced_matrices(self, monkeypatch):
        calls = []  # (orders, points) of each call
        original = solver.reduced_matrices

        def counted(specs, rho):
            calls.append((len(specs), len(rho)))
            return original(specs, rho)

        monkeypatch.setattr(solver, "_STORE", {})
        monkeypatch.setattr(solver, "reduced_matrices", counted)
        spec = ProblemSpec(3, 1, S)
        out = scan_spectrum(spec, 2)
        refinement = out.metadata.refinement_iterations
        assert sum(points for _, points in calls) == solver.SCAN_CHUNK + sum(refinement)
        assert {orders for orders, _ in calls} == {1}
        calls.clear()
        solver.cached_spectra([1, 3, 5], 1, S, 2)
        assert calls and {orders for orders, _ in calls} == {3}
        Lambda = cached_spectrum(3, 1, S, 1)[0]
        calls.clear()
        pair = extract_eigenfunction(spec, Lambda, index=0)
        solver.eigenpair_from_function(spec, Lambda, pair.z, index=0)
        list(solver.indicator_series(spec, [1.0, 2.0, 3.0]))
        assert calls == [(1, 1), (1, 1), (1, 3)]

    def test_an_overflowing_family_evaluates_each_order_as_alone(self):
        # rho^2 overflows at 1e155, so (1,1)'s padding powers are zeroed, not inf
        specs = (ProblemSpec(1, 1, S), ProblemSpec(3, 1, S))
        rhos = [1.0, 2.5, 1e155]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # (3,1)'s own overflow
            together, degenerate, _, _ = reduced_matrices(specs, rhos)
            for order, spec in enumerate(specs):
                assert np.array_equal(together[order], one_order(spec, rhos), equal_nan=True)
            as_array = reduced_matrices(specs, np.array(rhos))[0]
        assert not degenerate and np.isfinite(together[0]).all()
        assert np.array_equal(as_array, together, equal_nan=True)


@functools.cache
def direct_scan(n, p, parity, count, step=solver.DEFAULT_SCAN_STEP):
    """Eigenvalues of a direct scan of (n, p, parity), shared by the tests below."""
    return scan_spectrum(ProblemSpec(n, p, parity), count, step=step).eigenvalues


def rhos_of(n, p, parity, count):
    """Root coordinates of a direct scan of (n, p, parity)."""
    return [root_system(p, v).rho for v in direct_scan(n, p, parity, count)]


# every order with n <= 8, and those that a stored order n-2 interlaces (p <= n-2)
PAIRS = [(n, p) for n in range(1, 9) for p in range(1, n + 1)]
ORDERS = [(n, p, parity) for n, p in PAIRS for parity in (S, A)]
INTERLACED_ORDERS = [(n, p, parity) for n, p, parity in ORDERS if p <= n - 2]


class TestScanStep:
    @pytest.mark.parametrize("parity", [S, A])
    def test_the_default_step_lies_far_below_the_root_spacing(self, parity):
        # roots lie at least 3.13 apart in rho, and Poincare's inequality, applied
        # p times to u^(n-p), gives Lambda >= (pi/2)^(2p), so rho >= pi/2
        for n, p in PAIRS:
            roots = rhos_of(n, p, parity, 8)
            assert roots[0] >= PI / 2, (n, p)
            assert min(hi - lo for lo, hi in zip(roots, roots[1:])) >= 10 * solver.DEFAULT_SCAN_STEP
            fine = direct_scan(n, p, parity, 8, step=0.05)
            coarse = direct_scan(n, p, parity, 8)
            assert all(rel_err(a, b) <= 1e-13 for a, b in zip(coarse, fine)), (n, p)


class TestInterlacedScan:
    @pytest.fixture
    def store(self, monkeypatch):
        """An empty store."""
        monkeypatch.setattr(solver, "_STORE", {})
        return solver._STORE

    def test_full_scans_interlace_with_order_n_minus_2(self):
        # Lambda_k(n-2) <= Lambda_k(n) <= Lambda_(k+1)(n-2), strictly on every scan
        for n, p, parity in INTERLACED_ORDERS:
            lower, upper = rhos_of(n - 2, p, parity, 8), rhos_of(n, p, parity, 8)
            for k in range(7):
                assert lower[k] < upper[k] < lower[k + 1], (n, p, parity, k)

    def test_every_store_scan_equals_the_direct_scan(self, store):
        # ascending n checks each order against the stored order n-2, and the longer
        # rescans in descending n check it against order n+2 as well
        for n, p, parity in ORDERS:
            assert cached_spectrum(n, p, parity, 4) == direct_scan(n, p, parity, 4)
        for n, p, parity in reversed(ORDERS):
            assert cached_spectrum(n, p, parity, 8) == direct_scan(n, p, parity, 8)
        assert all(len(order.eigenvalues) == 8 for order in store.values())

    @pytest.mark.parametrize("neighbour, message", [
        (3, r"Lambda_2 = \S+ of \(n=3, p=2, sym\) exceeds Lambda_2 = \S+ of \(n=5, p=2, sym\)"),
        (7, r"Lambda_2 = \S+ of \(n=7, p=2, sym\) exceeds Lambda_3 = \S+ of \(n=5, p=2, sym\)"),
    ])
    def test_a_store_scan_that_breaks_a_stored_orders_brackets_raises(
        self, store, neighbour, message
    ):
        # root 2 of the stored order moves past root 2 (n = 3) or root 3 (n = 7) of order 5
        values = list(direct_scan(neighbour, 2, S, 8))
        values[2] = direct_scan(5, 2, S, 8)[2 if neighbour < 5 else 3] * 1.01
        store[(neighbour, 2, S)] = solver._Order(tuple(values))
        with pytest.raises(SolverError, match=message):
            cached_spectrum(5, 2, S, 8)
        assert store[(5, 2, S)].eigenvalues == ()

    def test_roots_equal_to_a_neighbouring_orders_within_the_slack_pass(self, store):
        # root 0 of the stored order 3 is root 0 of order 5, and root 2 lies below
        # root 1 of order 5 by half the slack in the root coordinate
        upper = direct_scan(5, 2, S, 8)
        lower = list(direct_scan(3, 2, S, 8))
        lower[0], lower[2] = upper[0], upper[1] * (1 - solver.INTERLACING_SLACK / 2) ** 4
        assert lower[2] < upper[1]
        store[(3, 2, S)] = solver._Order(tuple(lower))
        assert cached_spectrum(5, 2, S, 8) == upper
