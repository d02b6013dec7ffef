"""Stone/moment apparatus and the identity suite."""

import dataclasses
import json

import pytest

from rqlab import invariants as inv
from rqlab.cli import main
from rqlab.errors import IdentityViolationError
from rqlab.exppoly import ExpPoly
from rqlab.problem import ProblemSpec, reduced_operator
from rqlab.reporting import NOT_APPLICABLE, PASS
from rqlab.selftest import closed_form_anchor_pairs, identity_anchor_checks
from rqlab.solver import cached_eigenpair, cached_spectrum, eigenpair_from_function

from conftest import PI, cold_start, quad_integral, rel_err

S = "symmetric"


@pytest.fixture(scope="module")
def z1():
    return closed_form_anchor_pairs()[0]


@pytest.fixture(scope="module")
def z2():
    return closed_form_anchor_pairs()[1]


@pytest.fixture(scope="module")
def anchors():
    """The hand-value anchor reports of the self-test, by identity id."""
    return {r.identity_id: r for r in identity_anchor_checks()}


class TestStone:
    def test_closed_form_value(self, anchors):
        report = anchors["anchor-stone"]
        assert rel_err(report.lhs, report.rhs) <= 1e-13

    def test_undefined_for_order_equal_offset(self, z1):
        with pytest.raises(ValueError):
            inv.stone(z1)

    def test_kernel_alone_gives_zero(self, z2):
        kernel_only = eigenpair_from_function(z2.spec, z2.Lambda, z2.z.nonzero_frequency_part(), 0)
        assert abs(inv.stone(kernel_only)) < 1e-10

    def test_scaling_invariance_of_checks(self, z2):
        base = inv.check_stone_identity(z2)
        doubled = inv.check_stone_identity(
            dataclasses.replace(z2, z=z2.z.scaled(2.0), normalized=False)
        )
        assert doubled.verdict == PASS and base.verdict == PASS
        assert doubled.lhs == pytest.approx(4 * base.lhs, rel=1e-12)
        assert doubled.rhs == pytest.approx(4 * base.rhs, rel=1e-12)


class TestStonePolynomials:
    def test_hand_values_for_3_1(self):
        pair = cached_eigenpair(3, 1, S, 0)
        lam2 = pair.Lambda
        b, c = pair.poly_coeffs[0], pair.poly_coeffs[2]
        sp = inv.stone_polynomials(pair)
        assert sp.coefficients[0] == pytest.approx(2 * c * lam2, rel=1e-10)
        assert sp.coefficients[1] == pytest.approx(2 * c + lam2 * b, rel=1e-10)
        h1 = sp.h(1).zero_frequency_coefficients()
        assert h1[2].real == pytest.approx(lam2 * c, rel=1e-10)
        ladder = sp.h(1).differentiate(2) - sp.h(0)
        assert ladder.magnitude_bound() <= 1e-12 * sp.h(0).magnitude_bound()

    def test_negative_index_convention(self, z2):
        sp = inv.stone_polynomials(z2)
        assert not sp.h(-1).terms
        assert not sp.h(-5).terms

    def test_single_stone_for_2_1(self, z2):
        sp = inv.stone_polynomials(z2)
        assert sp.coefficients == pytest.approx((-PI * PI,), rel=1e-12)

    def test_cross_order_consistency_enforced(self):
        pair = cached_eigenpair(5, 1, S, 0)
        sp = inv.stone_polynomials(pair)
        assert len(sp.coefficients) == 4  # k = 0..n-p-1

    def test_rejects_wrong_parity(self):
        pair = cached_eigenpair(3, 1, "antisymmetric", 0)
        for ladder in (inv.stone_polynomials, inv.stone_coefficients, inv.stone):
            with pytest.raises(ValueError):
                ladder(pair)

    def test_unchecked_coefficients_are_the_checked_ladder(self):
        for n in range(2, 7):
            for p in range(1, min(n - 1, 3) + 1):
                for index in range(3):
                    pair = cached_eigenpair(n, p, S, index)
                    unchecked = [c.hex() for c in inv.stone_coefficients(pair)]
                    assert unchecked == [c.hex() for c in inv.stone_polynomials(pair).coefficients]
                    assert inv.stone(pair).hex() == unchecked[0]


class TestOneLadderPerPair:
    def test_verify_builds_one_ladder_per_pair(self, monkeypatch, capsys):
        cold_start(monkeypatch)
        assert main("verify --n 4 --p 1 --count 3".split()) == 0
        assert inv.stone_polynomials.cache_info().currsize == 6  # three pairs each of (4,1), (3,1)

    def test_the_collision_follow_up_builds_no_ladder(self, monkeypatch, capsys):
        cold_start(monkeypatch)
        assert main("disjoint --n 2 --m 4 --p 1 --count 5 --collision-tol 0.05 "
                    "--format json".split()) == 0
        assert json.loads(capsys.readouterr().out)["results"]["condition_reports"]
        assert inv.stone_polynomials.cache_info().currsize == 0


class TestResidues:
    def test_one_reduced_operator_per_residue(self, monkeypatch):
        cold_start(monkeypatch)
        calls = []

        def counted(spec, Lambda, order):
            calls.append((spec, Lambda, order))
            return reduced_operator(spec, Lambda, order)

        monkeypatch.setattr(inv, "reduced_operator", counted)
        inv.run_identity_suite(4, 1, count=3)
        # orders 3, 2, 1 for each of three (4,1) pairs; 2, 1 for three (3,1) pairs
        assert len(calls) == len(set(calls)) == 15

    def test_each_eigenfunction_is_differentiated_once(self, monkeypatch):
        cold_start(monkeypatch)
        pairs = [cached_eigenpair(n, 1, S, i) for n in (3, 4) for i in range(3)]
        tables = {id(entry) for pair in pairs for entry in pair.derivatives}
        starts = []

        def recording(walk):
            def recorded(self, *args):
                starts.append(id(self))
                return walk(self, *args)
            return recorded

        for name in ("differentiate", "derivatives"):
            monkeypatch.setattr(ExpPoly, name, recording(getattr(ExpPoly, name)))
        inv.run_identity_suite(4, 1, count=3)
        # the suite reads every derivative of z off the pair's table; only the
        # stone polynomials' own ladder check differentiates
        assert starts and not tables.intersection(starts)

    def test_each_integral_is_evaluated_once(self, monkeypatch):
        cold_start(monkeypatch)
        calls = []

        def recording(name, integral):
            def recorded(*args):
                calls.append((name, *args))
                return integral(*args)
            return recorded

        for name in ("inner_product", "hermitian_inner_product", "l2_norm_sq"):
            monkeypatch.setattr(inv, name, recording(name, getattr(inv, name)))
        inv.run_identity_suite(4, 1, count=3)
        # moments, norms of the half-factor images and <z h^k> are each read
        # by several checks, yet each of the 156 distinct integrals is taken
        # once (recomputing them per check takes 312)
        assert len(calls) == len(set(calls)) == 156

    def test_strict_guard_on_a_perturbed_eigenvalue(self):
        genuine = cached_eigenpair(4, 1, S, 0)
        bad = dataclasses.replace(genuine, Lambda=genuine.Lambda * (1 + 1e-6))
        for _ in range(2):  # a raise is never remembered as a pass
            with pytest.raises(IdentityViolationError, match=r"\(order 3\)"):
                inv.stone_polynomials(bad)
        assert len(inv.stone_coefficients(bad)) == 3  # measured, not refused
        assert len(inv.stone_polynomials(genuine).coefficients) == 3
        assert inv.kernel_annihilation_residual(genuine) < 1e-14
        assert 1e-7 < inv.kernel_annihilation_residual(bad) < 1e-5


class TestMomentsAndBrackets:
    def test_moment_anchors(self, z1, z2):
        assert inv.moments(z1, 0)[0] == pytest.approx(4 / PI, rel=1e-13)
        a = inv.moments(z2, 1)
        assert a[0] == pytest.approx(2.0, rel=1e-13)
        # independent quadrature confirmation of the closed-form value 1/3 - 2/pi^2
        oracle = quad_integral(z2.z * ExpPoly.monomial(2)).real / 2.0
        assert a[1] == pytest.approx(1 / 3 - 2 / PI**2, rel=1e-12)
        assert a[1] == pytest.approx(oracle, rel=1e-10)

    def test_zero_function_moments(self):
        zero = eigenpair_from_function(ProblemSpec(2, 1, S), PI * PI, ExpPoly.zero(), 0)
        assert inv.moments(zero, 3) == [0.0, 0.0, 0.0, 0.0]

    def test_bracket_conventions(self):
        assert inv.bracket([1.0], [1.0], -1) == 0.0
        assert inv.bracket([4 / PI], [-PI * PI], 0) == pytest.approx(-4 * PI, rel=1e-14)
        assert inv.bracket([1.0, 0.0], [1.0, 0.0], 1) == 0.0
        with pytest.raises(IndexError):
            inv.bracket([1.0], [1.0], 1)


class TestStoneIdentity:
    def test_closed_form_anchor(self, z2):
        report = inv.check_stone_identity(z2)
        assert report.verdict == PASS
        assert report.lhs == pytest.approx(2 * PI**4, rel=1e-12)
        assert report.rhs == pytest.approx(2 * PI**4, rel=1e-12)

    def test_not_applicable_for_n_equal_p(self, z1):
        assert inv.check_stone_identity(z1).verdict == "not-applicable"

    def test_strictly_positive_on_numeric_pair(self):
        report = inv.check_stone_identity(cached_eigenpair(3, 1, S, 0))
        assert report.verdict == PASS and report.lhs > 0


class TestCrossIdentity:
    def test_closed_form_anchor(self, z1, z2, anchors):
        assert inv.check_cross_identity(z1, z2).verdict == PASS
        for side in ("lhs", "rhs"):
            report = anchors[f"anchor-cross-{side}"]
            assert rel_err(report.lhs, report.rhs) <= 1e-12

    def test_numeric_adjacent_orders(self):
        report = inv.check_cross_identity(cached_eigenpair(2, 1, S, 0), cached_eigenpair(3, 1, S, 0))
        assert report.verdict == PASS and report.rel_residual < 1e-8

    def test_order_validation(self, z1, z2):
        with pytest.raises(ValueError):
            inv.check_cross_identity(z2, z1)


class TestBilinearFamily:
    def test_closed_form_anchor_both_routes(self, z1, z2):
        report = inv.check_bilinear_family(z1, z2, -1)
        assert report.verdict == PASS
        assert report.lhs == pytest.approx(-4 * PI, rel=1e-12)
        assert report.details["bracket_lhs"] == pytest.approx(4 * PI, rel=1e-12)
        assert report.details["bracket_rel_residual"] < 1e-12
        assert report.details["route_consistency"] < 1e-12

    def test_out_of_range_not_applicable(self, z1, z2):
        assert inv.check_bilinear_family(z1, z2, -3).verdict == "not-applicable"
        assert inv.check_bilinear_family(z1, z2, 5).verdict == "not-applicable"

    def test_numeric_family_all_admissible_shifts(self):
        zn = cached_eigenpair(3, 1, S, 0)
        zm = cached_eigenpair(5, 1, S, 1)
        q = (5 - 3) // 2
        for k in range(-1 - q, 3 - 1):
            report = inv.check_bilinear_family(zn, zm, k)
            assert report.verdict == PASS, (k, report)
            assert report.details["route_consistency"] < 1e-9


class TestPositivityFamily:
    def test_closed_form_anchor(self, z2, anchors):
        assert inv.check_positivity_family(z2, 0).verdict == PASS
        for route in ("norm_route", "h_route", "bracket_route"):
            report = anchors[f"anchor-positivity-{route}"]
            assert rel_err(report.lhs, report.rhs) <= 1e-12

    def test_numeric_3_1_both_shifts(self):
        pair = cached_eigenpair(3, 1, S, 0)
        for k in (0, 1):
            report = inv.check_positivity_family(pair, k)
            assert report.verdict == PASS
            assert report.rel_residual < 1e-8
            assert min(report.details["norm_route"], report.details["bracket_route"]) > 0

    def test_out_of_range(self, z2):
        assert inv.check_positivity_family(z2, 3).verdict == "not-applicable"


class TestCauchySchwarz:
    def test_equality_case_flagged_proportional(self):
        pair = cached_eigenpair(3, 1, S, 0)
        report = inv.check_cauchy_schwarz(pair, pair, l=0, k=0)
        assert report.verdict == PASS
        assert report.details["proportional"]

    def test_strict_case(self):
        report = inv.check_cauchy_schwarz(
            cached_eigenpair(2, 1, S, 0), cached_eigenpair(3, 1, S, 0), l=0, k=0
        )
        assert report.verdict == PASS
        assert not report.details["proportional"]
        assert report.lhs >= 0 and report.rhs >= 0

    def test_out_of_range_combinations(self):
        zn = cached_eigenpair(2, 1, S, 0)
        zm = cached_eigenpair(3, 1, S, 0)
        assert inv.check_cauchy_schwarz(zn, zm, l=5, k=0).verdict == "not-applicable"
        assert inv.check_cauchy_schwarz(zn, zm, l=0, k=7).verdict == "not-applicable"


class TestRootCompleteness:
    def test_closed_form(self, z2):
        report = inv.check_root_completeness(z2)
        assert report.verdict == PASS
        assert report.details["weight_ratios"] == pytest.approx((1.0, 1.0))

    def test_2_2_all_four_roots_present(self):
        report = inv.check_root_completeness(cached_eigenpair(2, 2, S, 0))
        assert report.verdict == PASS

    @pytest.mark.parametrize("n, floor", [(5, 0.45), (6, 0.33)])
    def test_weights_are_term_sizes_on_the_interval(self, n, floor):
        # index 4 of (n, 2): the raw |c| of the imaginary roots is about e^(-rho)
        # of the real ones', so a raw ratio would call a root missing
        cached_spectrum(n, 2, S, 5)
        pair = cached_eigenpair(n, 2, S, 4)
        raw = [abs(c) for c in pair.kernel_coeffs]
        assert min(raw) / max(raw) < 1e-8
        report = inv.check_root_completeness(pair)
        assert report.verdict == PASS and report.lhs > floor

    def test_synthetic_missing_root_fails(self):
        Lam = 31.285243858777125
        rho = Lam**0.25
        missing = eigenpair_from_function(ProblemSpec(2, 2, S), Lam, ExpPoly.cosine(rho), 0)
        assert inv.check_root_completeness(missing).verdict != PASS


class TestXiDerivatives:
    def test_expansion_coefficients(self):
        assert inv.square_variable_derivative(2) == (inv.Fraction(-1, 4), inv.Fraction(1, 4))

    def test_closed_form_2_1(self, z2):
        assert inv.check_xi_derivatives(z2).verdict == PASS

    def test_numeric_3_2(self):
        report = inv.check_xi_derivatives(cached_eigenpair(3, 2, S, 0))
        assert report.verdict == PASS
        assert "kernel_k1" in report.details and "kernel_k2" in report.details

    def test_full_grid_row(self):
        for (n, p) in [(4, 1), (5, 2), (6, 3)]:
            assert inv.check_xi_derivatives(cached_eigenpair(n, p, S, 0)).verdict == PASS

    def test_non_eigenfunction_fails(self):
        # negative control: a clamped-looking but wrong function is caught
        fake = ExpPoly.cosine(PI) + ExpPoly.cosine(2 * PI)
        pair = eigenpair_from_function(ProblemSpec(3, 1, S), PI * PI, fake, 0)
        assert inv.check_xi_derivatives(pair).verdict != PASS


class TestGammaExpansion:
    def test_degree_zero(self, z2):
        assert inv.gamma_expansion(z2) == pytest.approx([1.0])

    def test_3_1_substitution(self):
        pair = cached_eigenpair(3, 1, S, 0)
        b, c = pair.poly_coeffs[0], pair.poly_coeffs[2]
        gamma = inv.gamma_expansion(pair)
        assert gamma[0] == pytest.approx(b + c, rel=1e-12)
        assert gamma[1] == pytest.approx(c, rel=1e-12)

    def test_requires_polynomial_part(self, z1):
        with pytest.raises(ValueError):
            inv.gamma_expansion(z1)


class TestSuiteRunner:
    def test_all_pass_on_sample_cells(self):
        for (n, p) in [(3, 1), (4, 2)]:
            reports = inv.run_identity_suite(n, p, count=2)
            failed = [r for r in reports if r.verdict == "fail"]
            assert not failed, failed
            ids = {r.identity_id for r in reports}
            assert {"stone-identity", "cross-order", "bilinear", "positivity",
                    "root-completeness", "xi-flatness"} <= ids

    def test_explicit_partner_order(self):
        reports = inv.run_identity_suite(3, 1, count=1, m=5)
        bilinear = [r for r in reports
                    if r.identity_id == "bilinear" and r.verdict != NOT_APPLICABLE]
        assert bilinear and all(r.verdict == PASS for r in bilinear)
        assert all(r.index[0] == 3 and r.index[1] == 5 for r in bilinear)

    def test_partner_order_past_the_derivative_table(self):
        # at m = 7, k = -4 the bilinear coupling reads the third derivative of
        # an order-1 eigenfunction, past its table (z, z', z'')
        reports = inv.run_identity_suite(1, 1, count=1, m=7)
        bilinear = [r for r in reports if r.identity_id == "bilinear"]
        assert [r.index[3] for r in bilinear] == [-4, -3, -2, -1]
        assert all(r.verdict == PASS for r in bilinear)
