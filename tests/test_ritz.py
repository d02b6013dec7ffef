"""Variational oracle: exact assembly, bound property, convergence."""

import math
from fractions import Fraction

import pytest

from rqlab.errors import ConfigError
from rqlab.problem import ProblemSpec
from rqlab.ritz import MAX_BASIS_SIZE, assemble, rayleigh_quotient, ritz_values, ritz_vector
from rqlab.solver import cached_spectrum

from conftest import PI, bisect_root, rel_err

S = "symmetric"


class TestAssembly:
    def test_1_1_hand_integrals(self):
        system = assemble(ProblemSpec(1, 1, S), 1)
        assert system.stiffness_exact[0][0] == Fraction(8, 3)
        assert system.mass_exact[0][0] == Fraction(16, 15)

    def test_exact_symmetry(self):
        for spec in (ProblemSpec(2, 1, S), ProblemSpec(3, 2, "antisymmetric")):
            system = assemble(spec, 6)
            for i in range(6):
                for j in range(6):
                    assert system.stiffness_exact[i][j] == system.stiffness_exact[j][i]
                    assert system.mass_exact[i][j] == system.mass_exact[j][i]

    def test_size_guards(self):
        with pytest.raises(ConfigError):
            assemble(ProblemSpec(1, 1, S), 0)
        with pytest.raises(ConfigError):
            assemble(ProblemSpec(1, 1, S), MAX_BASIS_SIZE + 1)


class TestValues:
    def test_first_value_k1(self):
        assert ritz_values(assemble(ProblemSpec(1, 1, S), 1), 1)[0] == pytest.approx(2.5)

    def test_2_1_converges_to_pi_squared(self):
        value = ritz_values(assemble(ProblemSpec(2, 1, S), 8), 1)[0]
        assert value - PI * PI <= 1e-8
        assert value >= PI * PI - 1e-12

    def test_2_2_against_bisection_oracle(self):
        root = bisect_root(lambda t: math.tan(t) + math.tanh(t), PI / 2 + 1e-9, PI)
        value = ritz_values(assemble(ProblemSpec(2, 2, S), 12), 1)[0]
        assert rel_err(value, root**4) < 1e-6

    def test_monotone_nonincreasing_in_K(self):
        for spec in (ProblemSpec(1, 1, S), ProblemSpec(3, 1, S)):
            previous = None
            for K in range(2, 21):
                value = ritz_values(assemble(spec, K), 1)[0]
                if previous is not None:
                    assert value <= previous * (1 + 1e-12)
                previous = value

    def test_upper_bound_property_on_grid(self):
        for n in range(1, 7):
            for p in range(1, min(n, 3) + 1):
                spec = ProblemSpec(n, p, S)
                true_value = cached_spectrum(n, p, S, 1)[0]
                ritz = ritz_values(assemble(spec, 12), 1)[0]
                assert ritz >= true_value * (1 - 1e-9)

    def test_higher_index_agreement_where_converged(self):
        # K=20 has converged well past index 2 for these low-order problems
        for (n, p, count) in [(1, 1, 3), (2, 1, 3), (3, 1, 3), (2, 2, 2)]:
            spec = ProblemSpec(n, p, S)
            det = cached_spectrum(n, p, S, count)
            values = ritz_values(assemble(spec, 20), count)
            for got, want in zip(values, det):
                assert rel_err(got, want) < 1e-6

    def test_count_validation(self):
        system = assemble(ProblemSpec(1, 1, S), 3)
        with pytest.raises(ConfigError):
            ritz_values(system, 4)


class TestVectors:
    def test_rayleigh_quotient_consistency(self):
        spec = ProblemSpec(2, 2, S)
        value, fn = ritz_vector(assemble(spec, 12), 0)
        assert rel_err(rayleigh_quotient(spec, fn), value) < 1e-10

    def test_trial_functions_are_clamped(self):
        spec = ProblemSpec(3, 1, S)
        system = assemble(spec, 4)
        for k in range(4):
            fn = system.trial_function(k)
            for j in range(spec.n):
                assert abs(fn.derivative_at(j, 1.0)) < 1e-12
                assert abs(fn.derivative_at(j, -1.0)) < 1e-12
