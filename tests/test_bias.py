"""Closed-form bias algebra against brute-force enumeration oracles.

The enumeration helpers in this file are written from scratch (no
package machinery) so the closed forms and the oracles stay independent.
"""

import math
from itertools import product

import pytest

from hbcool.bias import (
    ErrorRates,
    debias_step,
    fibonacci,
    prob_from_bias,
    steady_state_bias,
    steady_state_bias_noisy,
    three_bc_bias,
    three_bc_bias_unequal,
    two_bc_accept_bias,
    two_bc_accept_prob,
)

TOL = 1e-12


def iterate_to_fixed_point(step, start: float, tol: float, max_iter: int = 1_000_000) -> float:
    """Plain iteration x -> step(x) until a step moves x by less than tol."""
    x = start
    for _ in range(max_iter):
        nx = step(x)
        if abs(nx - x) < tol:
            return nx
        x = nx
    raise AssertionError(f"no fixed point within {max_iter} iterations")


def enum_majority_bias(biases):
    """8-state enumeration of the 3-bit majority's output bias."""
    ps = [(1 + b) / 2 for b in biases]
    p0 = 0.0
    for bits in product((0, 1), repeat=3):
        w = math.prod(ps[i] if bits[i] == 0 else 1 - ps[i] for i in range(3))
        if sum(bits) <= 1:
            p0 += w
    return 2 * p0 - 1


def enum_two_bc(b):
    """4-state enumeration: (accept bias, accept probability)."""
    p = (1 + b) / 2
    num = den = 0.0
    for bc, bt in product((0, 1), repeat=2):
        w = (p if bc == 0 else 1 - p) * (p if bt == 0 else 1 - p)
        if bc ^ bt == 0:
            den += w
            if bc == 0:
                num += w
    return 2 * (num / den) - 1, den


class TestProbabilityConversions:
    def test_round_trip(self):
        for p in [0.0, 0.1, 0.25, 0.5, 2 / 3, 0.99, 1.0]:
            assert prob_from_bias(2.0 * p - 1.0) == pytest.approx(p, abs=1e-15)


class TestTwoBitCompression:
    def test_frozen_examples(self):
        assert two_bc_accept_bias(0.5) == pytest.approx(0.8, abs=TOL)
        assert two_bc_accept_bias(0.0) == 0.0
        assert two_bc_accept_bias(1.0) == 1.0
        assert two_bc_accept_prob(0.5) == pytest.approx(0.625, abs=TOL)
        assert two_bc_accept_prob(0.0) == 0.5
        assert two_bc_accept_prob(1.0) == 1.0

    def test_matches_enumeration(self):
        for b in [0.1 * k for k in range(1, 10)]:
            bias, prob = enum_two_bc(b)
            assert two_bc_accept_bias(b) == pytest.approx(bias, abs=TOL)
            assert two_bc_accept_prob(b) == pytest.approx(prob, abs=TOL)

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            two_bc_accept_bias(-0.2)

    def test_monotone_gain(self):
        # strict improvement on (0, 1), sampled densely
        for k in range(1, 10_000):
            b = k / 10_000
            assert two_bc_accept_bias(b) > b


class TestThreeBitCompression:
    def test_frozen_examples(self):
        assert three_bc_bias(0.5) == pytest.approx(0.6875, abs=TOL)
        assert three_bc_bias(0.0) == 0.0
        assert three_bc_bias(1.0) == 1.0

    def test_matches_enumeration(self):
        for b in [0.1 * k for k in range(1, 10)]:
            assert three_bc_bias(b) == pytest.approx(enum_majority_bias([b] * 3), abs=TOL)

    def test_unequal_matches_enumeration(self):
        assert three_bc_bias_unequal(0.2, 0.4, 0.6) == pytest.approx(0.576, abs=TOL)
        assert three_bc_bias_unequal(0.2, 0.4, 0.6) == pytest.approx(
            enum_majority_bias([0.2, 0.4, 0.6]), abs=TOL)

    def test_unequal_consistent_with_equal(self):
        assert three_bc_bias_unequal(0.5, 0.5, 0.5) == pytest.approx(
            three_bc_bias(0.5), abs=TOL)

    def test_two_pure_bits_force_majority(self):
        assert three_bc_bias_unequal(1.0, 1.0, 0.3) == pytest.approx(1.0, abs=TOL)

    def test_monotone_gain(self):
        for k in range(1, 10_000):
            b = k / 10_000
            assert three_bc_bias(b) > b

    def test_fixed_points(self):
        for b in (-1.0, 0.0, 1.0):
            assert three_bc_bias(b) == b
        # and no others: the gain polynomial b(1 - b^2)/2 vanishes only there
        for b in (-0.9, -0.3, 0.2, 0.7, 0.99):
            assert three_bc_bias(b) != b


class TestSteadyStates:
    def test_matches_fixed_point_iteration(self):
        got = steady_state_bias(0.2, 0.4)
        iterated = iterate_to_fixed_point(
            lambda x: three_bc_bias_unequal(0.2, 0.4, x), 0.0, tol=1e-15)
        assert got == pytest.approx(iterated, abs=TOL)
        assert got == pytest.approx(0.5555555555555556, abs=TOL)

    def test_edge_cases(self):
        assert steady_state_bias(1.0, 1.0) == 1.0
        assert steady_state_bias(0.0, 0.0) == 0.0

    def test_is_fixed_point(self):
        for ba, bb in [(0.2, 0.4), (0.1, 0.9), (0.5, 0.5), (0.0, 0.7)]:
            ss = steady_state_bias(ba, bb)
            assert three_bc_bias_unequal(ba, bb, ss) == pytest.approx(ss, abs=TOL)


class TestDebiasChannel:
    def test_fixed_point_invariant(self):
        rates = ErrorRates.from_sd(0.2, 0.1)
        assert debias_step(0.5, rates) == pytest.approx(0.5, abs=TOL)

    def test_one_step_markov_oracle(self):
        # start at p = 0.95 through the (eps0, eps1) = (0.05, 0.15) chain
        rates = ErrorRates(0.05, 0.15)
        p_next = 0.95 * (1 - 0.05) + 0.05 * 0.15
        assert debias_step(0.9, rates) == pytest.approx(2 * p_next - 1, abs=TOL)
        assert debias_step(0.9, rates) == pytest.approx(0.82, abs=TOL)

    def test_symmetric_slice(self):
        rates = ErrorRates.symmetric(0.1)
        assert rates.d == 0.0
        assert debias_step(0.5, rates) == pytest.approx(0.5 * (1 - 2 * 0.1), abs=TOL)

    def test_exact_contraction(self):
        rates = ErrorRates.from_sd(0.2, 0.1)
        center = rates.d / rates.s
        for b in (-0.5, 0.0, 0.3, 0.9):
            lhs = abs(debias_step(b, rates) - center)
            assert lhs == pytest.approx((1 - rates.s) * abs(b - center), abs=1e-15)


class TestNoisySteadyState:
    def test_matches_fixed_point_iteration(self):
        rates = ErrorRates.from_sd(0.2, 0.1)
        got = steady_state_bias_noisy(0.5, 0.5, rates)
        iterated = iterate_to_fixed_point(
            lambda x: debias_step(three_bc_bias_unequal(0.5, 0.5, x), rates), 0.0,
            tol=1e-15)
        assert got == pytest.approx(iterated, abs=TOL)
        assert got == pytest.approx(0.7142857142857143, abs=TOL)

    def test_noiseless_reduction(self):
        rates = ErrorRates.symmetric(0.0)
        assert steady_state_bias_noisy(0.2, 0.4, rates) == pytest.approx(
            steady_state_bias(0.2, 0.4), abs=TOL)

    def test_zero_bias_pair(self):
        rates = ErrorRates.from_sd(0.2, 0.1)
        got = steady_state_bias_noisy(0.0, 0.0, rates)
        assert got == pytest.approx(0.2 / 1.2, abs=TOL)
        iterated = iterate_to_fixed_point(
            lambda x: debias_step(three_bc_bias_unequal(0.0, 0.0, x), rates), 0.0,
            tol=1e-15)
        assert got == pytest.approx(iterated, abs=TOL)

    def test_is_fixed_point_of_composed_map(self):
        for ba, bb, s, d in [(0.5, 0.5, 0.2, 0.1), (0.2, 0.7, 0.1, 0.05),
                             (0.9, 0.1, 0.3, 0.2)]:
            rates = ErrorRates.from_sd(s, d)
            ss = steady_state_bias_noisy(ba, bb, rates)
            composed = debias_step(three_bc_bias_unequal(ba, bb, ss), rates)
            assert composed == pytest.approx(ss, abs=TOL)


class TestErrorRates:
    def test_symmetric_constructor(self):
        r = ErrorRates.symmetric(0.1)
        assert (r.eps0, r.eps1, r.s, r.d) == (0.1, 0.1, 0.2, 0.0)

    def test_from_sd_round_trip(self):
        r = ErrorRates.from_sd(0.2, 0.1)
        assert r.eps0 == pytest.approx(0.05, abs=1e-15)
        assert r.eps1 == pytest.approx(0.15, abs=1e-15)
        assert r.s == pytest.approx(0.2) and r.d == pytest.approx(0.1)

    @pytest.mark.parametrize("eps0, eps1", [(-0.01, 0.1), (0.5, 0.1), (0.1, 0.6)])
    def test_invalid_rates(self, eps0, eps1):
        with pytest.raises(ValueError):
            ErrorRates(eps0, eps1)

    def test_derived_bounds(self):
        r = ErrorRates(0.3, 0.45)
        assert r.s < 1.0
        assert abs(r.d) <= r.s


class TestFibonacci:
    def test_convention(self):
        assert fibonacci(1) == 1
        assert fibonacci(2) == 1
        assert fibonacci(20) == 6765
        assert fibonacci(26) == 121393

    def test_recurrence_exact(self):
        seq = [fibonacci(n) for n in range(1, 91)]
        assert seq[:2] == [1, 1]
        for j in range(2, 90):
            assert seq[j] == seq[j - 1] + seq[j - 2]

    @pytest.mark.parametrize("n", [0, -3])
    def test_domain_errors(self, n):
        with pytest.raises(ValueError):
            fibonacci(n)
