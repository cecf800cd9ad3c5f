"""Noisy enumeration against independent oracles.

`algebra_noisy_bias` below re-derives the noisy majority output from the
closed-form expression for the final bit (tracing the three gates by
hand), completely bypassing the package's circuit machinery, so the two
routes stay independent.
"""

import math
from itertools import product

import pytest

from hbcool.bias import ErrorRates, three_bc_bias
from hbcool.circuits import circuit_from_text, majority_circuit_toffoli
from hbcool.distribution import product_distribution
from hbcool.noise import RatePolynomial, enumerate_noisy_output_bias, transfer_table
from oracles import (best_bias_over_permutations, brute_force_best_permutation_bias,
                     optimal_permutation_bias)

TOL = 1e-12


def pattern_bits(index, n_sites):
    """Error pattern (e_1, ..., e_n) for a pattern index; e_1 is the LSB."""
    if not (0 <= index < (1 << n_sites)):
        raise ValueError(f"pattern index {index} out of range for {n_sites} sites")
    return tuple((index >> k) & 1 for k in range(n_sites))


def pattern_index(bits):
    """Inverse of pattern_bits: sum of e_k * 2^(k-1) over 1-based k."""
    return sum(e << k for k, e in enumerate(bits))


def symmetric_pattern_probability(bits, eps):
    """Probability of one error pattern when every site flips i.i.d. at rate eps."""
    if not (0.0 <= eps < 0.5):
        raise ValueError("need 0 <= eps < 1/2")
    weight = sum(bits)
    return eps**weight * (1.0 - eps) ** (len(bits) - weight)


def run_with_flips(circuit, x, flips):
    """Run a circuit on basis state x with a NOT at every noise site whose flag
    in `flips` (one 0/1 entry per site, in site order) is set."""
    if len(flips) != len(circuit.noise_sites):
        raise ValueError("one flip flag per noise site required")
    for pos in range(len(circuit.gates) + 1):
        if pos > 0:
            x = circuit.gates[pos - 1].apply_to_state(x)
        for flip, (site_pos, bit) in zip(flips, circuit.noise_sites):
            if flip and site_pos == pos:
                x ^= 1 << bit
    return x


def final_a_expression(a, b, c, e):
    """Closed-form final value of bit A with flips e1..e7 inserted."""
    e1, e2, e3, e4, e5, e6, e7 = e
    return (a + e1 + e4 + e7 + (a + b + e2 + e5) * (a + c + e1 + e3 + e6)) % 2


def hand_trace(a, b, c, e):
    """Gate-by-gate hand trace returning (final bits, per-site pre-flip values)."""
    A, B, C = a, b, c
    B ^= A
    pre = [A, B, C]
    A ^= e[0]
    B ^= e[1]
    C ^= e[2]
    C ^= A
    pre += [A, B, C]
    A ^= e[3]
    B ^= e[4]
    C ^= e[5]
    A ^= B & C
    pre.append(A)
    A ^= e[6]
    return (A, B, C), pre


def algebra_noisy_bias(bias, rates):
    """Exact noisy output bias from the hand trace (independent oracle)."""
    p = (1 + bias) / 2
    terms = []
    for a, b, c in product((0, 1), repeat=3):
        w_in = math.prod(p if v == 0 else 1 - p for v in (a, b, c))
        for e in product((0, 1), repeat=7):
            (A, _, _), pre = hand_trace(a, b, c, e)
            w = w_in
            for value, flipped in zip(pre, e):
                if value == 0:
                    w *= rates.eps0 if flipped else 1 - rates.eps0
                else:
                    w *= rates.eps1 if flipped else 1 - rates.eps1
            if A == 0:
                terms.append(w)
    return 2 * math.fsum(terms) - 1


class TestErrorPatterns:
    def test_index_round_trip(self):
        for i in range(128):
            assert pattern_index(pattern_bits(i, 7)) == i

    def test_first_site_is_low_bit(self):
        assert pattern_bits(1, 7) == (1, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("eps", [0.0, 0.001, 0.04, 0.25, 0.49])
    def test_probabilities_sum_to_one(self, eps):
        total = math.fsum(symmetric_pattern_probability(pattern_bits(i, 7), eps)
                          for i in range(128))
        assert total == pytest.approx(1.0, abs=TOL)


class TestGateLevelEqualsExpression:
    def test_all_tuples(self):
        circuit = majority_circuit_toffoli()
        for a, b, c in product((0, 1), repeat=3):
            x = a | b << 1 | c << 2
            for pattern in range(128):
                flips = pattern_bits(pattern, 7)
                y = run_with_flips(circuit, x, flips)
                assert y & 1 == final_a_expression(a, b, c, flips)

    def test_hand_trace_matches_expression(self):
        for a, b, c in product((0, 1), repeat=3):
            for pattern in range(128):
                flips = pattern_bits(pattern, 7)
                (A, _, _), _ = hand_trace(a, b, c, flips)
                assert A == final_a_expression(a, b, c, flips)


class TestEnumeration:
    def test_noiseless_reduces_to_majority(self):
        circuit = majority_circuit_toffoli()
        got = enumerate_noisy_output_bias(circuit, 0.5, ErrorRates.symmetric(0.0))
        assert got == pytest.approx(0.6875, abs=TOL)

    def test_frozen_symmetric_value(self):
        circuit = majority_circuit_toffoli()
        got = enumerate_noisy_output_bias(circuit, 0.5, ErrorRates.symmetric(0.01))
        assert got == pytest.approx(0.6365050903959999, abs=TOL)

    @pytest.mark.parametrize("bias", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("eps0, eps1", [(0.01, 0.01), (0.005, 0.015), (0.0, 0.3)])
    def test_matches_independent_algebra(self, bias, eps0, eps1):
        circuit = majority_circuit_toffoli()
        rates = ErrorRates(eps0, eps1)
        got = enumerate_noisy_output_bias(circuit, bias, rates)
        assert got == pytest.approx(algebra_noisy_bias(bias, rates), abs=1e-15)

    @pytest.mark.parametrize("bias", [0.2, 0.7])
    def test_matches_channel_propagation(self, bias):
        # pushing the distribution through gates + channels is a third route
        circuit = majority_circuit_toffoli()
        rates = ErrorRates(0.02, 0.07)
        d = circuit.run_with_channels(product_distribution([bias] * 3), rates)
        got = enumerate_noisy_output_bias(circuit, bias, rates)
        assert got == pytest.approx(d.marginal_bias(0), abs=1e-14)

    def test_per_bit_biases_accepted(self):
        circuit = majority_circuit_toffoli()
        rates = ErrorRates.symmetric(0.0)
        got = enumerate_noisy_output_bias(circuit, [0.2, 0.4, 0.6], rates)
        assert got == pytest.approx((0.2 + 0.4 + 0.6 - 0.2 * 0.4 * 0.6) / 2, abs=TOL)

    def test_output_bit_range_checked(self):
        with pytest.raises(ValueError):
            enumerate_noisy_output_bias(majority_circuit_toffoli(), 0.5,
                                        ErrorRates.symmetric(0.0), output_bit=3)

    def test_parsed_circuit_with_leading_noise_site(self):
        # a site at position 0 flips before any gate runs; cross-check the
        # tuple enumeration against channel propagation on a parsed circuit
        from hbcool.circuits import circuit_from_text
        text = "NOT 1\nCNOT 2 1:1\nNOISE 0 0\nNOISE 1 1\nNOISE 2 2\n"
        circuit = circuit_from_text(text)
        rates = ErrorRates(0.03, 0.11)
        biases = [0.3, -0.2, 0.5]
        enum = enumerate_noisy_output_bias(circuit, biases, rates, output_bit=2)
        d = circuit.run_with_channels(product_distribution(biases), rates)
        assert enum == pytest.approx(d.marginal_bias(2), abs=1e-14)


# the leading-site circuit above with bits 0 and 2 swapped, so the output is bit 0
LEADING_SITE_TEXT = "NOT 1\nCNOT 0 1:1\nNOISE 0 2\nNOISE 1 1\nNOISE 2 0\n"

# 5 bits and 8 sites: 2^13 tuples keep the enumerator under 0.1 s per call
FIVE_BIT_TEXT = """
CNOT 1 4:1
CNOT 2 4:1
TOFFOLI 4 1:1 2:1
CSWAP 3 0 4:1
CNOT 0 3:0
NOISE 0 3
NOISE 1 4
NOISE 1 1
NOISE 2 2
NOISE 3 4
NOISE 3 0
NOISE 4 3
NOISE 5 0
"""

TABLE_CASES = [
    pytest.param(majority_circuit_toffoli(), [0.3, -0.2, 0.6], id="majority"),
    pytest.param(circuit_from_text(LEADING_SITE_TEXT), [0.5, -0.2, 0.3], id="leading-site"),
    pytest.param(circuit_from_text(FIVE_BIT_TEXT), [-0.9, -0.4, 0.1, 0.55, 0.7],
                 id="five-bit"),
]


def evaluate(q, rates):
    """A rate polynomial's value at the given rates, its terms summed with math.fsum."""
    return math.fsum(c * rates.eps0**i * rates.eps1**j for c, i, j in q.terms)


def table_bias(table, biases, rates):
    """2 * sum_x P(x) q_x(rates) - 1 for independent input bits."""
    ps = [(1 + b) / 2 for b in biases]
    terms = [evaluate(q, rates)
             * math.prod(p if (x >> i) & 1 == 0 else 1 - p for i, p in enumerate(ps))
             for x, q in enumerate(table)]
    return 2 * math.fsum(terms) - 1


class TestTransferTable:
    @pytest.mark.parametrize("eps0, eps1", [(0.0, 0.0), (0.01, 0.01), (0.005, 0.015),
                                            (0.0, 0.3), (0.2, 0.45)])
    @pytest.mark.parametrize("circuit, biases", TABLE_CASES)
    def test_weighted_sum_matches_enumeration(self, circuit, biases, eps0, eps1):
        rates = ErrorRates(eps0, eps1)
        table = transfer_table(circuit)
        assert len(table) == 1 << circuit.width
        enum = enumerate_noisy_output_bias(circuit, biases, rates)
        assert table_bias(table, biases, rates) == pytest.approx(enum, abs=1e-14)

    @pytest.mark.parametrize("circuit, biases", TABLE_CASES)
    def test_noiseless_entries_are_the_output_bit(self, circuit, biases):
        for x, q in enumerate(transfer_table(circuit)):
            reads_zero = circuit.apply_to_state(x) & 1 == 0
            assert evaluate(q, ErrorRates(0.0, 0.0)) == (1.0 if reads_zero else 0.0)
            # the constant term is the noiseless entry; every other term carries a rate
            constant = [c for c, i, j in q.terms if i == j == 0]
            assert constant == ([1] if reads_zero else [])

    @pytest.mark.parametrize("circuit, biases", TABLE_CASES)
    def test_coefficients_are_integers_up_to_the_site_count(self, circuit, biases):
        # each site contributes one factor eps_v or 1 - eps_v to every path
        for q in transfer_table(circuit):
            assert all(type(c) is int and c != 0 for c, _, _ in q.terms)
            assert all(i + j <= len(circuit.noise_sites) for _, i, j in q.terms)

    def test_polynomial_sum(self):
        a = RatePolynomial(((1, 0, 0), (-2, 1, 0)))
        b = RatePolynomial(((2, 1, 0), (3, 0, 2)))
        assert a + b == RatePolynomial(((1, 0, 0), (3, 0, 2)))
        assert evaluate(a + b, ErrorRates(0.1, 0.2)) == pytest.approx(1 + 3 * 0.04, abs=1e-15)
        assert evaluate(RatePolynomial(), ErrorRates(0.1, 0.2)) == 0.0

    def test_width_limit(self):
        # one row per input basis state, kept to 2^10 rows
        assert len(transfer_table(circuit_from_text("NOT 9\n"))) == 1024
        with pytest.raises(ValueError, match="at most 10"):
            transfer_table(circuit_from_text("NOT 10\n"))


class TestOptimalPermutation:
    def test_identity_on_one_bit(self):
        assert optimal_permutation_bias(1, 0.5) == pytest.approx(0.5, abs=TOL)

    def test_three_bits_is_majority(self):
        assert optimal_permutation_bias(3, 0.5) == pytest.approx(0.6875, abs=TOL)
        for b in (0.1, 0.4, 0.8):
            assert optimal_permutation_bias(3, b) == pytest.approx(
                three_bc_bias(b), abs=TOL)

    def test_five_bits_closed_form(self):
        assert optimal_permutation_bias(5, 0.5) == pytest.approx(0.79296875, abs=TOL)

    def test_five_bits_vs_state_enumeration(self):
        # direct 32-state majority count, independent of the binomial form
        p = 0.75
        p0 = 0.0
        for x in range(32):
            zeros = 5 - bin(x).count("1")
            w = p**zeros * (1 - p) ** (5 - zeros)
            if zeros >= 3:
                p0 += w
        assert optimal_permutation_bias(5, 0.5) == pytest.approx(2 * p0 - 1, abs=TOL)

    def test_sorting_argument_agrees(self):
        for n in (1, 3, 5):
            for b in (0.3, 0.5, 0.9):
                assert best_bias_over_permutations(n, b) == pytest.approx(
                    optimal_permutation_bias(n, b), abs=TOL)

    def test_even_or_big_n_rejected(self):
        with pytest.raises(ValueError):
            optimal_permutation_bias(4, 0.5)
        with pytest.raises(ValueError):
            best_bias_over_permutations(7, 0.5)

    def test_exhaustive_search_attains_majority(self):
        # every one of the 8! permutations is checked; none beats the majority
        assert brute_force_best_permutation_bias(0.5) == 0.6875
