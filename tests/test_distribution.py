from itertools import product

import numpy as np
import pytest

from hbcool.bias import ErrorRates, prob_from_bias
from hbcool.distribution import MAX_WIDTH, JointDistribution, product_distribution

TOL = 1e-12


class TestProductDistribution:
    def test_single_unbiased_bit(self):
        d = product_distribution([0.0])
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

    def test_two_pure_bits(self):
        d = product_distribution([1.0, 1.0])
        np.testing.assert_allclose(d.probs, [1, 0, 0, 0])

    def test_hamming_weight_structure(self):
        d = product_distribution([0.5, 0.5, 0.5])
        for x in range(8):
            w = bin(x).count("1")
            assert d.probs[x] == pytest.approx(0.75 ** (3 - w) * 0.25**w, abs=TOL)

    def test_marginals_of_product(self):
        d = product_distribution([0.3, 0.7])
        assert d.marginal_bias(0) == pytest.approx(0.3, abs=TOL)
        assert d.marginal_bias(1) == pytest.approx(0.7, abs=TOL)

    def test_uniform_marginal(self):
        d = product_distribution([0.0, 0.0])
        assert d.marginal_bias(1) == pytest.approx(0.0, abs=TOL)

    def test_width_limit(self):
        with pytest.raises(ValueError):
            product_distribution([0.0] * (MAX_WIDTH + 1))

    def test_full_width_register(self):
        d = product_distribution([0.1] * MAX_WIDTH)
        assert d.width == MAX_WIDTH
        out = d.apply_bitflip_channel(MAX_WIDTH - 1, ErrorRates.symmetric(0.25))
        assert out.marginal_bias(MAX_WIDTH - 1) == pytest.approx(0.05, abs=TOL)
        assert out.marginal_bias(0) == pytest.approx(0.1, abs=TOL)
        assert float(out.probs.sum()) == pytest.approx(1.0, abs=TOL)


class TestValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            JointDistribution([1.1, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            JointDistribution([0.6, 0.6])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            JointDistribution([0.5, 0.25, 0.25])


class TestBitflipChannel:
    def test_single_bit_symmetric(self):
        d = product_distribution([0.5])  # p = 0.75
        out = d.apply_bitflip_channel(0, ErrorRates.symmetric(0.1))
        assert out.prob_bit_is(0, 0) == pytest.approx(0.75 * 0.9 + 0.25 * 0.1, abs=TOL)
        assert out.marginal_bias(0) == pytest.approx(0.4, abs=TOL)

    def test_zero_rate_is_identity(self):
        d = product_distribution([0.37, -0.2])
        out = d.apply_bitflip_channel(1, ErrorRates.symmetric(0.0))
        np.testing.assert_array_equal(out.probs, d.probs)

    def test_asymmetric_fixed_point(self):
        d = product_distribution([0.5])
        out = d.apply_bitflip_channel(0, ErrorRates(0.05, 0.15))
        assert out.marginal_bias(0) == pytest.approx(0.5, abs=TOL)

    def test_probability_conserved(self):
        d = product_distribution([0.2, -0.4, 0.9])
        for bit in range(3):
            d = d.apply_bitflip_channel(bit, ErrorRates(0.07, 0.31))
            assert float(d.probs.sum()) == pytest.approx(1.0, abs=TOL)

    def test_only_selected_bit_touched(self):
        d = product_distribution([0.2, 0.6])
        out = d.apply_bitflip_channel(0, ErrorRates.symmetric(0.25))
        assert out.marginal_bias(1) == pytest.approx(0.6, abs=TOL)


class TestConditioning:
    def test_renormalizes(self):
        d = product_distribution([0.5, 0.5])
        cond, p = d.condition_on(1, 0)
        assert p == pytest.approx(0.75, abs=TOL)
        assert float(cond.probs.sum()) == pytest.approx(1.0, abs=TOL)
        assert cond.prob_bit_is(1, 1) == 0.0

    def test_zero_probability_event(self):
        d = product_distribution([1.0])
        with pytest.raises(ValueError):
            d.condition_on(0, 1)

    def test_bad_bit_index(self):
        d = product_distribution([0.0])
        with pytest.raises(ValueError):
            d.marginal_bias(1)

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_rejects_values_other_than_bits(self, value):
        d = product_distribution([0.3, 0.6])
        with pytest.raises(ValueError, match="0 or 1"):
            d.prob_bit_is(0, value)
        with pytest.raises(ValueError, match="0 or 1"):
            d.condition_on(0, value)


def _dyadic_register(width: int) -> JointDistribution:
    """Distinct multiples of 2^-30: sums of them are exact in any order."""
    rng = np.random.default_rng(width)
    weights = rng.permutation(np.arange(1, (1 << width) + 1)) * 1009
    return JointDistribution(weights / 2.0**30, validate=False)


class TestKernelsAgainstIndexLoops:
    """Each (high, bit, low) view kernel equals a per-index loop, exactly."""

    @pytest.mark.parametrize("width", range(1, 7))
    def test_channel(self, width):
        d = _dyadic_register(width)
        p = d.probs.tolist()
        stay = (1.0 - 0.07, 1.0 - 0.31)
        leave = (0.07, 0.31)
        for bit in range(width):
            want = []
            for x in range(1 << width):
                v = (x >> bit) & 1
                want.append(p[x] * stay[v] + p[x ^ (1 << bit)] * leave[1 - v])
            assert d.apply_bitflip_channel(bit, ErrorRates(0.07, 0.31)).probs.tolist() == want

    @pytest.mark.parametrize("width", range(1, 7))
    def test_marginal_and_condition(self, width):
        d = _dyadic_register(width)
        p = d.probs.tolist()
        for bit, value in product(range(width), (0, 1)):
            kept = [x for x in range(1 << width) if (x >> bit) & 1 == value]
            total = sum(p[x] for x in kept)
            assert d.prob_bit_is(bit, value) == total
            cond, prob = d.condition_on(bit, value)
            assert prob == total
            assert cond.probs.tolist() == [p[x] / total if x in kept else 0.0
                                           for x in range(1 << width)]

    def test_product_matches_doubling(self):
        biases = np.random.default_rng(3).uniform(-0.9, 0.9, 12).tolist()
        want = np.ones(1)
        for b in biases:
            p = prob_from_bias(b)
            want = np.concatenate([want * p, want * (1.0 - p)])
        assert np.array_equal(product_distribution(biases).probs, want)
