import tracemalloc
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

    @pytest.mark.parametrize("probs", [[0.5, float("nan")], [float("nan")] * 2,
                                       [1.0, float("inf")], [float("-inf"), 1.0, 0.0, 0.0]])
    def test_rejects_non_finite_entries(self, probs):
        with pytest.raises(ValueError, match="^probabilities must be finite$"):
            JointDistribution(probs)

    def test_unvalidated_vectors_are_taken_as_given(self):
        d = JointDistribution([0.5, float("nan")], validate=False)
        assert d.width == 1 and np.isnan(d.probs[1])


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

    @pytest.mark.filterwarnings("error")
    def test_tiny_event_next_to_large_mass(self):
        # the other half's quotient 1.0 / 5e-324 overflows and is discarded
        d = JointDistribution([1.0, 0.0, 5e-324, 0.0])
        cond, p = d.condition_on(1, 1)
        assert p == 5e-324 and cond.probs.tolist() == [0.0, 0.0, 1.0, 0.0]

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
    """Each single-bit kernel equals a per-index loop, exactly."""

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


class _ViewKernels(JointDistribution):
    """Reference kernels on the (high, bit, low) view `probs.reshape(-1, 2,
    2**bit)`: a marginal sums a contiguous copy of one half, the channel
    mixes the two halves through a half-size temporary, postselection
    divides one half into a zeroed vector. The run-view kernels must give
    the same bits without using more memory."""

    __slots__ = ()

    def prob_bit_is(self, bit, value):
        half = self.probs.reshape(-1, 2, 1 << bit)[:, int(value)]
        return float(np.ascontiguousarray(half).sum())

    def apply_bitflip_channel(self, bit, rates):
        view = self.probs.reshape(-1, 2, 1 << bit)
        out = np.empty_like(self.probs)
        mixed, arrived = out.reshape(view.shape), np.empty(view.shape[::2])
        for v, leave, enter in ((0, rates.eps0, rates.eps1), (1, rates.eps1, rates.eps0)):
            np.multiply(view[:, v], 1.0 - leave, out=mixed[:, v])
            np.multiply(view[:, 1 - v], enter, out=arrived)
            mixed[:, v] += arrived
        return JointDistribution(out, validate=False)

    def condition_on(self, bit, value):
        p = self.prob_bit_is(bit, value)
        view, v = self.probs.reshape(-1, 2, 1 << bit), int(value)
        out = np.zeros_like(self.probs)
        np.divide(view[:, v], p, out=out.reshape(view.shape)[:, v])
        return JointDistribution(out, validate=False), p


_RATES = (ErrorRates(0.0731, 0.2113), ErrorRates(0.4, 0.013), ErrorRates.symmetric(0.1))


def _random_pair(width: int) -> tuple[JointDistribution, _ViewKernels]:
    """A random non-dyadic register and its reference twin (own copies)."""
    probs = np.random.default_rng(100 + width).random(1 << width)
    probs /= probs.sum()
    return (JointDistribution(probs.copy(), validate=False),
            _ViewKernels(probs.copy(), validate=False))


class TestKernelsAgainstViewKernels:
    """Bit-identity on random non-dyadic data, where any change in the
    order of a sum or of a product would show; no kernel touches its input."""

    @pytest.mark.parametrize("width", [*range(1, 13), 20])
    def test_every_bit(self, width):
        d, ref = _random_pair(width)
        before = d.probs.copy()
        for bit in range(width):
            for rates in _RATES:
                out = d.apply_bitflip_channel(bit, rates)
                assert np.array_equal(out.probs, ref.apply_bitflip_channel(bit, rates).probs)
                assert not np.shares_memory(out.probs, d.probs)
            for value in (0, 1):
                assert d.prob_bit_is(bit, value) == ref.prob_bit_is(bit, value)
                (cond, p), (want, q) = d.condition_on(bit, value), ref.condition_on(bit, value)
                assert p == q and np.array_equal(cond.probs, want.probs)
                assert not np.shares_memory(cond.probs, d.probs)
            assert d.marginal_bias(bit) == 2.0 * ref.prob_bit_is(bit, 0) - 1.0
        assert np.array_equal(d.probs, before)

    def test_non_contiguous_input_is_copied(self):
        probs = np.random.default_rng(1).random(64)
        d = JointDistribution(probs[::2] / probs[::2].sum(), validate=False)
        ref = _ViewKernels(d.probs, validate=False)
        for bit in range(d.width):
            assert np.array_equal(d.apply_bitflip_channel(bit, _RATES[0]).probs,
                                  ref.apply_bitflip_channel(bit, _RATES[0]).probs)
            assert d.prob_bit_is(bit, 1) == ref.prob_bit_is(bit, 1)


def _peak_bytes(call) -> int:
    """Peak traced memory of one call, numpy buffers included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    """No kernel's traced peak exceeds the reference kernel's: a chunk-sized
    scratch row or a half-size temporary more would show here long before
    it shows in a process's peak RSS. The 1 KiB slack covers Python objects."""

    @pytest.mark.parametrize("width", [16, 20])
    def test_peak_at_most_the_view_kernels(self, width):
        d, ref = _random_pair(width)
        rates = _RATES[0]
        for bit in sorted({0, 1, 5, width - 1}):
            for name, args in (("apply_bitflip_channel", (bit, rates)),
                               ("prob_bit_is", (bit, 1)), ("condition_on", (bit, 1))):
                new = _peak_bytes(lambda: getattr(d, name)(*args))
                old = _peak_bytes(lambda: getattr(ref, name)(*args))
                assert new <= old + 1024, (name, bit, new, old)
