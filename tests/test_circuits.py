"""Gate semantics, the two majority circuits, and the text format."""

import random
from itertools import cycle, permutations, product

import numpy as np
import pytest

from hbcool.bias import prob_from_bias, three_bc_bias
from hbcool.circuits import (
    NARROW_WIDTH,
    Circuit,
    Gate,
    NarrowRegister,
    apply_gate,
    circuit_from_text,
    circuit_to_text,
    cnot,
    cswap,
    gtoffoli,
    majority_circuit_cswap,
    majority_circuit_toffoli,
    not_gate,
    swap,
    toffoli,
    two_bc_circuit,
    two_bc_sort_circuit,
)
from hbcool.distribution import JointDistribution, product_distribution
from hbcool.bias import ErrorRates, two_bc_accept_bias, two_bc_accept_prob

TOL = 1e-12

ALL_GATES = [
    not_gate(0),
    cnot(0, 1),
    toffoli(1, 2, 0),
    gtoffoli(1, ((0, 1), (2, 0))),
    swap(0, 2),
    cswap(0, 2, 1, 0),
]


def majority(a, b, c):
    return 1 if a + b + c >= 2 else 0


class TestGateBasics:
    def test_not_flips_distribution(self):
        d = product_distribution([0.8])  # (0.9, 0.1)
        out = apply_gate(d, not_gate(0))
        np.testing.assert_allclose(out.probs, [0.1, 0.9])

    def test_cnot_on_point_mass(self):
        # state 11 -> target (bit 1) flipped -> 01
        assert cnot(0, 1).apply_to_state(0b11) == 0b01

    @pytest.mark.parametrize("gate", ALL_GATES)
    def test_involution_on_states(self, gate):
        for x in range(8):
            assert gate.apply_to_state(gate.apply_to_state(x)) == x

    @pytest.mark.parametrize("gate", ALL_GATES)
    def test_involution_on_distributions(self, gate):
        d = product_distribution([0.3, -0.2, 0.7])
        out = apply_gate(apply_gate(d, gate), gate)
        np.testing.assert_array_equal(out.probs, d.probs)

    @pytest.mark.parametrize("gate", ALL_GATES)
    def test_probability_conserved(self, gate):
        d = product_distribution([0.25, 0.5, -0.6])
        out = apply_gate(d, gate)
        assert float(out.probs.sum()) == pytest.approx(1.0, abs=TOL)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            cnot(1, 1)
        with pytest.raises(ValueError):
            swap(2, 2)

    def test_index_out_of_range(self):
        d = product_distribution([0.0])
        with pytest.raises(ValueError):
            apply_gate(d, cnot(0, 1))


class TestMajorityCircuits:
    def test_toffoli_variant_truth_table(self):
        c = majority_circuit_toffoli()
        for a, b, cc in product((0, 1), repeat=3):
            x = a | b << 1 | cc << 2
            y = c.apply_to_state(x)
            assert y & 1 == majority(a, b, cc)

    def test_basis_examples(self):
        c = majority_circuit_toffoli()
        assert c.apply_to_state(0b100) & 1 == 0  # (a,b,c) = (0,0,1)
        assert c.apply_to_state(0b101) & 1 == 1  # (1,0,1)
        assert c.apply_to_state(0b110) & 1 == 1  # (0,1,1)

    def test_cswap_variant_truth_table(self):
        c = majority_circuit_cswap()
        for a, b, cc in product((0, 1), repeat=3):
            x = a | b << 1 | cc << 2
            assert c.apply_to_state(x) & 1 == majority(a, b, cc)

    def test_variants_differ_as_permutations(self):
        ct, cs = majority_circuit_toffoli(), majority_circuit_cswap()
        images_t = [ct.apply_to_state(x) for x in range(8)]
        images_s = [cs.apply_to_state(x) for x in range(8)]
        assert sorted(images_t) == list(range(8))  # both are permutations
        assert sorted(images_s) == list(range(8))
        assert images_t != images_s

    def test_equal_marginals_on_product_inputs(self):
        ct, cs = majority_circuit_toffoli(), majority_circuit_cswap()
        for b in [0.1 * k for k in range(1, 10)]:
            d = product_distribution([b, b, b])
            mt = ct.run(d).marginal_bias(0)
            ms = cs.run(d).marginal_bias(0)
            assert mt == pytest.approx(ms, abs=TOL)
            assert mt == pytest.approx(three_bc_bias(b), abs=TOL)

    def test_frozen_marginal_example(self):
        c = majority_circuit_toffoli()
        got = c.run(product_distribution([0.3, 0.3, 0.3])).marginal_bias(0)
        assert got == pytest.approx(0.4365, abs=TOL)

    def test_noise_site_count(self):
        assert len(majority_circuit_toffoli().noise_sites) == 7
        # sites fall after gates 1, 2 (all three bits) and gate 3 (bit 0 only)
        assert majority_circuit_toffoli().noise_sites == (
            (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0))


class TestCnotCswapIdentity:
    def test_identity_is_majority(self):
        # b1 c + b2 c + b1 b2 mod 2: the CNOT + controlled-swap form of the majority
        for b1, b2, c in product((0, 1), repeat=3):
            assert (b1 & c) ^ (b2 & c) ^ (b1 & b2) == majority(b1, b2, c)

    def test_matches_sorting_circuit(self):
        # the sorting circuit leaves the majority in bit 2
        circuit = two_bc_sort_circuit()
        for b1, b2, c in product((0, 1), repeat=3):
            x = b1 | b2 << 1 | c << 2
            y = circuit.apply_to_state(x)
            assert (y >> 2) & 1 == majority(b1, b2, c)


class TestTwoBitCompressionViews:
    """Conditional renormalization vs the explicit sorting circuit."""

    @pytest.mark.parametrize("b", [0.1 * k for k in range(1, 10)])
    def test_postselected_cnot_matches_closed_forms(self, b):
        d = two_bc_circuit().run(product_distribution([b, b]))
        cond, accept = d.condition_on(1, 0)
        assert accept == pytest.approx(two_bc_accept_prob(b), abs=TOL)
        assert cond.marginal_bias(0) == pytest.approx(two_bc_accept_bias(b), abs=TOL)

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("cold", [0.0, 0.3, 1.0])
    def test_sorting_view_agrees(self, b, cold):
        # after the controlled swap, the cold slot (bit 2) holds the accepted
        # control bit whenever the target read 0, whatever it held before
        d = two_bc_sort_circuit().run(product_distribution([b, b, cold]))
        cond, accept = d.condition_on(1, 0)
        assert accept == pytest.approx(two_bc_accept_prob(b), abs=TOL)
        assert cond.marginal_bias(2) == pytest.approx(two_bc_accept_bias(b), abs=TOL)

    @pytest.mark.parametrize("b", [0.2, 0.5, 0.9])
    def test_unconditioned_sorting_view_is_majority(self, b):
        d = two_bc_sort_circuit().run(product_distribution([b, b, b]))
        assert d.marginal_bias(2) == pytest.approx(three_bc_bias(b), abs=TOL)


class TestSerialization:
    def test_round_trip_named_circuits(self):
        for circuit in (majority_circuit_toffoli(), majority_circuit_cswap(),
                        two_bc_sort_circuit()):
            text = circuit_to_text(circuit)
            parsed = circuit_from_text(text)
            assert parsed == circuit

    def test_expected_text(self):
        text = circuit_to_text(majority_circuit_toffoli())
        assert text.splitlines()[:3] == ["CNOT 1 0:1", "CNOT 2 0:1", "TOFFOLI 0 1:1 2:1"]
        assert "NOISE 1 0" in text.splitlines()

    def test_parse_with_comments_and_blanks(self):
        text = """
        # majority core
        CNOT 1 0:1

        CNOT 2 0:1
        TOFFOLI 0 1:1 2:1  # compute into bit 0
        NOISE 3 0
        """
        c = circuit_from_text(text)
        assert c.width == 3
        assert len(c.gates) == 3
        assert c.noise_sites == ((3, 0),)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            circuit_from_text("FROB 0 1")
        with pytest.raises(ValueError):
            circuit_from_text("CNOT 0 1")  # control missing its value
        with pytest.raises(ValueError):
            circuit_from_text("")
        with pytest.raises(ValueError, match="^line 3: unknown gate 'FROB'$"):
            circuit_from_text("NOT 0\n\nFROB 0 1  # typo")
        with pytest.raises(ValueError, match="^line 2: invalid literal for int"):
            circuit_from_text("NOT 0\nNOISE 1 x\n")

    @pytest.mark.parametrize("text, error", [
        ("CNOT 1 0:1\nNOISE 7 0\n", "line 2: noise position 7 out of range"),
        ("NOISE 2 0\nNOT 0\n", "line 1: noise position 2 out of range"),  # checked after all gates
        ("NOT 0\nNOISE -1 0\n", "line 2: noise position -1 out of range"),
        ("NOT 0\n# wide\nNOISE 1 20\n", "line 3: index 20 out of range 0..19"),
        ("NOT 0\nNOISE 1 -1\n", "line 2: index -1 out of range 0..19"),
        ("NOT 0\nNOT 25\n", "line 2: index 25 out of range 0..19"),
        ("TOFFOLI 0 1:1 20:0\n", "line 1: index 20 out of range 0..19"),
    ])
    def test_whole_circuit_errors_name_their_line(self, text, error):
        with pytest.raises(ValueError) as info:
            circuit_from_text(text)
        assert str(info.value) == error

    def test_widest_register_and_last_noise_position_parse(self):
        c = circuit_from_text("NOT 19\nNOISE 1 0\nNOISE 0 19\n")
        assert (c.width, c.noise_sites) == (20, ((1, 0), (0, 19)))

    def test_gate_construction_errors(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (0, 1))  # wrong arity
        with pytest.raises(ValueError):
            Gate("TOFFOLI", (0,), ((1, 2), (2, 1)))  # control value not a bit
        with pytest.raises(ValueError):
            Circuit(3, (cnot(0, 1),), noise_sites=((5, 0),))


def _every_placement(width):
    """Every gate kind at every target/control placement and control value."""
    for t in range(width):
        yield not_gate(t)
    for t, c in permutations(range(width), 2):
        for v in (0, 1):
            yield Gate("CNOT", (t,), ((c, v),))
        yield swap(t, c)
    for t, c1, c2 in permutations(range(width), 3):
        for v1, v2 in product((0, 1), repeat=2):
            yield gtoffoli(t, ((c1, v1), (c2, v2)))
        for v in (0, 1):
            yield cswap(t, c1, c2, v)


class TestGateKernelOracle:
    @pytest.mark.parametrize("width", range(1, 7))
    def test_every_placement_matches_state_permutation(self, width):
        probs = np.random.default_rng(width).random(1 << width)
        d = JointDistribution(probs, validate=False)
        kinds = set()
        for gate in _every_placement(width):
            want = np.empty_like(probs)
            want[[gate.apply_to_state(x) for x in range(1 << width)]] = probs
            assert np.array_equal(apply_gate(d, gate).probs, want), gate
            kinds.add(gate.kind)
        assert len(kinds) == min(5, 2 * width - 1)


def _outcome(call):
    """A call's value, or its ValueError's message."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def _same_register(narrow, wide):
    assert narrow.width == wide.width
    assert np.array(narrow.probs).tobytes() == wide.probs.tobytes()


class TestNarrowRegisterAgainstJointDistribution:
    @pytest.mark.parametrize("width", range(1, NARROW_WIDTH + 1))
    def test_seeded_circuits_match(self, width):
        rng = random.Random(width)
        placements = list(_every_placement(width))
        rng.shuffle(placements)
        next_gate, used, zero_events = cycle(placements).__next__, set(), 0
        for k in range(40):
            # the circuits take every placement in turn: every kind, both control values
            gates = tuple(next_gate() for _ in range(k % 4))
            used.update(gates)
            sites = tuple((pos, bit) for pos in range(len(gates) + 1) for bit in range(width)
                          if rng.random() < 0.5)
            circuit = Circuit(width, gates, sites)
            biases = [rng.choice((1.0, -1.0, 0.0, rng.uniform(-1.0, 1.0))) for _ in range(width)]
            narrow = NarrowRegister.product([prob_from_bias(b) for b in biases])
            wide = product_distribution(biases)
            _same_register(narrow, wide)
            eps0, eps1 = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)
            for rates in (None, ErrorRates(eps0, eps1), ErrorRates(0.0, eps1)):
                if rates is None:
                    narrow_out, wide_out = circuit.run(narrow), circuit.run(wide)
                else:
                    narrow_out = circuit.run_with_channels(narrow, rates)
                    wide_out = circuit.run_with_channels(wide, rates)
                _same_register(narrow_out, wide_out)
                for bit in range(-1, width + 1):
                    assert (_outcome(lambda: narrow_out.marginal_bias(bit))
                            == _outcome(lambda: wide_out.marginal_bias(bit)))
                    for value in (0, 1, 2):
                        got = _outcome(lambda: narrow_out.condition_on(bit, value))
                        want = _outcome(lambda: wide_out.condition_on(bit, value))
                        if isinstance(want, str):
                            assert got == want
                            zero_events += want.startswith("cannot condition")
                        else:
                            _same_register(got[0], want[0])
                            assert got[1] == want[1]
                            assert ([got[0].marginal_bias(i) for i in range(width)]
                                    == [want[0].marginal_bias(i) for i in range(width)])
        assert used == set(placements)
        assert zero_events > 0

    def test_product_rejects_a_bias_outside_the_interval(self):
        # simulate's narrow path: each bias is range-checked as it becomes a weight
        for biases in ([0.5, 1.5], [float("nan")]):
            with pytest.raises(ValueError) as narrow:
                NarrowRegister.product([prob_from_bias(b) for b in biases])
            with pytest.raises(ValueError) as wide:
                product_distribution(biases)
            assert str(narrow.value) == str(wide.value)


# The index-mask kernels that the (high, bit, low) view kernels replaced,
# kept here as an oracle: the new kernels must reproduce them bit for bit.

def _mask_gate(probs, gate, width):
    states = np.arange(1 << width)
    ok = np.ones(states.size, dtype=bool)
    for bit, val in gate.controls:
        ok &= ((states >> bit) & 1) == val
    if len(gate.targets) == 1:
        images = states ^ (1 << gate.targets[0])
    else:
        a, b = gate.targets
        differ = ((states >> a) & 1) ^ ((states >> b) & 1)
        images = states ^ ((differ << a) | (differ << b))
    out = np.empty_like(probs)
    out[np.where(ok, images, states)] = probs
    return out


def _mask_channel(probs, bit, rates):
    states = np.arange(probs.size)
    flipped = probs[states ^ (1 << bit)]
    bit_is_zero = ((states >> bit) & 1) == 0
    stay = np.where(bit_is_zero, 1.0 - rates.eps0, 1.0 - rates.eps1)
    arrive = np.where(bit_is_zero, rates.eps1, rates.eps0)
    return probs * stay + flipped * arrive


def _mask_keep(probs, bit, value):
    return ((np.arange(probs.size) >> bit) & 1) == value


class TestWideRegisterAgainstMaskKernels:
    def test_benchmark_shape_at_width_20(self):
        width, triples = 20, ((17, 3, 9), (0, 12, 19))
        biases = np.random.default_rng(20).uniform(0.05, 0.95, width).tolist()
        rates = ErrorRates.from_sd(0.03, 0.011)
        gates = [g for a, b, c in triples for g in (cnot(a, b), cnot(a, c), toffoli(b, c, a))]
        sites = [(len(gates), bit) for triple in triples for bit in triple]
        dist = Circuit(width, tuple(gates), tuple(sites)).run_with_channels(
            product_distribution(biases), rates)

        probs = product_distribution(biases).probs
        for g in gates:
            probs = _mask_gate(probs, g, width)
        for _, bit in sites:
            probs = _mask_channel(probs, bit, rates)
        assert np.array_equal(dist.probs, probs)
        for bit in range(width):
            assert dist.marginal_bias(bit) == 2.0 * float(
                probs[_mask_keep(probs, bit, 0)].sum()) - 1.0
        flag = triples[0][1]
        keep = _mask_keep(probs, flag, 0)
        p = float(probs[keep].sum())
        post, accept = dist.condition_on(flag, 0)
        assert accept == p
        assert np.array_equal(post.probs, np.where(keep, probs / p, 0.0))
