"""Cooling schedules, resource ledgers, and the sorted-bias bound."""

import json
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from hbcool.bias import (ErrorRates, debias_step, fibonacci, steady_state_bias,
                         steady_state_bias_noisy, three_bc_bias,
                         three_bc_bias_unequal)
from hbcool.cooling import (
    RegisterBiases,
    _linear_regime,
    _pair_step,
    _settle,
    fibonacci_algorithm,
    fibonacci_bound_check,
    heatbath_recursive,
    random_hb_trace_check,
    run_with_noise,
    simple_recursive,
    three_bc_hb,
    trace_to_jsonl,
)
from hbcool.limits import ASYM_AFTER, SYM_AFTER, SYM_DURING, blim_asym_after, blim_sym_after


class TestSimpleRecursive:
    def test_approx_bit_counts(self):
        r = simple_recursive(1e-5, 0.1, mode="approx")
        assert r.stats["bits"] == pytest.approx(6.9e10, rel=0.05)
        r = simple_recursive(1e-5, 0.9999, mode="approx")
        assert r.stats["bits"] == pytest.approx(3.5e13, rel=0.05)

    def test_approx_depth_formula(self):
        r = simple_recursive(1e-5, 0.1, mode="approx")
        assert r.stats["k"] == pytest.approx(math.log(1e4) / math.log(1.5), abs=1e-9)
        assert r.stats["bits_ceil"] == math.ceil(r.stats["bits"])

    def test_exact_single_level(self):
        r = simple_recursive(0.5, 0.6, mode="exact")
        assert r.stats["k"] == 1
        assert r.stats["bits"] == 3
        assert r.final_bias == pytest.approx(0.6875, abs=1e-12)
        assert r.ledger.three_bc_ops == 1

    def test_exact_levels_apply_majority_update(self):
        r = simple_recursive(1e-5, 0.1, mode="exact")
        assert r.stats["k"] == 23
        assert r.stats["bits"] == 3**23
        b = 1e-5
        for entry in r.trace:
            b = three_bc_bias(b)
            assert entry["biases_after"][0] == b
        assert r.final_bias >= 0.1

    def test_monotone_trace(self):
        r = simple_recursive(1e-4, 0.99, mode="exact")
        biases = [e["biases_after"][0] for e in r.trace]
        assert biases == sorted(biases)
        assert r.final_bias >= 1e-4

    def test_subnormal_approx_depth_passes_the_float_maximum(self):
        # b_t / b_i overflows; k is finite, and 3**k is past the float maximum
        with pytest.raises(ValueError, match=r"3\*\*k starting bits pass the float maximum"):
            simple_recursive(5e-324, 0.5, mode="approx")

    def test_validation(self):
        with pytest.raises(ValueError):
            simple_recursive(0.5, 0.5)
        with pytest.raises(ValueError):
            simple_recursive(1e-5, 1.0)
        with pytest.raises(ValueError):
            simple_recursive(1e-5, 0.1, mode="fast")


class TestHeatbathRecursive:
    def test_headline_bit_counts(self):
        r = heatbath_recursive(1e-5, 0.1)
        assert abs(r.stats["bits_2k"] - 46) <= 2
        r = heatbath_recursive(1e-5, 0.9999)
        assert abs(r.stats["bits_2k"] - 57) <= 2

    def test_contacts_positive(self):
        r = heatbath_recursive(1e-5, 0.1)
        assert r.ledger.heat_bath_contacts > 0
        assert r.ledger.three_bc_ops > 0

    def test_working_register_accounting(self):
        r = heatbath_recursive(1e-5, 0.1)
        assert r.stats["k_exact"] == 23
        assert r.stats["working_register"] == 2 * 23 + 1
        assert r.ledger.bits_consumed == r.stats["working_register"]

    def test_level_structure(self):
        # m bits per level yield m - 2 cooled bits and 2(m-2) bath contacts; the oracle
        # is the pool loop, t = pool // 3 steps at a time, for every odd m0 up to 2,001
        expected_ops = {1: 0}  # working register m0 -> steps over its levels m0, m0 - 2, ..., 3
        for m in range(3, 2002, 2):
            pool, steps = m, 0
            while pool >= 3:
                t = pool // 3
                steps += t
                pool -= t
            expected_ops[m] = expected_ops[m - 2] + steps
        targets, b = [(0.2, 0.5)], 1e-200
        for _ in range(1000):  # the run to the k-th level's bias has k levels
            b = three_bc_bias(b)
            targets.append((1e-200, b))
        registers = []
        for b_i, b_t in targets:
            r = heatbath_recursive(b_i, b_t)
            registers.append(r.stats["working_register"])
            ops = expected_ops[registers[-1]]
            assert (r.ledger.three_bc_ops, r.ledger.heat_bath_contacts) == (ops, 2 * ops)
            k = r.stats["k_exact"]  # and in closed form: 2k + 1 bits, k^2 steps
            assert (r.ledger.bits_consumed, r.ledger.three_bc_ops, r.ledger.heat_bath_contacts,
                    r.ledger.recursion_depth) == (2 * k + 1, k * k, 2 * k * k, k)
        assert registers[1:] == list(range(3, 2002, 2))

    def test_final_bias_reaches_target(self):
        r = heatbath_recursive(1e-5, 0.9999)
        assert r.final_bias >= 0.9999

    def test_depth_at_a_subnormal_initial_bias(self):
        # 0.5 / 1e-320 overflows to inf; the depth comes from the difference of logs
        r = heatbath_recursive(1e-320, 0.5)
        assert r.stats["k"] == (math.log(0.5) - math.log(1e-320)) / math.log(1.5)
        assert r.stats["k"] == pytest.approx(1815.53, abs=0.005)
        assert r.final_bias >= 0.5


class TestThreeBcHb:
    def test_mixed_biases(self):
        state = RegisterBiases([0.2, 0.4, 0.6], initial_bias=0.1)
        out = three_bc_hb(state, 0, 1, 2)
        assert out.biases == pytest.approx([0.1, 0.1, 0.576], abs=1e-12)

    def test_position_of_largest_wins(self):
        state = RegisterBiases([0.6, 0.4, 0.2, 0.9], initial_bias=0.1)
        out = three_bc_hb(state, 2, 1, 0)  # positions 0..2, argument order scrambled
        assert out.biases[0] == pytest.approx(0.576, abs=1e-12)
        assert out.biases[1] == out.biases[2] == 0.1
        assert out.biases[3] == 0.9  # untouched

    def test_equal_bias_case(self):
        state = RegisterBiases([0.3, 0.3, 0.3], initial_bias=0.3)
        out = three_bc_hb(state, 0, 1, 2)
        assert sorted(out.biases)[-1] == pytest.approx(three_bc_bias(0.3), abs=1e-12)

    def test_result_never_exceeds_one(self):
        state = RegisterBiases([1.0, 1.0, 1.0], initial_bias=0.5)
        out = three_bc_hb(state, 0, 1, 2)
        assert max(out.biases) <= 1.0

    def test_duplicate_positions_rejected(self):
        state = RegisterBiases([0.1, 0.2, 0.3], initial_bias=0.1)
        with pytest.raises(ValueError):
            three_bc_hb(state, 0, 0, 1)


class TestFibonacciBoundCheck:
    def test_pass_case(self):
        state = RegisterBiases([0.1, 0.1, 0.2], initial_bias=0.1)
        assert fibonacci_bound_check(state).passed

    def test_constructed_violation(self):
        state = RegisterBiases([0.1, 0.25], initial_bias=0.1)
        check = fibonacci_bound_check(state)
        assert not check.passed
        assert check.witness_index == 2
        assert check.bound == pytest.approx(0.1)
        assert check.witness_value == pytest.approx(0.25)

    def test_register_wider_than_float_fibonacci_numbers(self):
        # F(j) outgrows a float at j = 1477; no bias exceeds 1, so the check
        # ends at the first bound of at least 1
        assert fibonacci_bound_check(RegisterBiases([0.01] * 2000, 0.01)).passed
        report = random_hb_trace_check(trials=20, max_bits=2000, seed=0)
        assert report["violations"] == 0 and report["checks"] > 0

    @pytest.mark.parametrize("b_i", [0.0, 1e-310], ids=["zero", "subnormal"])
    def test_tiny_bath_bias_past_float_fibonacci(self, b_i):
        # b_i * F(j) is still below 1 at j = 1477, where F(j) outgrows a float
        assert fibonacci_bound_check(RegisterBiases([0.0] * 2000, b_i)).passed

    def test_zero_bath_bias_gives_the_witness_at_its_sorted_position(self):
        # at b_i = 0 every bound is 0, so the one positive bias breaches it
        check = fibonacci_bound_check(RegisterBiases([0.0] * 7 + [0.3] + [0.0] * 1992, 0.0))
        assert (check.passed, check.witness_index, check.witness_value, check.bound) == (
            False, 2000, 0.3, 0.0)

    def test_bound_past_float_fibonacci_numbers(self):
        # F(1480) is past the float maximum; b_i * F(1480) is about 0.089
        check = fibonacci_bound_check(RegisterBiases([0.0] * 1479 + [0.5], 1e-310))
        assert (check.passed, check.witness_index) == (False, 1480)
        assert check.bound == pytest.approx(float(fibonacci(1480) * Fraction(1e-310)), rel=1e-15)

    @pytest.mark.parametrize("b_i", [5e-324, 3e-309, 1e-300, 1e-150, 1e-20, 1e-5, 0.1, 0.3])
    def test_linear_regime_against_exact_products(self, b_i):
        # every term is the correctly rounded b_i * F(j), also once F(j) passes 2^53
        # (where rounding F(j) to a float first can move the product by 1 ulp)
        for j, value in enumerate(_linear_regime(b_i), start=1):
            assert value == float(Fraction(b_i) * fibonacci(j)), j
            if value >= 1.0:
                break

    def test_fuzz_traces_never_violate(self):
        report = random_hb_trace_check(trials=2000, max_bits=8, seed=7)
        assert report["violations"] == 0
        assert report["checks"] > 0

    def test_fuzz_deterministic_given_seed(self):
        a = random_hb_trace_check(trials=50, seed=3)
        b = random_hb_trace_check(trials=50, seed=3)
        assert a == b

    def test_bound_is_reachable_in_linear_regime(self):
        # with a tiny bath bias the exact recurrence hugs b_i * F(j)
        b_i = 1e-5
        seq = [b_i, b_i]
        for _ in range(13):
            seq.append(steady_state_bias(seq[-2], seq[-1]))
        fibs = [fibonacci(j) for j in range(1, len(seq) + 1)]
        for value, f in zip(seq, fibs):
            assert abs(value - b_i * f) / value < 1e-4

    def test_fibonacci_schedule_states_respect_bound(self):
        # every register state the schedule reaches satisfies the bound
        r = fibonacci_algorithm(0.01, 0.99, mode="exact")
        seq = r.stats["sequence"]
        for j in range(2, len(seq) + 1):
            state = RegisterBiases(seq[:j], initial_bias=0.01)
            assert fibonacci_bound_check(state).passed


class TestFibonacciAlgorithm:
    def test_approx_register_sizes(self):
        assert fibonacci_algorithm(1e-5, 0.1, mode="approx").stats["n"] == 21
        assert fibonacci_algorithm(1e-5, 0.9999, mode="approx").stats["n"] == 26

    def test_approx_bias_above_1_carries_a_warning(self):
        # the linear regime's last b_i * F(n) passes the target, and here 1
        r = fibonacci_algorithm(0.4, 0.9, mode="approx")
        assert r.stats["sequence"] == [0.4, 0.4, 0.8, 1.2000000000000002]
        assert r.stats["warnings"] == ["final_bias 1.2000000000000002 is above 1: "
                                       "the linear regime's b_i * F(n) is not a bias here"]
        assert "warnings" not in fibonacci_algorithm(1e-5, 0.1, mode="approx").stats

    def test_exact_register_sizes(self):
        assert fibonacci_algorithm(1e-5, 0.1, mode="exact").stats["n"] == 21
        n = fibonacci_algorithm(1e-5, 0.9999, mode="exact").stats["n"]
        assert 26 <= n <= 30

    def test_exact_recurrence_values(self):
        r = fibonacci_algorithm(0.5, 0.79, mode="exact")
        seq = r.stats["sequence"]
        assert seq[0] == seq[1] == 0.5
        assert seq[2] == pytest.approx(0.8, abs=1e-12)
        assert seq[2] == pytest.approx(steady_state_bias(0.5, 0.5), abs=1e-12)

    def test_sequence_monotone_and_bounded(self):
        r = fibonacci_algorithm(0.3, 0.999999, mode="exact")
        seq = r.stats["sequence"]
        assert all(b < 1.0 for b in seq)
        assert all(b2 >= b1 for b1, b2 in zip(seq, seq[1:]))

    def test_ledger_counts_steady_state_loops(self):
        r = fibonacci_algorithm(0.2, 0.9, mode="exact")
        assert r.ledger.three_bc_ops > 0
        assert r.ledger.heat_bath_contacts == 2 * r.ledger.three_bc_ops
        assert r.ledger.bits_consumed == r.stats["n"]

    def test_trace_export_schema(self):
        r = fibonacci_algorithm(0.2, 0.9, mode="exact")
        lines = trace_to_jsonl(r).strip().splitlines()
        assert len(lines) == len(r.trace)
        first = json.loads(lines[0])
        assert set(first) == {"step", "op", "positions", "biases_after", "ledger"}
        assert first["positions"] == [1, 2, 3]

    def test_trace_ledgers_count_the_register_so_far(self):
        clean = fibonacci_algorithm(0.2, 0.9, mode="exact")
        noisy = run_with_noise("fibonacci", 0.2, 0.9, ErrorRates.symmetric(0.001),
                               model=SYM_AFTER)
        for result in (clean, noisy):
            for entry in result.trace:
                ledger = entry["ledger"]
                assert ledger["bits_consumed"] == ledger["recursion_depth"] == entry["step"]
            assert result.trace[-1]["ledger"] == result.ledger.as_dict()

    def test_settle_ends_once_rounding_takes_over(self):
        # this pair's float iterates cycle between 0.9815007993778582 and
        # 0.9815007993778583, so no move ever falls below a tiny tol
        step = _pair_step(0.5414124727934966, 0.9391491627785106, 1.0, 0.0)
        assert _settle(step, 0.5, 1e-300, 1_000_000) < 100

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            fibonacci_algorithm(0.1, 0.5, mode="exact", tol=tol)
        for algorithm in ("simple-recursive", "fibonacci"):
            with pytest.raises(ValueError, match="tol must be positive"):
                run_with_noise(algorithm, 0.1, 0.5, ErrorRates.symmetric(0.01),
                               model=SYM_AFTER, tol=tol)


def _noisy_fibonacci_reference(b_i, b_t, rates, tol=1e-12):
    """The noisy Fibonacci schedule as a plain settle loop over the composed
    step, each new bit at the pair's closed-form steady state; returns the
    bias sequence and the steps taken."""
    sequence, steps = [b_i, b_i], 0
    while sequence[-1] < b_t:
        older, newer = sequence[-2], sequence[-1]
        x = b_i
        while True:
            steps += 1
            nx = debias_step(three_bc_bias_unequal(older, newer, x), rates)
            if abs(nx - x) < tol:
                break
            x = nx
        x = steady_state_bias_noisy(older, newer, rates)
        if x - newer <= tol * newer:
            break
        sequence.append(x)
    return sequence, steps


class TestRunWithNoise:
    def test_zero_noise_reproduces_noiseless_run(self):
        for b_i in (1e-3, 1e-13):
            clean = simple_recursive(b_i, 0.9, mode="exact")
            noisy = run_with_noise("simple-recursive", b_i, 0.9,
                                   ErrorRates.symmetric(0.0), model=SYM_AFTER)
            assert noisy.final_bias == clean.final_bias  # bit for bit
            assert [e["biases_after"] for e in noisy.trace] == \
                   [e["biases_after"] for e in clean.trace]

    def test_zero_noise_ledgers_match_noiseless_run(self):
        clean = simple_recursive(1e-3, 0.9, mode="exact")
        noisy = run_with_noise("simple-recursive", 1e-3, 0.9,
                               ErrorRates.symmetric(0.0), model=SYM_AFTER)
        assert noisy.ledger == clean.ledger
        assert [e["ledger"] for e in noisy.trace] == [e["ledger"] for e in clean.trace]
        assert len(clean.trace) == clean.stats["k"]
        for result in (clean, noisy):
            lines = trace_to_jsonl(result).splitlines()
            for j, line in enumerate(lines, start=1):
                assert json.loads(line)["ledger"] == {
                    "bits_consumed": 3**j, "three_bc_ops": (3**j - 1) // 2,
                    "heat_bath_contacts": 0, "recursion_depth": j}

    def test_zero_noise_fibonacci_ledger_matches_noiseless_run(self):
        clean = fibonacci_algorithm(1e-3, 0.9, mode="exact")
        noisy = run_with_noise("fibonacci", 1e-3, 0.9, ErrorRates.symmetric(0.0),
                               model=SYM_AFTER)
        assert noisy.ledger == clean.ledger
        assert clean.ledger.as_dict() == {"bits_consumed": 17, "three_bc_ops": 505,
                                          "heat_bath_contacts": 1010,
                                          "recursion_depth": 17}
        assert noisy.stats["sequence"] == clean.stats["sequence"]  # bit for bit
        assert [e["biases_after"] for e in noisy.trace] == \
               [e["biases_after"] for e in clean.trace]

    @pytest.mark.parametrize("algorithm", ["simple-recursive", "fibonacci"])
    def test_tiny_initial_bias_still_climbs(self, algorithm):
        # a gain of 5e-14 per step is real progress from b = 1e-13; the stall
        # test is relative to the bias
        rates = ErrorRates.symmetric(0.001)
        result = run_with_noise(algorithm, 1e-13, 0.9, rates, model=SYM_AFTER)
        assert result.stats["reached_target"]
        assert 0.9 <= result.final_bias <= blim_sym_after(0.001)
        if algorithm == "simple-recursive":
            assert result.stats["steps"] == simple_recursive(1e-13, 0.9).stats["k"] == 75
        else:
            # each bit joins at its pair's steady state, not at a settle
            # iterate that the absolute tol ends one step from b_i
            sequence, _ = _noisy_fibonacci_reference(1e-13, 0.9, rates)
            assert result.stats["n"] == len(sequence) == 66

    def test_near_threshold_run_ends_at_the_limit(self):
        result = run_with_noise("simple-recursive", 1e-5, 0.9,
                                ErrorRates.symmetric(0.166), model=SYM_AFTER)
        assert not result.stats["reached_target"]
        assert abs(result.final_bias - blim_sym_after(0.166)) < 1e-10

    def test_many_levels_keep_the_trace_linear(self):
        # near the sym-after threshold the run takes thousands of levels; the
        # trace keeps one float per level, not an entry with its 3^j counts
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            r = run_with_noise("simple-recursive", 1e-5, 0.9, ErrorRates.symmetric(0.166),
                               model=SYM_AFTER)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert r.stats["steps"] > 5000
        assert r.ledger.recursion_depth == r.stats["steps"] == len(r.trace)
        assert kept <= 64 * len(r.trace)

    @pytest.mark.parametrize("eps", [0.001, 0.01])
    def test_sym_after_saturates_at_limit(self, eps):
        result = run_with_noise("simple-recursive", 1e-5, 1.0,
                                ErrorRates.symmetric(eps), model=SYM_AFTER)
        lim = blim_sym_after(eps)
        assert result.final_bias <= lim + 1e-9
        assert abs(result.final_bias - lim) <= 1e-6
        assert not result.stats["reached_target"]

    def test_asym_after_saturates_at_limit(self):
        rates = ErrorRates.from_sd(0.02, 0.01)
        result = run_with_noise("simple-recursive", 1e-5, 1.0, rates, model=ASYM_AFTER)
        lim = blim_asym_after(rates)
        assert result.final_bias <= lim + 1e-9
        assert abs(result.final_bias - lim) <= 1e-6

    def test_fibonacci_pairwise_steady_states(self):
        rates = ErrorRates.from_sd(0.2, 0.1)
        result = run_with_noise("fibonacci", 0.5, 1.0, rates, model=ASYM_AFTER)
        seq = result.stats["sequence"]
        for j in range(2, len(seq)):
            assert seq[j] == steady_state_bias_noisy(seq[j - 2], seq[j - 1], rates)

    @pytest.mark.parametrize("b_i", [1e-13, 0.01, 0.3])
    def test_fibonacci_entries_are_exact_steady_states(self, b_i):
        rates = ErrorRates.from_sd(0.02, 0.01)
        seq = run_with_noise("fibonacci", b_i, 0.99, rates, model=ASYM_AFTER).stats["sequence"]
        assert len(seq) > 3
        for j in range(2, len(seq)):
            assert seq[j] == steady_state_bias_noisy(seq[j - 2], seq[j - 1], rates)

    def test_supremum_is_the_start_above_the_limit(self):
        # from b_i above b_lim no step gains, so each schedule returns max(b_i, b_lim) = b_i
        rates = ErrorRates.from_sd(0.02, 0.01)
        assert blim_asym_after(rates) == pytest.approx(0.98985, abs=1e-5)
        simple = run_with_noise("simple-recursive", 0.99, 0.999, rates, model=ASYM_AFTER)
        fib = run_with_noise("fibonacci", 0.99, 0.999, rates, model=ASYM_AFTER)
        assert (simple.final_bias, simple.stats["steps"]) == (0.99, 0)
        assert (fib.final_bias, fib.stats["n"]) == (0.99, 2)
        assert not simple.stats["reached_target"] and not fib.stats["reached_target"]

    def test_fibonacci_saturates_at_after_limit(self):
        rates = ErrorRates.from_sd(0.02, 0.01)
        result = run_with_noise("fibonacci", 0.5, 1.0, rates, model=ASYM_AFTER)
        lim = blim_asym_after(rates)
        assert result.final_bias <= lim + 1e-9
        assert abs(result.final_bias - lim) <= 1e-6

    def test_sym_during_model_runs(self):
        result = run_with_noise("simple-recursive", 1e-3, 1.0,
                                ErrorRates.symmetric(0.01), model=SYM_DURING)
        # the during-model limit is lower than the after-model one
        assert 0.5 < result.final_bias < blim_sym_after(0.01)

    @pytest.mark.parametrize("b_i, s, d", [(0.01, 0.02, 0.01), (1e-5, 0.002, 0.0),
                                           (0.3, 0.2, 0.1), (0.05, 0.04, 0.035)])
    def test_fibonacci_equals_the_composed_settle_loop(self, b_i, s, d):
        rates = ErrorRates.from_sd(s, d)
        sequence, steps = _noisy_fibonacci_reference(b_i, 0.999, rates)
        result = run_with_noise("fibonacci", b_i, 0.999, rates, model=ASYM_AFTER)
        assert result.stats["sequence"] == sequence  # bit for bit
        assert result.final_bias == sequence[-1]
        assert result.ledger.as_dict() == {
            "bits_consumed": len(sequence), "three_bc_ops": steps,
            "heat_bath_contacts": 2 * steps, "recursion_depth": len(sequence)}

    def test_fibonacci_rejects_during_models(self):
        with pytest.raises(ValueError):
            run_with_noise("fibonacci", 0.1, 0.9, ErrorRates.symmetric(0.01),
                           model=SYM_DURING)

    def test_fibonacci_sym_after_needs_a_symmetric_channel(self):
        with pytest.raises(ValueError, match="sym-after requires a symmetric channel"):
            run_with_noise("fibonacci", 0.1, 0.9, ErrorRates.from_sd(0.02, 0.01),
                           model=SYM_AFTER)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            run_with_noise("ppa", 0.1, 0.9, ErrorRates.symmetric(0.0))

    def test_noisy_fixed_point_iteration_oracle(self):
        # the supremum equals the fixed point found by plain iteration
        rates = ErrorRates.from_sd(0.02, 0.01)
        b = 1e-5
        for _ in range(1_000_000):
            fixed = three_bc_bias(b) * (1 - rates.s) + rates.d
            if abs(fixed - b) < 1e-15:
                break
            b = fixed
        else:
            pytest.fail("plain iteration found no fixed point")
        result = run_with_noise("simple-recursive", 1e-5, 1.0, rates, model=ASYM_AFTER)
        assert result.final_bias == pytest.approx(fixed, abs=1e-9)


class TestRegisterValidation:
    def test_bias_range_enforced(self):
        with pytest.raises(ValueError):
            RegisterBiases([0.5, 1.2], initial_bias=0.1)
        with pytest.raises(ValueError):
            RegisterBiases([0.5], initial_bias=-0.1)

    def test_sorted_view(self):
        state = RegisterBiases([0.5, 0.1, 0.3], initial_bias=0.1)
        assert state.sorted_biases() == [0.1, 0.3, 0.5]


# one run of each kind: the simple, heat-bath and Fibonacci schedules, and both noisy runs
RUN_KINDS = {
    "simple": lambda: simple_recursive(1e-5, 0.1),
    "heatbath": lambda: heatbath_recursive(1e-5, 0.1),
    "fibonacci": lambda: fibonacci_algorithm(0.2, 0.9),
    "noisy-simple": lambda: run_with_noise("simple-recursive", 1e-3, 0.9,
                                           ErrorRates.symmetric(0.001), model=SYM_AFTER),
    "noisy-fibonacci": lambda: run_with_noise("fibonacci", 1e-3, 0.9,
                                              ErrorRates.from_sd(0.002, 0.001), model=ASYM_AFTER),
}


class TestCoolingResult:
    @pytest.mark.parametrize("kind", list(RUN_KINDS))
    def test_equal_runs_compare_equal_and_pickle(self, kind):
        result = RUN_KINDS[kind]()
        assert result == RUN_KINDS[kind]()
        copy = pickle.loads(pickle.dumps(result))
        assert copy == result
        assert trace_to_jsonl(copy) == trace_to_jsonl(result)

    @pytest.mark.parametrize("kind", list(RUN_KINDS))
    def test_trace_indexes_like_a_list(self, kind):
        trace = RUN_KINDS[kind]().trace
        entries = list(trace)
        assert len(entries) == len(trace) > 0
        assert [trace[i] for i in range(-len(trace), 0)] == entries
        for i in (len(trace), -len(trace) - 1):
            with pytest.raises(IndexError):
                trace[i]
