"""Noisy-circuit transfer tables, exhaustive enumeration, and
optimal-permutation search.

`transfer_table` is the production path for exact noisy outputs: for a
fixed circuit and fixed rates the output is linear in the input
distribution, so one pass of channel propagation over every input basis
state at once gives P(bit 0 reads 0 | x), and any product input is then
a short weighted sum.

The tuple enumerator is the brute-force oracle for every noisy bias
update in this package and is called only by tests: it sums exact tuple
probabilities over all (input state) x (error pattern) combinations,
with per-site flip probabilities that may depend on the bit's value at
the site (the asymmetric channel). No sampling is involved anywhere.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Sequence

import numpy as np

from .bias import ErrorRates, prob_from_bias
from .circuits import Circuit
from .distribution import MAX_WIDTH, JointDistribution

__all__ = [
    "transfer_table",
    "pattern_bits",
    "pattern_index",
    "symmetric_pattern_probability",
    "enumerate_noisy_output_bias",
    "optimal_permutation_bias",
    "best_bias_over_permutations",
    "brute_force_best_permutation_bias",
]


def pattern_bits(index: int, n_sites: int) -> tuple[int, ...]:
    """Error pattern (e_1, ..., e_n) for a pattern index; e_1 is the LSB."""
    if not (0 <= index < (1 << n_sites)):
        raise ValueError(f"pattern index {index} out of range for {n_sites} sites")
    return tuple((index >> k) & 1 for k in range(n_sites))


def pattern_index(bits: Sequence[int]) -> int:
    """Inverse of pattern_bits: sum of e_k * 2^(k-1) over 1-based k."""
    return sum(e << k for k, e in enumerate(bits))


def symmetric_pattern_probability(bits: Sequence[int], eps: float) -> float:
    """Probability of one error pattern when every site flips i.i.d. at rate eps."""
    if not (0.0 <= eps < 0.5):
        raise ValueError("need 0 <= eps < 1/2")
    weight = sum(bits)
    return eps**weight * (1.0 - eps) ** (len(bits) - weight)


def _input_probabilities(width: int, input_bias) -> list[float]:
    if isinstance(input_bias, (int, float)):
        biases = [float(input_bias)] * width
    else:
        biases = [float(b) for b in input_bias]
        if len(biases) != width:
            raise ValueError(f"need {width} biases, got {len(biases)}")
    return [prob_from_bias(b) for b in biases]


def transfer_table(circuit: Circuit, rates: ErrorRates) -> tuple[float, ...]:
    """P(bit 0 reads 0 | input basis state x), for every x.

    One `Circuit.run_with_channels` pass over a register twice the
    circuit's width: the high half holds a copy of the input that no gate
    or channel touches, so unit mass on every (x, x) keeps the output of
    each basis state x in its own block. The output bias for independent
    input bits is then 2 * sum_x P(x) * table[x] - 1.
    """
    if 2 * circuit.width > MAX_WIDTH:
        raise ValueError(f"transfer tables need width at most {MAX_WIDTH // 2}, "
                         f"got {circuit.width}")
    size = 1 << circuit.width
    joint = np.zeros(size * size)
    joint[::size + 1] = 1.0
    out = circuit.run_with_channels(JointDistribution(joint, validate=False), rates)
    # row x holds the states whose input copy is x; even columns have bit 0 = 0
    return tuple(out.probs.reshape(size, size)[:, 0::2].sum(axis=1).tolist())


def enumerate_noisy_output_bias(circuit: Circuit, input_bias, rates: ErrorRates,
                                output_bit: int = 0) -> float:
    """Exact output bias of one bit under value-dependent bit-flip noise.

    Enumerates every (input state, error pattern) tuple: the input state
    is weighted by the product of per-bit probabilities, each noise site
    contributes eps0/eps1 factors according to the bit's value just
    before the site, and tuples whose final output bit reads 0 are
    accumulated. Returns 2 * P(output = 0) - 1.

    Deterministic: terms are accumulated in tuple order and summed with
    math.fsum.
    """
    if not (0 <= output_bit < circuit.width):
        raise ValueError("output bit out of range")
    n_sites = len(circuit.noise_sites)
    if circuit.width + n_sites > 24:
        raise ValueError("enumeration limited to 2^24 tuples")
    ps = _input_probabilities(circuit.width, input_bias)
    by_pos: dict[int, list[tuple[int, int]]] = {}
    for k, (pos, bit) in enumerate(circuit.noise_sites):
        by_pos.setdefault(pos, []).append((k, bit))

    terms: list[float] = []
    n_gates = len(circuit.gates)
    for x in range(1 << circuit.width):
        w_in = 1.0
        for i, p in enumerate(ps):
            w_in *= p if ((x >> i) & 1) == 0 else 1.0 - p
        if w_in == 0.0:
            continue
        for pattern in range(1 << n_sites):
            state = x
            w = w_in
            for pos in range(n_gates + 1):
                if pos > 0:
                    state = circuit.gates[pos - 1].apply_to_state(state)
                for k, bit in by_pos.get(pos, ()):
                    e = (pattern >> k) & 1
                    if (state >> bit) & 1 == 0:
                        w *= rates.eps0 if e else 1.0 - rates.eps0
                    else:
                        w *= rates.eps1 if e else 1.0 - rates.eps1
                    if e:
                        state ^= 1 << bit
            if (state >> output_bit) & 1 == 0:
                terms.append(w)
    return 2.0 * math.fsum(terms) - 1.0


def _check_odd(n: int) -> None:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"need an odd positive bit count, got {n}")


def optimal_permutation_bias(n: int, b: float) -> float:
    """Bias of the n-bit majority, the best any permutation can put on one bit.

    Binomial closed form: 2 * sum_{k >= ceil(n/2)} C(n,k) p^k q^(n-k) - 1
    with p = (1 + b)/2.
    """
    _check_odd(n)
    if not (0.0 < b <= 1.0):
        raise ValueError("need bias in (0, 1]")
    p = prob_from_bias(b)
    q = 1.0 - p
    total = sum(math.comb(n, k) * p**k * q ** (n - k) for k in range((n + 1) // 2, n + 1))
    return 2.0 * total - 1.0


def best_bias_over_permutations(n: int, b: float) -> float:
    """Max first-bit bias over all basis-state permutations, by sorting.

    The optimum maps the 2^(n-1) most likely input strings onto the
    states whose first bit is 0, so it equals twice the sum of the top
    half of the sorted input probabilities, minus one. Kept to n <= 5.
    """
    _check_odd(n)
    if n > 5:
        raise ValueError("exhaustive variant limited to n <= 5")
    p = prob_from_bias(b)
    probs = sorted(
        (math.prod(p if (x >> i) & 1 == 0 else 1.0 - p for i in range(n))
         for x in range(1 << n)),
        reverse=True,
    )
    return 2.0 * math.fsum(probs[: 1 << (n - 1)]) - 1.0


def brute_force_best_permutation_bias(b: float) -> float:
    """Search all 8! permutations of the 3-bit basis states for the best
    achievable first-bit bias. Slow by construction; exists to verify that
    no permutation beats the majority."""
    p = prob_from_bias(b)
    probs = [math.prod(p if (x >> i) & 1 == 0 else 1.0 - p for i in range(3))
             for x in range(8)]
    best = 0.0
    for perm in permutations(range(8)):
        p0 = 0.0
        for x in range(8):
            if perm[x] & 1 == 0:
                p0 += probs[x]
        if p0 > best:
            best = p0
    return 2.0 * best - 1.0
