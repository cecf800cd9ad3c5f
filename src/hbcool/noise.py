"""Exhaustive noisy-output enumeration: the test oracle for noisy circuits.

`enumerate_noisy_output_bias` sums exact tuple probabilities over every
(input state) x (error pattern) combination, with per-site flip
probabilities that may depend on the bit's value at the site (the
asymmetric channel). No sampling is involved. No production path calls
it: `limits` derives each majority circuit's exact update by the
register's push, `Circuit.run_with_channels` on exact polynomial
weights. It stays in the package because it
takes any circuit, per-bit input biases and any output bit, and so
checks every noisy bias update here by a route that shares nothing with
the derivation; the README's example calls it.

This module never imports numpy.
"""

from __future__ import annotations

import math

from .bias import ErrorRates, prob_from_bias
from .circuits import Circuit

__all__ = ["enumerate_noisy_output_bias"]


def _input_probabilities(width: int, input_bias) -> list[float]:
    if isinstance(input_bias, (int, float)):
        biases = [float(input_bias)] * width
    else:
        biases = [float(b) for b in input_bias]
        if len(biases) != width:
            raise ValueError(f"need {width} biases, got {len(biases)}")
    return [prob_from_bias(b) for b in biases]


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
