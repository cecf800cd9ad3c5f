"""Noisy-circuit transfer tables and exhaustive enumeration.

`transfer_table` is the production path for exact noisy outputs. For a
fixed circuit the output is linear in the input distribution, and
P(bit 0 reads 0 | x) for each input basis state x is a polynomial in the
channel rates (eps0, eps1) with integer coefficients. The table is
derived once per circuit, in pure Python; `limits` expands it into each
majority circuit's exact bias update.

The tuple enumerator is the brute-force oracle for every noisy bias
update in this package and is called only by tests: it sums exact tuple
probabilities over all (input state) x (error pattern) combinations,
with per-site flip probabilities that may depend on the bit's value at
the site (the asymmetric channel). No sampling is involved anywhere.

This module never imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .bias import ErrorRates, prob_from_bias
from .circuits import Circuit

__all__ = [
    "RatePolynomial",
    "transfer_table",
    "enumerate_noisy_output_bias",
]

MAX_TABLE_WIDTH = 10  # a transfer table has one row per input basis state


def _input_probabilities(width: int, input_bias) -> list[float]:
    if isinstance(input_bias, (int, float)):
        biases = [float(input_bias)] * width
    else:
        biases = [float(b) for b in input_bias]
        if len(biases) != width:
            raise ValueError(f"need {width} biases, got {len(biases)}")
    return [prob_from_bias(b) for b in biases]


@dataclass(frozen=True)
class RatePolynomial:
    """A polynomial in the channel rates (eps0, eps1) with integer coefficients.

    `terms` holds (coefficient, i, j) for every nonzero coefficient of
    eps0^i eps1^j, in (i, j) order.
    """

    terms: tuple[tuple[int, int, int], ...] = ()

    @classmethod
    def _from_coefficients(cls, coefficients: Mapping[tuple[int, int], int]) -> RatePolynomial:
        return cls(tuple((c, i, j) for (i, j), c in sorted(coefficients.items()) if c))

    def __add__(self, other: RatePolynomial) -> RatePolynomial:
        total: dict[tuple[int, int], int] = {}
        for c, i, j in self.terms + other.terms:
            total[i, j] = total.get((i, j), 0) + c
        return RatePolynomial._from_coefficients(total)


def transfer_table(circuit: Circuit) -> tuple[RatePolynomial, ...]:
    """P(bit 0 reads 0 | input basis state x), for every x, exact in the rates.

    Each x is pushed through the gates and noise sites in
    `Circuit.run_with_channels` order. A path's weight is
    eps0^a (1-eps0)^b eps1^c (1-eps1)^d: a site that finds its bit at
    value v multiplies by 1 - eps_v if the bit stays and by eps_v if it
    flips. Paths merge on (state, a, b, c, d), and those that end with
    bit 0 at 0 expand into the row's polynomial. The output bias for
    independent input bits at rates r is 2 * sum_x P(x) * table[x](r) - 1.
    """
    if circuit.width > MAX_TABLE_WIDTH:
        raise ValueError(f"transfer tables need width at most {MAX_TABLE_WIDTH}, "
                         f"got {circuit.width}")
    # A path is one int: the state in the low `width` bits, and above it the
    # exponents a, b, c, d as base-`radix` digits. Gates read and write only
    # the state bits, so they act on the packed path as on the state.
    radix = len(circuit.noise_sites) + 1
    ea, eb, ec, ed = (radix**k << circuit.width for k in range(4))
    signed_binomials = [[(-1) ** k * math.comb(n, k) for k in range(n + 1)]
                        for n in range(radix)]
    by_pos: dict[int, list[int]] = {}
    for pos, bit in circuit.noise_sites:
        by_pos.setdefault(pos, []).append(1 << bit)
    rows = []
    for x in range(1 << circuit.width):
        paths = {x: 1}
        for pos in range(len(circuit.gates) + 1):
            if pos > 0:
                gate = circuit.gates[pos - 1]
                paths = {gate.apply_to_state(path): n for path, n in paths.items()}
            for mask in by_pos.get(pos, ()):
                merged: dict[int, int] = {}
                for path, n in paths.items():
                    if path & mask:
                        stay, flip = path + ed, (path ^ mask) + ec
                    else:
                        stay, flip = path + eb, (path ^ mask) + ea
                    merged[stay] = merged.get(stay, 0) + n
                    merged[flip] = merged.get(flip, 0) + n
                paths = merged
        reads_zero: dict[int, int] = {}
        for path, n in paths.items():
            if not path & 1:
                digits = path >> circuit.width
                reads_zero[digits] = reads_zero.get(digits, 0) + n
        coefficients: dict[tuple[int, int], int] = {}
        for digits, n in reads_zero.items():
            a, b, c, d = (digits // radix**k % radix for k in range(4))
            # n * eps0^a (1-eps0)^b eps1^c (1-eps1)^d, expanded binomially
            for k, u in enumerate(signed_binomials[b]):
                for m, v in enumerate(signed_binomials[d]):
                    coefficients[a + k, c + m] = coefficients.get((a + k, c + m), 0) + n * u * v
        rows.append(RatePolynomial._from_coefficients(coefficients))
    return tuple(rows)


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
