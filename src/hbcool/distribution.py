"""Exact joint probability distributions over small bit registers.

A register of n bits (n <= 20) is represented by the full vector of
2^n basis-state probabilities. Bit 0 is the least significant bit of
the state index; this ordering is fixed throughout the package.

Run views. For bit k the vector is a sequence of runs of 2^k floats in
which bit k is constant, alternating 0, 1, 0, 1, ... `_runs` views the
vector as (pairs, 2) elements, each one whole run: float64 at bit 0,
complex128 (16 bytes) at bit 1, raw void of 8 << k bytes above. Copying
a half, or swapping the two halves, is then one strided copy of whole
runs at any bit instead of a loop over runs of two or four floats.

Chunked mixing. Arithmetic runs only on contiguous memory, `_CHUNK`
floats at a time, so that a chunk, its source and the scratch rows stay
in L2. The bit-flip channel copies the partner runs (the two halves
swapped) into a chunk of the output, multiplies it by the entry rates
and adds the source times the stay rates; both rate rows have period
2^(k+1). Postselection on runs of 2 or 4 floats divides whole chunks
and zeroes the other half's runs; elsewhere the half's strided loops
are long, and it divides the kept half into a zeroed vector. A
marginal sums bit 0's half as one strided vector, runs of 128 floats or
more in place, and shorter runs gathered a chunk at a time, then adds
the partial sums pairwise.

The bits do not change. Each output entry is the same
fl(fl(x_v * (1 - eps_v)) + fl(x_partner * eps_partner)), or x / p,
that elementwise numpy calls on the half views give. numpy sums a vector
pairwise in blocks of 128 and halves power-of-two lengths exactly, so
each partial sum is a subtree of the sum of the contiguous half, and
adding them pairwise rebuilds the same tree.

Memory. A kernel allocates its output and at most three chunk-sized
rows, under half a vector from 11 bits up: no index arrays and no
half-size temporaries.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bias import ErrorRates, prob_from_bias
from .circuits import MAX_WIDTH

__all__ = ["MAX_WIDTH", "JointDistribution", "product_distribution"]

_SUM_TOL = 1e-12
_CHUNK = 1 << 14  # floats per mixing chunk: 128 KiB
_PAIRWISE_BLOCK = 128  # numpy's pairwise summation adds blocks of this many floats


def _chunk_len(n: int) -> int:
    """Chunk length for an n-entry vector: `_CHUNK`, at most n/8 (so scratch
    rows stay below half a vector), at least 256 (a chunk's half is one
    pairwise block or more), and never more than n."""
    return min(n, max(2 * _PAIRWISE_BLOCK, min(_CHUNK, n >> 3)))


def _runs(a: np.ndarray, bit: int) -> np.ndarray:
    """(pairs, 2) view of a contiguous vector; [i, v] is the i-th run of
    2**bit floats whose `bit` reads v."""
    if bit == 0:
        dtype = np.dtype(np.float64)
    elif bit == 1:
        dtype = np.dtype(np.complex128)
    else:
        dtype = np.dtype((np.void, 8 << bit))
    return a.view(dtype).reshape(-1, 2)


def _pairwise(parts: np.ndarray) -> float:
    """Sum a power-of-two number of partial sums as a balanced tree."""
    while parts.size > 1:
        parts = parts[0::2] + parts[1::2]
    return float(parts[0])


class JointDistribution:
    """Probability vector over the 2^width basis states of a bit register."""

    __slots__ = ("width", "probs")

    def __init__(self, probs: Sequence[float] | np.ndarray, validate: bool = True):
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0 or arr.size & (arr.size - 1):
            raise ValueError("probability vector length must be a power of two")
        width = arr.size.bit_length() - 1
        if width > MAX_WIDTH:
            raise ValueError(f"register width {width} exceeds limit {MAX_WIDTH}")
        if validate:
            if not np.isfinite(arr).all():
                raise ValueError("probabilities must be finite")
            if np.any(arr < 0.0):
                raise ValueError("probabilities must be nonnegative")
            if abs(float(arr.sum()) - 1.0) > _SUM_TOL:
                raise ValueError("probabilities must sum to 1 within 1e-12")
        self.width = width
        self.probs = arr if arr.flags.c_contiguous else arr.copy()

    def copy(self) -> "JointDistribution":
        return JointDistribution(self.probs.copy(), validate=False)

    def _check(self, bit: int, value: int = 0) -> None:
        if not (0 <= bit < self.width):
            raise ValueError(f"bit index {bit} out of range for width {self.width}")
        if value not in (0, 1):
            raise ValueError(f"bit value must be 0 or 1, got {value!r}")

    def prob_bit_is(self, bit: int, value: int) -> float:
        """Marginal probability that the given bit reads `value` (0 or 1)."""
        self._check(bit, value)
        probs, v = self.probs, int(value)
        if bit == 0:
            # one strided vector, which numpy sums pairwise as a whole
            return float(probs[v::2].sum())
        if 1 << bit >= _PAIRWISE_BLOCK:
            # every run is a subtree of the half's pairwise sum
            return _pairwise(probs.reshape(-1, 2, 1 << bit)[:, v].sum(axis=-1))
        # short runs: gather them a chunk at a time into one pairwise piece
        runs = _runs(probs, bit)[:, v]
        piece = np.empty(min(_chunk_len(probs.size), probs.size >> 1))
        dst = piece.view(runs.dtype)
        parts = np.empty(runs.size // dst.size)
        for i in range(parts.size):
            dst[...] = runs[i * dst.size:(i + 1) * dst.size]
            parts[i] = piece.sum()
        return _pairwise(parts)

    def marginal_bias(self, bit: int) -> float:
        """2 * P(bit = 0) - 1."""
        return 2.0 * self.prob_bit_is(bit, 0) - 1.0

    def apply_bitflip_channel(self, bit: int, rates: ErrorRates) -> "JointDistribution":
        """Mix the selected bit through an asymmetric bit-flip channel.

        Mass with bit = 0 leaks to bit = 1 at rate eps0 and vice versa at
        eps1; total probability is preserved exactly.
        """
        self._check(bit)
        probs = self.probs
        n, run = probs.size, 1 << bit
        size = _chunk_len(n)
        stay, enter = (1.0 - rates.eps0, 1.0 - rates.eps1), (rates.eps1, rates.eps0)
        out, arrived = np.empty(n), np.empty(size)
        if run >= size:
            # each chunk lies in one half; its partner chunk is `run` floats away
            for start in range(0, n, size):
                v, partner = (start >> bit) & 1, start ^ run
                chunk = out[start:start + size]
                np.multiply(probs[partner:partner + size], enter[v], out=chunk)
                np.multiply(probs[start:start + size], stay[v], out=arrived)
                chunk += arrived
            return JointDistribution(out, validate=False)
        # each chunk holds whole pairs of runs: swap them, then scale by rate rows
        stay_row, enter_row = np.empty(size), np.empty(size)
        for row, rate in ((stay_row, stay), (enter_row, enter)):
            row3 = row.reshape(-1, 2, run)
            row3[:, 0], row3[:, 1] = rate
        src, dst = _runs(probs, bit), _runs(out, bit)
        for start in range(0, n, size):
            pairs = slice(start >> (bit + 1), (start + size) >> (bit + 1))
            if bit:
                dst[pairs, ::-1] = src[pairs]
            else:  # float pairs copy faster as two strided vectors
                dst[pairs, 0] = src[pairs, 1]
                dst[pairs, 1] = src[pairs, 0]
            chunk = out[start:start + size]
            chunk *= enter_row
            np.multiply(probs[start:start + size], stay_row, out=arrived)
            chunk += arrived
        return JointDistribution(out, validate=False)

    def condition_on(self, bit: int, value: int) -> tuple["JointDistribution", float]:
        """Postselect on a bit reading `value`; returns (renormalized, P(value))."""
        p = self.prob_bit_is(bit, value)
        if p <= 0.0:
            raise ValueError(f"cannot condition on zero-probability event bit{bit}={value}")
        probs, v = self.probs, int(value)
        n, run = probs.size, 1 << bit
        view = probs.reshape(-1, 2, run)
        if not 0 < bit < 3:
            # one strided vector, or runs of a cache line or more: divide
            # the kept half only
            out = np.zeros(n)
            np.divide(view[:, v], p, out=out.reshape(view.shape)[:, v])
            return JointDistribution(out, validate=False), p
        # runs of 2 or 4 floats: divide whole chunks, then zero the other half's runs
        out, size = np.empty(n), _chunk_len(n)
        dropped = out.reshape(view.shape)[:, 1 - v]
        with np.errstate(over="ignore"):  # the other half's quotients are discarded
            for start in range(0, n, size):
                np.divide(probs[start:start + size], p, out=out[start:start + size])
                dropped[start >> (bit + 1):(start + size) >> (bit + 1)] = 0.0
        return JointDistribution(out, validate=False), p

    def __eq__(self, other) -> bool:
        return (isinstance(other, JointDistribution)
                and self.width == other.width
                and np.array_equal(self.probs, other.probs))

    def __repr__(self) -> str:
        return f"JointDistribution(width={self.width})"


def product_distribution(biases: Sequence[float]) -> JointDistribution:
    """Independent product state: bit i reads 0 with probability (1 + b_i)/2."""
    if len(biases) == 0:
        raise ValueError("need at least one bit")
    if len(biases) > MAX_WIDTH:
        raise ValueError(f"register width {len(biases)} exceeds limit {MAX_WIDTH}")
    ps = [prob_from_bias(b) for b in biases]
    probs = np.empty(1 << len(ps))
    probs[0] = 1.0  # each pass reads only the entries the earlier ones wrote
    for bit, p in enumerate(ps):
        # little-endian: each new bit becomes the next-higher index bit
        low = probs[:1 << bit]
        np.multiply(low, 1.0 - p, out=probs[1 << bit:2 << bit])
        low *= p
    return JointDistribution(probs, validate=False)

