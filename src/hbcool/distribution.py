"""Exact joint probability distributions over small bit registers.

A register of n bits (n <= 20) is represented by the full vector of
2^n basis-state probabilities. Bit 0 is the least significant bit of
the state index; this ordering is fixed throughout the package.

Single-bit kernels use the (high, bit, low) view `probs.reshape(-1, 2,
2**bit)`, whose axis 1 is the chosen bit. A marginal sums a contiguous
copy of one half, in index order; the bit-flip channel mixes the two
halves; postselection keeps one. No kernel builds an index array.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bias import ErrorRates, prob_from_bias
from .circuits import MAX_WIDTH

__all__ = ["MAX_WIDTH", "JointDistribution", "product_distribution"]

_SUM_TOL = 1e-12


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
            if np.any(arr < 0.0):
                raise ValueError("probabilities must be nonnegative")
            if abs(float(arr.sum()) - 1.0) > _SUM_TOL:
                raise ValueError("probabilities must sum to 1 within 1e-12")
        self.width = width
        self.probs = arr

    def copy(self) -> "JointDistribution":
        return JointDistribution(self.probs.copy(), validate=False)

    def _split(self, bit: int, value: int = 0) -> np.ndarray:
        """The (high, bit, low) view of `probs`; axis 1 is the chosen bit."""
        if not (0 <= bit < self.width):
            raise ValueError(f"bit index {bit} out of range for width {self.width}")
        if value not in (0, 1):
            raise ValueError(f"bit value must be 0 or 1, got {value!r}")
        return self.probs.reshape(-1, 2, 1 << bit)

    def prob_bit_is(self, bit: int, value: int) -> float:
        """Marginal probability that the given bit reads `value` (0 or 1)."""
        half = self._split(bit, value)[:, int(value)]
        return float(np.ascontiguousarray(half).sum())

    def marginal_bias(self, bit: int) -> float:
        """2 * P(bit = 0) - 1."""
        return 2.0 * self.prob_bit_is(bit, 0) - 1.0

    def apply_bitflip_channel(self, bit: int, rates: ErrorRates) -> "JointDistribution":
        """Mix the selected bit through an asymmetric bit-flip channel.

        Mass with bit = 0 leaks to bit = 1 at rate eps0 and vice versa at
        eps1; total probability is preserved exactly.
        """
        view = self._split(bit)
        out = np.empty_like(self.probs)
        mixed, arrived = out.reshape(view.shape), np.empty(view.shape[::2])
        for v, leave, enter in ((0, rates.eps0, rates.eps1), (1, rates.eps1, rates.eps0)):
            np.multiply(view[:, v], 1.0 - leave, out=mixed[:, v])
            np.multiply(view[:, 1 - v], enter, out=arrived)
            mixed[:, v] += arrived
        return JointDistribution(out, validate=False)

    def condition_on(self, bit: int, value: int) -> tuple["JointDistribution", float]:
        """Postselect on a bit reading `value`; returns (renormalized, P(value))."""
        p = self.prob_bit_is(bit, value)
        if p <= 0.0:
            raise ValueError(f"cannot condition on zero-probability event bit{bit}={value}")
        view, v = self._split(bit), int(value)
        out = np.zeros_like(self.probs)
        np.divide(view[:, v], p, out=out.reshape(view.shape)[:, v])
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
    probs = np.ones(1 << len(ps))
    for bit, p in enumerate(ps):
        # little-endian: each new bit becomes the next-higher index bit
        low = probs[:1 << bit]
        np.multiply(low, 1.0 - p, out=probs[1 << bit:2 << bit])
        low *= p
    return JointDistribution(probs, validate=False)

