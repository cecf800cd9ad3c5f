"""Scalar polarization algebra for reversible bit-compression cooling.

A probabilistic bit that equals 0 with probability p carries a
polarization ("bias") of 2p - 1, a dimensionless number in [-1, 1].
This module holds the closed-form scalar update rules used everywhere
else: the 2-bit and 3-bit compression steps, their heat-bath steady
states, and the asymmetric bit-flip (debiasing) channel.

Biases are plain floats. Inputs outside the valid range raise
ValueError eagerly; nothing is clamped, so test bugs stay visible.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "prob_from_bias",
    "two_bc_accept_bias",
    "two_bc_accept_prob",
    "three_bc_bias",
    "three_bc_bias_unequal",
    "steady_state_bias",
    "ErrorRates",
    "debias_step",
    "steady_state_bias_noisy",
    "fibonacci",
]


def _require_range(value: float, lo: float, hi: float, name: str) -> float:
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return float(value)


def prob_from_bias(b: float) -> float:
    """Probability of reading 0 for a bit of the given bias: (1 + b) / 2."""
    _require_range(b, -1.0, 1.0, "bias")
    return (1.0 + b) / 2.0


def two_bc_accept_bias(b: float) -> float:
    """Bias of the control bit after a 2-bit compression step, accepted branch.

    The step is a CNOT between two bits of equal bias followed by
    conditioning on the target reading 0. The rejected branch leaves an
    unbiased bit. Requires b >= 0 (compression amplifies positive bias).
    """
    _require_range(b, 0.0, 1.0, "bias")
    return 2.0 * b / (1.0 + b * b)


def two_bc_accept_prob(b: float) -> float:
    """Probability the 2-bit compression step accepts: (1 + b^2) / 2."""
    _require_range(b, 0.0, 1.0, "bias")
    return (1.0 + b * b) / 2.0


def three_bc_bias(b: float) -> float:
    """Bias after a 3-bit majority compression of three equal-bias bits.

    The majority of three independent bits of bias b has bias
    (3b - b^3) / 2; fixed points are exactly -1, 0 and 1. Evaluated as
    (3/2 - b^2/2) b, the noisy updates' Horner order at zero rates.
    """
    _require_range(b, -1.0, 1.0, "bias")
    return (1.5 - 0.5 * b * b) * b


def three_bc_bias_unequal(b1: float, b2: float, b3: float) -> float:
    """Majority bias for three independent bits of unequal biases."""
    _require_range(b1, -1.0, 1.0, "bias b1")
    _require_range(b2, -1.0, 1.0, "bias b2")
    _require_range(b3, -1.0, 1.0, "bias b3")
    return (b1 + b2 + b3 - b1 * b2 * b3) / 2.0


def steady_state_bias(ba: float, bb: float) -> float:
    """Limit bias of repeatedly majority-compressing against a fixed pair.

    Fixed point of x -> three_bc_bias_unequal(ba, bb, x); equals
    (ba + bb) / (1 + ba*bb), which the formula itself caps at 1.
    """
    _require_range(ba, 0.0, 1.0, "bias ba")
    _require_range(bb, 0.0, 1.0, "bias bb")
    return (ba + bb) / (1.0 + ba * bb)


@dataclass(frozen=True)
class ErrorRates:
    """Asymmetric bit-flip channel: eps0 = P(0 -> 1), eps1 = P(1 -> 0).

    Both rates must lie in [0, 1/2). Derived quantities: s = eps0 + eps1
    (relaxation speed) and d = eps1 - eps0 (drift); the channel's fixed
    point bias is d/s. The symmetric channel is the d = 0 slice.
    """

    eps0: float
    eps1: float

    def __post_init__(self) -> None:
        for name, rate in (("eps0", self.eps0), ("eps1", self.eps1)):
            if not (0.0 <= rate < 0.5):
                raise ValueError(f"{name} must be in [0, 1/2), got {rate!r}")

    @classmethod
    def symmetric(cls, eps: float) -> "ErrorRates":
        return cls(eps, eps)

    @classmethod
    def from_sd(cls, s: float, d: float) -> "ErrorRates":
        return cls((s - d) / 2.0, (s + d) / 2.0)

    @property
    def s(self) -> float:
        return self.eps0 + self.eps1

    @property
    def d(self) -> float:
        return self.eps1 - self.eps0


def debias_step(b: float, rates: ErrorRates) -> float:
    """One application of the asymmetric bit-flip channel: b(1-s) + d.

    Contracts toward d/s with factor exactly (1 - s) per step.
    """
    _require_range(b, -1.0, 1.0, "bias")
    return b * (1.0 - rates.s) + rates.d

def steady_state_bias_noisy(ba: float, bb: float, rates: ErrorRates) -> float:
    """Steady state of majority compression with a debias step after each pass.

    Fixed point of x -> debias_step(three_bc_bias_unequal(ba, bb, x)):
    ((ba + bb)(1 - s) + 2d) / (1 + ba*bb*(1 - s) + s). Reduces to
    steady_state_bias for a noiseless channel.
    """
    _require_range(ba, 0.0, 1.0, "bias ba")
    _require_range(bb, 0.0, 1.0, "bias bb")
    s, d = rates.s, rates.d
    return ((ba + bb) * (1.0 - s) + 2.0 * d) / (1.0 + ba * bb * (1.0 - s) + s)


def fibonacci(n: int) -> int:
    """n-th Fibonacci number under the convention F(1) = F(2) = 1.

    Exact integer arithmetic; n must be a positive integer.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"Fibonacci index must be a positive integer, got {n!r}")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a

