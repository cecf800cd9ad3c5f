"""Thresholds and maximum-achievable-bias limits for noisy compression.

Four noise models are analyzed, named by when the channel acts relative
to the 3-bit majority step and whether it is symmetric:

    sym-after    symmetric flip once, after the step
    sym-during   symmetric flips after every gate of the majority circuit
    asym-after   debiasing channel once, after the step
    asym-during  debiasing channel after every gate

Each model has an exact bias-update map, a largest attracting fixed
point ("the bias limit": above it the step stops helping), and a
second-order-in-rates approximation of that limit. Every root here is
found by bracketed bisection; the closed forms exist as cross-checks,
and the cubic for the asymmetric models is never solved by radicals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .bias import ErrorRates, prob_from_bias, three_bc_bias
from .circuits import majority_circuit_toffoli
from .noise import transfer_table
# bound here so the benchmark's traced run can wrap it as hbcool.limits.<name>
from .noise import enumerate_noisy_output_bias  # noqa: F401

__all__ = [
    "SYM_AFTER", "SYM_DURING", "ASYM_AFTER", "ASYM_DURING", "MODEL_LABELS",
    "bisect_root",
    "newbias_sym_after", "threshold_sym_after",
    "blim_sym_after", "blim_sym_after_second_order",
    "newbias_sym_during", "threshold_sym_during",
    "blim_sym_during", "blim_sym_during_second_order",
    "newbias_asym_after", "blim_asym_after", "blim_asym_after_second_order",
    "newbias_asym_during", "blim_asym_during", "blim_asym_during_second_order",
    "blim_asym_after_from_initial_bias", "blim_asym_during_from_initial_bias",
    "BiasUpdateModel", "make_model", "attracting_limit",
    "LimitReport", "limit_report", "summary_table",
]

SYM_AFTER = "sym-after"
SYM_DURING = "sym-during"
ASYM_AFTER = "asym-after"
ASYM_DURING = "asym-during"
MODEL_LABELS = (SYM_AFTER, SYM_DURING, ASYM_AFTER, ASYM_DURING)


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of f on [lo, hi] by bisection; endpoints must bracket a sign change."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def _check_rate(eps: float, hi: float = 0.5) -> float:
    if not (0.0 <= eps < hi):
        raise ValueError(f"error rate must be in [0, {hi}), got {eps!r}")
    return float(eps)


# ------------------------------------------------------------- symmetric, after


def newbias_sym_after(b: float, eps: float) -> float:
    """Majority step followed by one symmetric flip: ((3b - b^3)/2)(1 - 2 eps)."""
    _check_rate(eps)
    return three_bc_bias(b) * (1.0 - 2.0 * eps)


def threshold_sym_after() -> float:
    """Rate above which the step cannot increase any positive bias: exactly 1/6."""
    return 1.0 / 6.0


def blim_sym_after(eps: float) -> float:
    """Attracting fixed point sqrt((1 - 6 eps)/(1 - 2 eps)); 0 above threshold."""
    _check_rate(eps)
    if eps >= 1.0 / 6.0:
        return 0.0
    return math.sqrt((1.0 - 6.0 * eps) / (1.0 - 2.0 * eps))


def blim_sym_after_second_order(eps: float) -> float:
    _check_rate(eps)
    return 1.0 - 2.0 * eps - 6.0 * eps * eps


# ------------------------------------------------------------ symmetric, during


def newbias_sym_during(b: float, eps: float) -> float:
    """Exact bias out of the majority circuit with a flip chance at each of
    the 7 relevant sites: (b/2)(1-2e)^3 (3 - 6e + 4e^2 - b^2 (1-2e)^3)."""
    _check_rate(eps)
    if not (-1.0 <= b <= 1.0):
        raise ValueError(f"bias must be in [-1, 1], got {b!r}")
    c = (1.0 - 2.0 * eps) ** 3
    return 0.5 * b * c * (3.0 - 6.0 * eps + 4.0 * eps * eps - b * b * c)


def _sym_during_zero_bias_gain(eps: float) -> float:
    # improvement polynomial of newbias_sym_during at b -> 0
    return -2.0 + (1.0 - 2.0 * eps) ** 3 * (3.0 - 6.0 * eps + 4.0 * eps * eps)


@lru_cache(maxsize=1)
def threshold_sym_during() -> float:
    """Unique root in (0, 1/2) of the zero-bias gain polynomial, by bisection."""
    return bisect_root(_sym_during_zero_bias_gain, 0.0, 0.49, tol=1e-12)


def blim_sym_during(eps: float) -> float:
    """Closed-form attracting fixed point of the during-model update.

    sqrt(1 - 24e + 76e^2 - 120e^3 + 96e^4 - 32e^5) / (1 - 2e)^3; reported
    as 0 at or above the threshold.
    """
    _check_rate(eps)
    if eps >= threshold_sym_during():
        return 0.0
    poly = (1.0 - 24.0 * eps + 76.0 * eps**2 - 120.0 * eps**3
            + 96.0 * eps**4 - 32.0 * eps**5)
    return math.sqrt(poly) / (1.0 - 2.0 * eps) ** 3


def blim_sym_during_second_order(eps: float) -> float:
    _check_rate(eps)
    return 1.0 - 6.0 * eps - 82.0 * eps * eps


# ------------------------------------------------------------ asymmetric, after


def newbias_asym_after(b: float, rates: ErrorRates) -> float:
    """Majority step followed by one debias step: ((3b - b^3)/2)(1 - s) + d."""
    return three_bc_bias(b) * (1.0 - rates.s) + rates.d


def _asym_after_gain_cubic(rates: ErrorRates) -> Callable[[float], float]:
    s, d = rates.s, rates.d
    return lambda b: b**3 * (s - 1.0) + b * (1.0 - 3.0 * s) + 2.0 * d


def blim_asym_after(rates: ErrorRates) -> float:
    """Unique positive root of b^3(s-1) + b(1-3s) + 2d, by bisection.

    Requires s < 1/3 and 0 <= d < s (d = 0 recovers the symmetric case,
    where the root is taken strictly above the trivial root at 0).
    """
    s, d = rates.s, rates.d
    if s >= 1.0 / 3.0:
        raise ValueError(f"analysis requires s < 1/3, got s={s}")
    if d < 0.0 or (d >= s and s > 0.0):
        raise ValueError(f"analysis requires 0 <= d < s, got d={d}, s={s}")
    if s == 0.0:
        return 1.0
    lo = 1e-9 if d == 0.0 else 0.0
    return bisect_root(_asym_after_gain_cubic(rates), lo, 1.0 + 1e-9)


def blim_asym_after_second_order(rates: ErrorRates) -> float:
    s, d = rates.s, rates.d
    return 1.0 - s + d - 1.5 * s * s - 1.5 * d * d + 3.0 * d * s


def blim_asym_after_from_initial_bias(s: float, b_i: float) -> float:
    """Second-order limit in terms of the relaxation speed and bath bias d/s."""
    return (1.0 - s - 1.5 * s * s + b_i * s + 3.0 * b_i * s * s
            - 1.5 * b_i * b_i * s * s)


# ----------------------------------------------------------- asymmetric, during


def _asym_during_weight_sums(rates: ErrorRates) -> tuple[float, float, float, float]:
    """c_k = sum of P(bit 0 reads 0 | x) over the inputs x with k ones.

    From the transfer table of the majority circuit and its 7 noise sites.
    """
    table = transfer_table(majority_circuit_toffoli(), rates)
    return tuple(math.fsum(q for x, q in enumerate(table) if x.bit_count() == k)
                 for k in range(4))


def newbias_asym_during(b: float, rates: ErrorRates, mode: str = "exact",
                        weights: Optional[tuple[float, float, float, float]] = None) -> float:
    """Bias out of the majority circuit with a debias chance at each site.

    exact: the exact cubic 2 * sum_k c_k p^(3-k) (1-p)^k - 1 with
    p = (1 + b)/2, where c_k sums the circuit's transfer table over the
    input states with k ones. The table is built on each call unless
    `weights` passes c_0..c_3 for these rates; `make_model` builds them
    once per model.
    second_order: polynomial approximation, second order in s and d.
    """
    if not (-1.0 <= b <= 1.0):
        raise ValueError(f"bias must be in [-1, 1], got {b!r}")
    if mode == "exact":
        p = prob_from_bias(b)
        q = 1.0 - p
        c = weights if weights is not None else _asym_during_weight_sums(rates)
        return 2.0 * (c[0] * p**3 + c[1] * p * p * q + c[2] * p * q * q + c[3] * q**3) - 1.0
    if mode == "second_order":
        if weights is not None:
            raise ValueError("weights apply to exact mode only")
        s, d = rates.s, rates.d
        return 0.5 * ((5.0 * d + 4.0 * d * d - 6.0 * s * d)
                      + (3.0 - 12.0 * s + 19.0 * s * s - d * d + 4.0 * d * s) * b
                      + d * b * b
                      + (-1.0 + 6.0 * s - 15.0 * s * s) * b**3)
    raise ValueError(f"mode must be 'exact' or 'second_order', got {mode!r}")


def _asym_during_gain_cubic(rates: ErrorRates) -> Callable[[float], float]:
    s, d = rates.s, rates.d
    return lambda b: ((5.0 * d + 4.0 * d * d - 6.0 * s * d)
                      + (1.0 - 12.0 * s + 19.0 * s * s - d * d + 4.0 * d * s) * b
                      + d * b * b
                      + (-1.0 + 6.0 * s - 15.0 * s * s) * b**3)


def _check_asym_during_rates(rates: ErrorRates) -> None:
    s, d = rates.s, rates.d
    if s > 0.08:
        raise ValueError(f"during-model cubic is only valid for small s; got s={s} > 0.08")
    if s > 0.04:
        warnings.warn(f"during-model cubic is stated for s of at most about 0.04; s={s}",
                      stacklevel=3)
    if d < 0.0 or (d >= s and s > 0.0):
        raise ValueError(f"analysis requires 0 <= d < s, got d={d}, s={s}")


def blim_asym_during(rates: ErrorRates) -> float:
    """Positive root of the second-order gain cubic, by bisection."""
    _check_asym_during_rates(rates)
    if rates.s == 0.0:
        return 1.0
    lo = 1e-9 if rates.d == 0.0 else 0.0
    return bisect_root(_asym_during_gain_cubic(rates), lo, 1.2)


def blim_asym_during_second_order(rates: ErrorRates) -> float:
    s, d = rates.s, rates.d
    return (1.0 - 3.0 * s + 3.0 * d - 9.0 * d * d - 20.5 * s * s
            + 32.0 * d * s)


def blim_asym_during_from_initial_bias(s: float, b_i: float) -> float:
    """Second-order during-model limit in terms of s and the bath bias d/s."""
    return (1.0 - 3.0 * s - 20.5 * s * s + 3.0 * b_i * s
            + 32.0 * b_i * s * s - 9.0 * b_i * b_i * s * s)


# --------------------------------------------------------------- generic layer


@dataclass(frozen=True)
class BiasUpdateModel:
    """A noise model as a bare bias-update map plus its parameters."""

    label: str
    rates: ErrorRates
    update: Callable[[float], float]


def make_model(label: str, rates: ErrorRates) -> BiasUpdateModel:
    """Bind a model label to its exact update map.

    Symmetric labels require a symmetric channel (d = 0). asym-during
    builds its transfer-table weights here, once per model.
    """
    if label not in MODEL_LABELS:
        raise ValueError(f"unknown model {label!r}; expected one of {MODEL_LABELS}")
    if label in (SYM_AFTER, SYM_DURING) and rates.d != 0.0:
        raise ValueError(f"{label} requires a symmetric channel (eps0 == eps1)")
    eps = rates.eps0
    if label == ASYM_DURING:
        weights = _asym_during_weight_sums(rates)
        update = lambda b: newbias_asym_during(b, rates, mode="exact", weights=weights)
    else:
        update = {
            SYM_AFTER: lambda b: newbias_sym_after(b, eps),
            SYM_DURING: lambda b: newbias_sym_during(b, eps),
            ASYM_AFTER: lambda b: newbias_asym_after(b, rates),
        }[label]
    return BiasUpdateModel(label, rates, update)


def attracting_limit(update: Callable[[float], float], probe: float = 1e-9,
                     tol: float = 1e-12) -> float:
    """Largest attracting fixed point of a monotone bias-update map on [0, 1].

    Bisection on update(b) - b over [probe, 1]. Returns 0.0 when the map
    does not improve even the probe bias (rates beyond threshold).
    """
    gain = lambda b: update(b) - b
    lo = 0.0 if gain(0.0) > 0.0 else probe
    if gain(lo) <= 0.0:
        return 0.0
    if gain(1.0) >= 0.0:
        return 1.0
    return bisect_root(gain, lo, 1.0, tol=tol)


@dataclass(frozen=True)
class LimitReport:
    """Threshold and bias-limit summary for one model at given rates."""

    model: str
    rates: ErrorRates
    threshold: Optional[float]
    b_lim: float
    b_lim_second_order: float
    gap: float
    above_threshold: bool

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "eps0": self.rates.eps0,
            "eps1": self.rates.eps1,
            "s": self.rates.s,
            "d": self.rates.d,
            "threshold": self.threshold,
            "b_lim": self.b_lim,
            "b_lim_second_order": self.b_lim_second_order,
            "gap": self.gap,
            "above_threshold": self.above_threshold,
        }


_THRESHOLDS: dict[str, Callable[[], Optional[float]]] = {
    SYM_AFTER: threshold_sym_after,
    SYM_DURING: threshold_sym_during,
    ASYM_AFTER: lambda: None,
    ASYM_DURING: lambda: None,
}

_SECOND_ORDER: dict[str, Callable[[ErrorRates], float]] = {
    SYM_AFTER: lambda r: blim_sym_after_second_order(r.eps0),
    SYM_DURING: lambda r: blim_sym_during_second_order(r.eps0),
    ASYM_AFTER: blim_asym_after_second_order,
    ASYM_DURING: blim_asym_during_second_order,
}


def limit_report(model: BiasUpdateModel | str, rates: ErrorRates | None = None) -> LimitReport:
    """Bias limit for a model, from generic bisection on its update map."""
    if isinstance(model, str):
        if rates is None:
            raise ValueError("rates required when model is given as a label")
        model = make_model(model, rates)
    threshold = _THRESHOLDS[model.label]()
    b_lim = attracting_limit(model.update)
    second = _SECOND_ORDER[model.label](model.rates)
    above = b_lim == 0.0
    return LimitReport(
        model=model.label,
        rates=model.rates,
        threshold=threshold,
        b_lim=b_lim,
        b_lim_second_order=second,
        gap=abs(b_lim - second),
        above_threshold=above,
    )


def summary_table(eps: float, s: float, b_i: float) -> list[dict]:
    """The four-model summary: thresholds and second-order bias limits.

    Symmetric rows are evaluated at the flip rate eps; asymmetric rows at
    relaxation speed s with bath bias b_i (so d = s * b_i).
    """
    _check_rate(eps)
    _check_rate(s, hi=1.0)
    if not (0.0 <= b_i <= 1.0):
        raise ValueError("bath bias must be in [0, 1]")
    return [
        {
            "model": SYM_AFTER,
            "threshold": threshold_sym_after(),
            "threshold_text": "1/6",
            "b_lim_second_order": blim_sym_after_second_order(eps),
        },
        {
            "model": SYM_DURING,
            "threshold": threshold_sym_during(),
            "threshold_text": f"{threshold_sym_during():.6f}",
            "b_lim_second_order": blim_sym_during_second_order(eps),
        },
        {
            "model": ASYM_AFTER,
            "threshold": None,
            "threshold_text": "N/A",
            "b_lim_second_order": blim_asym_after_from_initial_bias(s, b_i),
        },
        {
            "model": ASYM_DURING,
            "threshold": None,
            "threshold_text": "N/A",
            "b_lim_second_order": blim_asym_during_from_initial_bias(s, b_i),
        },
    ]
