"""Thresholds and maximum-achievable-bias limits for noisy compression.

Four noise models are analyzed, named by when the channel acts relative
to the 3-bit majority step and whether it is symmetric:

    sym-after    symmetric flip once, after the step
    sym-during   symmetric flips after every gate of the majority circuit
    asym-after   debiasing channel once, after the step
    asym-during  debiasing channel after every gate

Each model has an exact bias-update map, a largest attracting fixed
point ("the bias limit": above it the step stops helping), and a
second-order-in-rates approximation of that limit. Every exact root here
is found by bracketed bisection; the closed forms exist as cross-checks.
Update maps are pre-bound: one builder per model checks the rates once and
computes their constants; its map checks only the bias. `make_model` and
the `newbias_*` functions share the builders.

The four models are two circuits, each at two rate slices. The during
models run the Toffoli majority circuit with its 7 noise sites, the
after models the same gates with one site on bit 0 after the last gate,
and the symmetric models are the s = 2 eps, d = 0 slice of the
asymmetric ones. A circuit's transfer table, summed by input weight,
gives the four weights c_0..c_3 of its update, a cubic in the input
bias, as exact polynomials in the rates. The exact asym-during update
evaluates them, and every model's second-order update and limit are
expanded from them in exact rationals. Each derivation runs once per
process and circuit, on first use: importing this module derives
nothing and loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, NoReturn, Optional

from .bias import ErrorRates
from .circuits import Circuit, majority_circuit_toffoli
from .noise import RatePolynomial, transfer_table
# bound here so the benchmark's traced run can wrap them as hbcool.limits.<name>
from .bias import three_bc_bias  # noqa: F401
from .noise import enumerate_noisy_output_bias  # noqa: F401

__all__ = [
    "SYM_AFTER", "SYM_DURING", "ASYM_AFTER", "ASYM_DURING", "MODEL_LABELS",
    "bisect_root",
    "newbias_sym_after", "threshold_sym_after",
    "blim_sym_after",
    "newbias_sym_during", "threshold_sym_during", "blim_sym_during",
    "newbias_asym_after", "blim_asym_after", "newbias_asym_during",
    "THRESHOLDS", "BiasUpdateModel", "make_model", "attracting_limit",
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


def _check_rate(eps: float) -> float:
    if not (0.0 <= eps < 0.5):
        raise ValueError(f"error rate must be in [0, 0.5), got {eps!r}")
    return float(eps)


def _reject_bias(b: float, bounds: str) -> NoReturn:
    raise ValueError(f"bias must be in [{bounds}], got {b!r}")


# ------------------------------------------------- the two circuits' forms


@cache
def _weight_polynomials(during: bool) -> tuple[RatePolynomial, ...]:
    """c_0..c_3 as exact polynomials in the rates, derived on first use.

    c_k sums a circuit's transfer table over the input states with k ones.
    The during models' circuit is the Toffoli majority with its 7 noise
    sites; the after models' has the same gates and one site, on bit 0
    after the last gate.
    """
    circuit = majority_circuit_toffoli()
    if not during:
        circuit = Circuit(circuit.width, circuit.gates, ((len(circuit.gates), 0),))
    table = transfer_table(circuit)
    return tuple(sum((q for x, q in enumerate(table) if x.bit_count() == k), RatePolynomial())
                 for k in range(4))


def _add_product(out: dict, p: dict, q: dict) -> dict:
    """out += p * q, for polynomials in (s, d) held as {(i, j): coefficient of
    s^i d^j}, truncated to total degree 2."""
    for (i, j), a in p.items():
        for (k, m), c in q.items():
            if i + j + k + m <= 2:
                out[i + k, j + m] = out.get((i + k, j + m), 0) + a * c
    return out


@cache
def _second_order_forms(during: bool) -> tuple[tuple, tuple[float, ...]]:
    """A circuit's update and bias limit to second order in (s, d), derived
    exactly on first use.

    The update is 2 sum_k c_k p^(3-k) q^k - 1 with p, q = (1 +- b)/2, and
    eps0 = (s - d)/2, eps1 = (s + d)/2 put into each c_k. Returns its b^m
    coefficient for m = 0..3, each as (coefficient, i, j) terms of s^i d^j
    in evaluation order, and the limit's coefficients of s, d, s^2, sd, d^2.
    """
    from fractions import Fraction  # loaded here: commands that derive nothing never need it

    half = Fraction(1, 2)
    powers0, powers1 = [{(0, 0): 1}], [{(0, 0): 1}]
    for _ in range(2):
        powers0.append(_add_product({}, powers0[-1], {(1, 0): half, (0, 1): -half}))
        powers1.append(_add_product({}, powers1[-1], {(1, 0): half, (0, 1): half}))
    update: list[dict] = [{(0, 0): -1}, {}, {}, {}]
    for k, weight in enumerate(_weight_polynomials(during)):
        in_sd: dict = {}
        for n, i, j in weight.terms:
            if i + j <= 2:
                _add_product(in_sd, {(0, 0): n}, _add_product({}, powers0[i], powers1[j]))
        for m in range(4):
            # the b^m coefficient of 2 p^(3-k) q^k = (1 + b)^(3-k) (1 - b)^k / 4
            beta = sum(math.comb(3 - k, r) * math.comb(k, m - r) * (-1) ** (m - r)
                       for r in range(m + 1))
            _add_product(update[m], in_sd, {(0, 0): Fraction(beta, 4)})
    # b <- update(b) from b = 1: the update's b-slope at 1 is 0 when s = d = 0,
    # so each pass fixes one more order of the limit
    b: dict = {(0, 0): 1}
    for _ in range(2):
        value, power = {}, {(0, 0): 1}
        for a in update:
            _add_product(value, a, power)
            power = _add_product({}, power, b)
        b = value
    # each b^m coefficient sums its pure-s terms, then its pure-d ones, then the mixed
    order = lambda key: (0 if key[1] == 0 else 1 if key[0] == 0 else 2, sum(key))
    terms = tuple(tuple((float(a[key]), *key) for key in sorted(a, key=order) if a[key])
                  for a in update)
    return terms, tuple(float(b.get(key, 0)) for key in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))


def _second_order_limit(label: str, s: float, d: float) -> float:
    """The model's bias limit to second order in (s, d), as 1 + a_s s + ... + a_dd d^2."""
    a_s, a_d, a_ss, a_sd, a_dd = _second_order_forms(label in (SYM_DURING, ASYM_DURING))[1]
    return 1.0 + a_s * s + a_d * d + a_ss * s * s + a_sd * s * d + a_dd * d * d


# ------------------------------------------------------------- symmetric, after


def _sym_after_map(eps: float) -> Callable[[float], float]:
    scale = 1.0 - 2.0 * _check_rate(eps)
    return lambda b: ((1.5 * b - 0.5 * b * b * b) * scale if -1.0 <= b <= 1.0
                      else _reject_bias(b, "-1.0, 1.0"))


def newbias_sym_after(b: float, eps: float) -> float:
    """Majority step followed by one symmetric flip: ((3b - b^3)/2)(1 - 2 eps)."""
    return _sym_after_map(eps)(b)


def threshold_sym_after() -> float:
    """Rate above which the step cannot increase any positive bias: exactly 1/6."""
    return 1.0 / 6.0


def blim_sym_after(eps: float) -> float:
    """Attracting fixed point sqrt((1 - 6 eps)/(1 - 2 eps)); 0 above threshold."""
    _check_rate(eps)
    if eps >= 1.0 / 6.0:
        return 0.0
    return math.sqrt((1.0 - 6.0 * eps) / (1.0 - 2.0 * eps))


# ------------------------------------------------------------ symmetric, during


def _sym_during_map(eps: float) -> Callable[[float], float]:
    _check_rate(eps)
    c, k = (1.0 - 2.0 * eps) ** 3, 3.0 - 6.0 * eps + 4.0 * eps * eps
    return lambda b: (0.5 * b * c * (k - b * b * c) if -1.0 <= b <= 1.0
                      else _reject_bias(b, "-1, 1"))


def newbias_sym_during(b: float, eps: float) -> float:
    """Exact bias out of the majority circuit with a flip chance at each of
    the 7 relevant sites: (b/2)(1-2e)^3 (3 - 6e + 4e^2 - b^2 (1-2e)^3)."""
    return _sym_during_map(eps)(b)


@lru_cache(maxsize=1)
def threshold_sym_during() -> float:
    """Unique root in (0, 1/2) of newbias_sym_during's gain at b -> 0, by bisection."""
    gain = lambda eps: -2.0 + (1.0 - 2.0 * eps) ** 3 * (3.0 - 6.0 * eps + 4.0 * eps * eps)
    return bisect_root(gain, 0.0, 0.49, tol=1e-12)


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


# ------------------------------------------------------------ asymmetric, after


def _asym_after_map(rates: ErrorRates) -> Callable[[float], float]:
    scale, d = 1.0 - rates.s, rates.d
    return lambda b: ((1.5 * b - 0.5 * b * b * b) * scale + d if -1.0 <= b <= 1.0
                      else _reject_bias(b, "-1.0, 1.0"))


def newbias_asym_after(b: float, rates: ErrorRates) -> float:
    """Majority step followed by one debias step: ((3b - b^3)/2)(1 - s) + d."""
    return _asym_after_map(rates)(b)


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
    gain = lambda b: b**3 * (s - 1.0) + b * (1.0 - 3.0 * s) + 2.0 * d
    return bisect_root(gain, 1e-9 if d == 0.0 else 0.0, 1.0 + 1e-9)


# ----------------------------------------------------------- asymmetric, during


def _asym_during_map(rates: ErrorRates) -> Callable[[float], float]:
    c0, c1, c2, c3 = [c(rates) for c in _weight_polynomials(True)]
    def update(b: float) -> float:
        if not (-1.0 <= b <= 1.0):
            _reject_bias(b, "-1, 1")
        p = (1.0 + b) / 2.0
        q = 1.0 - p
        return 2.0 * (c0 * p**3 + c1 * p * p * q + c2 * p * q * q + c3 * q**3) - 1.0
    return update


def newbias_asym_during(b: float, rates: ErrorRates, mode: str = "exact") -> float:
    """Bias out of the majority circuit with a debias chance at each site.

    exact: the exact cubic 2 * sum_k c_k p^(3-k) (1-p)^k - 1 with
    p = (1 + b)/2, where c_k sums the circuit's transfer table over the
    input states with k ones. The c_k are exact polynomials in the rates,
    derived once per process; each call evaluates them at `rates`.
    second_order: the exact update expanded to second order in s and d,
    from the same c_k, in exact rationals once per process.
    """
    if mode == "exact":
        return _asym_during_map(rates)(b)
    if mode == "second_order":
        if not (-1.0 <= b <= 1.0):
            _reject_bias(b, "-1, 1")
        s, d = rates.s, rates.d
        a0, a1, a2, a3 = (sum(c * s**i * d**j for c, i, j in terms)
                          for terms in _second_order_forms(True)[0])
        return a0 + a1 * b + a2 * b * b + a3 * b**3
    raise ValueError(f"mode must be 'exact' or 'second_order', got {mode!r}")


# ------------------------------------------------------------------ thresholds

# The one threshold table: each model's error-rate threshold as a value and
# as printed text. The asymmetric models have none.
THRESHOLDS: dict[str, tuple[Optional[float], str]] = {
    SYM_AFTER: (threshold_sym_after(), "1/6"),
    SYM_DURING: (threshold_sym_during(), f"{threshold_sym_during():.6f}"),
    ASYM_AFTER: (None, "N/A"),
    ASYM_DURING: (None, "N/A"),
}


# --------------------------------------------------------------- generic layer


@dataclass(frozen=True)
class BiasUpdateModel:
    """A noise model as a bare bias-update map plus its parameters."""

    label: str
    rates: ErrorRates
    update: Callable[[float], float]


def make_model(label: str, rates: ErrorRates) -> BiasUpdateModel:
    """Bind a model label to its exact update map, pre-bound to the rates.

    Symmetric labels require a symmetric channel (d = 0). The rates are checked and
    the constants (asym-during: the c_k) computed here, once; the map gives newbias_*'s bits.
    """
    if label not in MODEL_LABELS:
        raise ValueError(f"unknown model {label!r}; expected one of {MODEL_LABELS}")
    if label in (SYM_AFTER, SYM_DURING):
        if rates.d != 0.0:
            raise ValueError(f"{label} requires a symmetric channel (eps0 == eps1)")
        update = (_sym_after_map if label == SYM_AFTER else _sym_during_map)(rates.eps0)
    else:
        update = (_asym_after_map if label == ASYM_AFTER else _asym_during_map)(rates)
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
    """Threshold and bias-limit summary for one model at given rates.

    b_lim_second_order, b_lim's small-rate expansion, can leave [0, 1]
    (-0.42 at sym-during, eps = 0.1, where b_lim is 0); `warnings` then
    says so, and the record carries them only when there are any.
    """

    model: str
    rates: ErrorRates
    threshold: Optional[float]
    b_lim: float
    b_lim_second_order: float
    gap: float
    above_threshold: bool
    warnings: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        record = {
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
        if self.warnings:
            record["warnings"] = list(self.warnings)
        return record


def limit_report(model: BiasUpdateModel | str, rates: ErrorRates | None = None) -> LimitReport:
    """Bias limit for a model, from generic bisection on its update map."""
    if isinstance(model, str):
        if rates is None:
            raise ValueError("rates required when model is given as a label")
        model = make_model(model, rates)
    threshold, _ = THRESHOLDS[model.label]
    b_lim = attracting_limit(model.update)
    second = _second_order_limit(model.label, model.rates.s, model.rates.d)
    above = b_lim == 0.0
    warnings = () if 0.0 <= second <= 1.0 else (
        f"b_lim_second_order {second!r} is outside [0, 1]: "
        "the small-rate expansion does not apply at these rates",)
    return LimitReport(
        model=model.label,
        rates=model.rates,
        threshold=threshold,
        b_lim=b_lim,
        b_lim_second_order=second,
        gap=abs(b_lim - second),
        above_threshold=above,
        warnings=warnings,
    )


def summary_table(eps: float, s: float, b_i: float) -> list[dict]:
    """The four-model summary: thresholds and second-order bias limits.

    Symmetric rows are evaluated at the flip rate eps; asymmetric rows at
    relaxation speed s with bath bias b_i (d = s * b_i, a channel's rates).
    """
    _check_rate(eps)
    if not (0.0 <= b_i <= 1.0):
        raise ValueError("bath bias must be in [0, 1]")
    ErrorRates.from_sd(s, s * b_i)
    rates = {SYM_AFTER: (2.0 * eps, 0.0), SYM_DURING: (2.0 * eps, 0.0),
             ASYM_AFTER: (s, s * b_i), ASYM_DURING: (s, s * b_i)}
    return [{"model": label, "threshold": value, "threshold_text": text,
             "b_lim_second_order": _second_order_limit(label, *rates[label])}
            for label, (value, text) in THRESHOLDS.items()]
