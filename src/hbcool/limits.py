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
Each threshold is computed once, in `THRESHOLDS`, which everything else reads.

The four models are two circuits, each at two rate slices. The during
models run the Toffoli majority circuit with its 7 noise sites, the
after models the same gates with one site on bit 0 after the last gate,
and the symmetric models are the s = 2 eps, d = 0 slice of the
asymmetric ones. Each circuit's update is a cubic in the input bias b,
derived by the register's own push, `Circuit.run_with_channels` on a
`NarrowRegister.product` of exact polynomial weights in (b, s, d). One cached
record per circuit, built from that push on first use, holds what every
model reads: the b^m coefficients a_0..a_3 re-expanded in t = 1 - s and
d as Horner rows, accurate up to s near 1, and, truncated to degree 2,
the second-order update and limit, exact in floats. Each update map is
pre-bound: `make_model` and the `newbias_*` functions evaluate the a_m
at the rates once, and the map checks only the bias. Importing this
module derives nothing and loads no numpy; no step needs rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn, Optional

from .bias import ErrorRates
from .circuits import Circuit, NarrowRegister, majority_circuit_toffoli
# bound here so the benchmark's traced run can wrap them as hbcool.limits.<name>
from .bias import three_bc_bias  # noqa: F401
from .noise import enumerate_noisy_output_bias  # noqa: F401

__all__ = [
    "SYM_AFTER", "SYM_DURING", "ASYM_AFTER", "ASYM_DURING", "MODEL_LABELS",
    "bisect_root",
    "newbias_sym_after", "blim_sym_after", "newbias_sym_during", "blim_sym_during",
    "newbias_asym_after", "blim_asym_after", "newbias_asym_during",
    "THRESHOLDS", "BiasUpdateModel", "make_model", "attracting_limit",
    "LimitReport", "limit_report", "summary_table",
]

SYM_AFTER = "sym-after"
SYM_DURING = "sym-during"
ASYM_AFTER = "asym-after"
ASYM_DURING = "asym-during"
MODEL_LABELS = (SYM_AFTER, SYM_DURING, ASYM_AFTER, ASYM_DURING)


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on [lo, hi] by bisection to a bracket under 1e-12, in at
    most 200 halvings; endpoints must bracket a sign change."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def _check_rate(eps: float) -> float:
    if not (0.0 <= eps < 0.5):
        raise ValueError(f"error rate must be in [0, 0.5), got {eps!r}")
    return float(eps)


def _reject_bias(b: float, bounds: str) -> NoReturn:
    raise ValueError(f"bias must be in [{bounds}], got {b!r}")


# ------------------------------------------------- the two circuits' updates


class _Poly(dict):
    """The sum of c b^m s^i d^j as {(m, i, j): c}, with no zero term. Every
    coefficient here is a dyadic of a few bits, so each float operation is exact."""

    __slots__ = ()

    def __add__(self, other) -> "_Poly":
        out = _Poly(self)
        for key, c in (other if isinstance(other, _Poly) else {(0, 0, 0): other}).items():
            if c := out.pop(key, 0.0) + c:
                out[key] = c
        return out

    def __mul__(self, other) -> "_Poly":
        if not isinstance(other, _Poly):
            return _Poly({key: c * other for key, c in self.items()} if other else {})
        out = _Poly()
        for (n, k, l), c in other.items():
            for (m, i, j), a in self.items():
                key = (m + n, i + k, j + l)
                if v := out.pop(key, 0.0) + a * c:
                    out[key] = v
        return out

    __radd__, __rmul__ = __add__, __mul__
    __sub__ = lambda self, other: self + other * -1.0
    __rsub__ = lambda self, other: self * -1.0 + other


def _update_form(circuit: Circuit) -> _Poly:
    """A 3-bit circuit's exact update of bit 0, as a _Poly in (b, s, d): the
    register's own push of _Poly weights, each bit reading 0 with weight
    (1 + b)/2, through the gates and sites at eps0, eps1 = (s -+ d)/2."""
    start = NarrowRegister.product([_Poly({(0, 0, 0): 0.5, (1, 0, 0): 0.5})] * circuit.width)
    s, d = _Poly({(0, 1, 0): 0.5}), _Poly({(0, 0, 1): 0.5})  # s/2 and d/2
    rates = SimpleNamespace(eps0=s - d, eps1=s + d)  # not ErrorRates, which takes floats
    return circuit.run_with_channels(start, rates).marginal_bias(0)


# during: the Toffoli majority with its 7 sites; after: its gates, one site on bit 0 at the end
_CIRCUITS = {True: majority_circuit_toffoli(),
             False: Circuit(3, majority_circuit_toffoli().gates, ((3, 0),))}
_Record = NamedTuple("_Record", [("rows", tuple), ("second_order", tuple), ("limit", tuple)])


@cache
def _derivation(during: bool) -> _Record:
    """A circuit's update as the models read it, from one push, on first use.

    rows: a_0..a_3 in t = 1 - s and d, as Horner rows: for each power of d,
    highest first, the coefficients of its polynomial in t, highest first.
    second_order: the update's terms of total degree at most 2 in (s, d), for
    each b^m as (coefficient, i, j) terms of s^i d^j in evaluation order.
    limit: the bias limit's coefficients of s, d, s^2, sd, d^2.
    """
    form = _update_form(_CIRCUITS[during])
    forms = [_Poly({(0, i, j): c for (n, i, j), c in form.items() if n == m}) for m in range(4)]
    rows = []
    for a in forms:
        in_td: dict = {}
        for (_, i, j), c in a.items():
            for k in range(i + 1):  # s^i = (1 - t)^i
                in_td[k, j] = in_td.get((k, j), 0.0) + (-1) ** k * math.comb(i, k) * c
        top: dict = {}  # the highest power of t at each power of d, written last
        for i, j in sorted(key for key, c in in_td.items() if c):
            top[j] = i
        rows.append(tuple(tuple(in_td.get((i, j), 0.0) for i in range(top.get(j, -1), -1, -1))
                          for j in range(max(top, default=0), -1, -1)))
    second = lambda p: _Poly({key: c for key, c in p.items() if key[1] + key[2] <= 2})
    update = [second(a) for a in forms]
    # b <- update(b) from b = 1, by Horner's rule in b: the update's b-slope at
    # 1 is 0 when s = d = 0, so each pass fixes one more order of the limit
    b = 1.0
    for _ in range(2):
        value = 0.0
        for a in reversed(update):
            value = second(value * b + a)
        b = value
    # each b^m coefficient sums its pure-s terms, then its pure-d ones, then the mixed
    order = lambda key: (0 if key[2] == 0 else 1 if key[1] == 0 else 2, sum(key))
    return _Record(
        tuple(rows),
        tuple(tuple((a[key], *key[1:]) for key in sorted(a, key=order)) for a in update),
        tuple(b.get(key, 0.0) for key in ((0, 1, 0), (0, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))))


def _circuit_map(during: bool, rates: ErrorRates) -> Callable[[float], float]:
    """A circuit's exact update, pre-bound to the rates.

    Each a_m is evaluated by Horner's rule in t = 1 - s, then in d; the map
    is ((a3 b + a2) b + a1) b + a0, after its bias check.
    """
    t, d = 1.0 - rates.s, rates.d
    coefficients = []
    for rows in _derivation(during).rows:
        a = 0.0
        for row in rows:
            p = 0.0
            for c in row:
                p = p * t + c
            a = a * d + p
        coefficients.append(a)
    a0, a1, a2, a3 = coefficients
    bounds = "-1, 1" if during else "-1.0, 1.0"
    return lambda b: (((a3 * b + a2) * b + a1) * b + a0 if -1.0 <= b <= 1.0
                      else _reject_bias(b, bounds))


def _second_order_limit(label: str, s: float, d: float) -> float:
    """The model's bias limit to second order in (s, d), as 1 + a_s s + ... + a_dd d^2."""
    a_s, a_d, a_ss, a_sd, a_dd = _derivation(label in (SYM_DURING, ASYM_DURING)).limit
    return 1.0 + a_s * s + a_d * d + a_ss * s * s + a_sd * s * d + a_dd * d * d


# ------------------------------------------------------------ the four models


def newbias_sym_after(b: float, eps: float) -> float:
    """Majority step followed by one symmetric flip: ((3b - b^3)/2)(1 - 2 eps)."""
    return _circuit_map(False, ErrorRates.symmetric(_check_rate(eps)))(b)


def blim_sym_after(eps: float) -> float:
    """Attracting fixed point sqrt((1 - 6 eps)/(1 - 2 eps)); 0 above threshold."""
    _check_rate(eps)
    if eps >= THRESHOLDS[SYM_AFTER][0]:
        return 0.0
    return math.sqrt((1.0 - 6.0 * eps) / (1.0 - 2.0 * eps))


def newbias_sym_during(b: float, eps: float) -> float:
    """Exact bias out of the majority circuit with a flip chance at each of
    the 7 relevant sites: (b/2)(1-2e)^3 (3 - 6e + 4e^2 - b^2 (1-2e)^3)."""
    return _circuit_map(True, ErrorRates.symmetric(_check_rate(eps)))(b)


def blim_sym_during(eps: float) -> float:
    """Closed-form attracting fixed point of the during-model update.

    sqrt(1 - 24e + 76e^2 - 120e^3 + 96e^4 - 32e^5) / (1 - 2e)^3; reported
    as 0 at or above the threshold.
    """
    _check_rate(eps)
    if eps >= THRESHOLDS[SYM_DURING][0]:
        return 0.0
    poly = (1.0 - 24.0 * eps + 76.0 * eps**2 - 120.0 * eps**3
            + 96.0 * eps**4 - 32.0 * eps**5)
    return math.sqrt(poly) / (1.0 - 2.0 * eps) ** 3


def newbias_asym_after(b: float, rates: ErrorRates) -> float:
    """Majority step followed by one debias step: ((3b - b^3)/2)(1 - s) + d."""
    return _circuit_map(False, rates)(b)


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


def newbias_asym_during(b: float, rates: ErrorRates, mode: str = "exact") -> float:
    """Bias out of the majority circuit with a debias chance at each site.

    exact: the circuit's exact cubic update, derived once per process.
    second_order: its terms of total degree at most 2 in s and d.
    """
    if mode == "exact":
        return _circuit_map(True, rates)(b)
    if mode == "second_order":
        if not (-1.0 <= b <= 1.0):
            _reject_bias(b, "-1, 1")
        s, d = rates.s, rates.d
        a0, a1, a2, a3 = (sum(c * s**i * d**j for c, i, j in terms)
                          for terms in _derivation(True).second_order)
        return a0 + a1 * b + a2 * b * b + a3 * b**3
    raise ValueError(f"mode must be 'exact' or 'second_order', got {mode!r}")


# ------------------------------------------------------------------ thresholds

# The one threshold table: each model's error-rate threshold as a value and as
# printed text. Above sym-after's, exactly 1/6, the step cannot increase any
# positive bias; sym-during's is the unique root in (0, 1/2) of
# newbias_sym_during's gain at b -> 0, by bisection. The asymmetric models have none.
THRESHOLDS: dict[str, tuple[Optional[float], str]] = {
    SYM_AFTER: (1.0 / 6.0, "1/6"),
    SYM_DURING: (_eps := bisect_root(
        lambda eps: -2.0 + (1.0 - 2.0 * eps) ** 3 * (3.0 - 6.0 * eps + 4.0 * eps * eps),
        0.0, 0.49), f"{_eps:.6f}"),
    ASYM_AFTER: (None, "N/A"),
    ASYM_DURING: (None, "N/A"),
}
del _eps


# --------------------------------------------------------------- generic layer


@dataclass(frozen=True)
class BiasUpdateModel:
    """A noise model as a bare bias-update map plus its parameters."""

    label: str
    rates: ErrorRates
    update: Callable[[float], float]


def make_model(label: str, rates: ErrorRates) -> BiasUpdateModel:
    """Bind a model label to its circuit's exact update map, pre-bound to the rates.

    Symmetric labels require a symmetric channel (d = 0). The map's cubic
    coefficients are evaluated here, once; the map gives newbias_*'s bits.
    For s in [0, 0.98), d = 0 or 0 < d < s, and s + d < 0.98, the map is
    within 8 ulps of the exact update at b = 0 and b in [1e-13, 1], and
    within 2^-50 absolute at b in [-1, 0), where the update has roots and
    no relative bound holds.
    """
    if label not in MODEL_LABELS:
        raise ValueError(f"unknown model {label!r}; expected one of {MODEL_LABELS}")
    if label in (SYM_AFTER, SYM_DURING) and rates.d != 0.0:
        raise ValueError(f"{label} requires a symmetric channel (eps0 == eps1)")
    return BiasUpdateModel(label, rates, _circuit_map(label in (SYM_DURING, ASYM_DURING), rates))


def attracting_limit(update: Callable[[float], float]) -> float:
    """Largest attracting fixed point of a monotone bias-update map on [0, 1].

    Bisection on update(b) - b over [1e-9, 1], or [0, 1] if the map
    improves b = 0. Returns 0.0 when the map does not improve even the
    probe bias 1e-9 (rates beyond threshold).
    """
    gain = lambda b: update(b) - b
    lo = 0.0 if gain(0.0) > 0.0 else 1e-9
    if gain(lo) <= 0.0:
        return 0.0
    if gain(1.0) >= 0.0:
        return 1.0
    return bisect_root(gain, lo, 1.0)


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


def limit_report(label: str, rates: ErrorRates) -> LimitReport:
    """Bias limit for a model, from generic bisection on its update map."""
    b_lim = attracting_limit(make_model(label, rates).update)
    threshold, _ = THRESHOLDS[label]
    second = _second_order_limit(label, rates.s, rates.d)
    above = b_lim == 0.0
    warnings = () if 0.0 <= second <= 1.0 else (
        f"b_lim_second_order {second!r} is outside [0, 1]: "
        "the small-rate expansion does not apply at these rates",)
    return LimitReport(
        model=label,
        rates=rates,
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
