"""Executable cooling schedules with resource accounting.

Three schedules are provided:

  * simple_recursive: partition into triples, majority-compress, discard
    the heated bits, recurse on the survivors.
  * heatbath_recursive: same, but heated bits are re-polarized at the
    bath and re-partitioned until each level is exhausted: a level of m
    bits takes m - 2 steps and leaves two leftovers, so k levels take k^2
    steps and 2k^2 bath contacts.
  * fibonacci_algorithm: grow a register one bit at a time, driving each
    new bit to the steady state of repeated compression against its two
    predecessors.

run_with_noise re-runs the simple and Fibonacci schedules with a noise model's
update, pre-bound to its rates, in place of the clean majority step.

All of them run through two loops. _climb steps a bias level by level
toward the target (simple_recursive, heatbath_recursive and the noisy
simple run). _grow adds one bit at a time at the closed-form steady state
against the last two, counting the _settle loop that drives each fresh
bit there (the exact and the noisy Fibonacci runs). Every run spends at
most _STEP_BUDGET updates. One stream, _linear_regime, gives the linear
regime b_i * F(j) to fibonacci_bound_check and the approx Fibonacci run.

Every run returns a CoolingResult carrying the achieved bias, a cost
ledger, algorithm-specific stats, and an optional per-step trace that
exports as JSON lines. A trace keeps only the bias after each step and the
counts its ledgers need; each entry and its ledger are built when read.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import limits
# debias_step is bound here, unused, so the benchmark's traced run can wrap it
from .bias import ErrorRates, debias_step, three_bc_bias, three_bc_bias_unequal  # noqa: F401
from .jsonio import dumps as json_dumps

__all__ = [
    "CostLedger", "CoolingResult", "RegisterBiases", "BoundCheck",
    "simple_recursive", "heatbath_recursive", "fibonacci_algorithm",
    "three_bc_hb", "fibonacci_bound_check", "random_hb_trace_check",
    "run_with_noise", "trace_to_jsonl",
]

_BOUND_TOL = 1e-12
_STEP_BUDGET = 1_000_000  # updates one climb or one register growth may spend


@dataclass
class CostLedger:
    bits_consumed: int = 0
    three_bc_ops: int = 0
    heat_bath_contacts: int = 0
    recursion_depth: int = 0

    def as_dict(self) -> dict:
        return {
            "bits_consumed": self.bits_consumed,
            "three_bc_ops": self.three_bc_ops,
            "heat_bath_contacts": self.heat_bath_contacts,
            "recursion_depth": self.recursion_depth,
        }


@dataclass
class CoolingResult:
    final_bias: float
    ledger: CostLedger
    stats: dict
    trace: Optional[Sequence[dict]] = None  # a read-only sequence of entry dicts


def _check_targets(b_i: float, b_t: float) -> None:
    if not (0.0 < b_i < 1.0):
        raise ValueError(f"initial bias must be in (0, 1), got {b_i!r}")
    if not (b_i < b_t < 1.0):
        raise ValueError(f"target bias must be in (b_i, 1), got {b_t!r}")


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:  # also rejects NaN
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _flat_gain_depth(b_i: float, b_t: float) -> float:
    """k = log_{3/2}(b_t / b_i); the logs are subtracted only where the ratio overflows."""
    ratio = b_t / b_i
    return (math.log(ratio) if ratio < math.inf else math.log(b_t) - math.log(b_i)) / math.log(1.5)


def _levels_ledger(k: int) -> CostLedger:
    # a depth-k ternary tree takes 3^k bits and applies (3^k - 1) / 2 majority steps
    bits = 3**k
    return CostLedger(bits_consumed=bits, three_bc_ops=(bits - 1) // 2, recursion_depth=k)


def _level_step(i: int, _: None) -> tuple:
    return i + 1, None, _levels_ledger(i + 1)


def _heatbath_step(i: int, k: int) -> tuple:
    # level l's m = 2(k - l) + 3 bits take m - 2 steps, so j of k levels take j(2k - j)
    j = i + 1
    return j, None, CostLedger(2 * k + 1, j * (2 * k - j), 2 * j * (2 * k - j), k)


def _grown_step(i: int, spent: list[int]) -> tuple:
    j = i + 3  # bit j joins against bits j - 2 and j - 1
    return j, [j - 2, j - 1, j], CostLedger(j, spent[i], 2 * spent[i], j)


@dataclass(frozen=True)
class _Trace(Sequence):
    """The bias after each step; step_at(i, data) gives step i's number, positions and ledger."""

    op: str
    biases: list[float]
    step_at: Callable[[int, object], tuple]  # a module-level function, so results pickle
    data: object = None

    def __len__(self) -> int:
        return len(self.biases)

    def __getitem__(self, i: int) -> dict:
        bias = self.biases[i]  # raises IndexError past either end
        step, positions, ledger = self.step_at(i % len(self.biases), self.data)
        return {"step": step, "op": self.op, "positions": positions,
                "biases_after": [bias], "ledger": ledger.as_dict()}


def _climb(update: Callable[[float], float], b: float, b_t: float,
           tol: float = 0.0) -> tuple[float, list[float]]:
    """Iterate b <- update(b) until b reaches b_t; returns (final bias, levels).

    levels holds the bias after each step. The climb stalls, without
    counting the step, once a step gains at most tol * b; it then ends at
    the better of the two biases. At most _STEP_BUDGET steps are taken.
    """
    levels: list[float] = []
    while b < b_t and len(levels) < _STEP_BUDGET:
        nb = update(b)
        if nb - b <= tol * b:
            return max(b, nb), levels
        b = nb
        levels.append(b)
    return b, levels


def _settle(step: Callable[[float], float], x: float, tol: float, budget: int) -> int:
    """Iterate x <- step(x) until a move is shorter than tol, or no shorter
    than the move before, or budget steps are spent; returns the steps taken.

    The pair step contracts by a factor below 1/2, so a move that fails to
    shrink is rounding; a strictly shrinking sequence of float moves is finite.
    """
    move = math.inf
    for steps in range(1, budget + 1):
        nx = step(x)
        nmove = abs(nx - x)
        if nmove < tol or nmove >= move:
            return steps
        x, move = nx, nmove
    return budget


def _pair_step(older: float, newer: float, scale: float, d: float) -> Callable[[float], float]:
    """x -> debias_step(three_bc_bias_unequal(older, newer, x)) with 1 - s = scale and
    drift d, in the same float operations, unchecked: both maps keep x in [-1, 1].
    Scale 1.0 and d 0.0 give three_bc_bias_unequal's bits, as x * 1.0 + 0.0 == x."""
    pair_sum, pair_prod = older + newer, older * newer
    return lambda x: (pair_sum + x - pair_prod * x) / 2.0 * scale + d


def simple_recursive(b_i: float, b_t: float, mode: str = "exact") -> CoolingResult:
    """Triple-and-discard recursion from bias b_i up to at least b_t.

    approx mode treats each level as a flat 3/2 gain, giving a real-valued
    depth k = log_{3/2}(b_t / b_i) and 3**k starting bits (also reported
    rounded up). exact mode iterates the true majority update and counts
    whole levels.
    """
    _check_targets(b_i, b_t)
    if mode == "approx":
        k = _flat_gain_depth(b_i, b_t)
        try:
            bits = 3.0**k
        except OverflowError:
            raise ValueError(f"approx mode's 3**k starting bits pass the float maximum "
                             f"at k = {k!r} > 646") from None
        ledger = CostLedger(bits_consumed=math.ceil(bits), recursion_depth=math.ceil(k))
        stats = {"mode": mode, "k": k, "bits": bits, "bits_ceil": math.ceil(bits)}
        return CoolingResult(final_bias=b_t, ledger=ledger, stats=stats)
    if mode != "exact":
        raise ValueError(f"mode must be 'approx' or 'exact', got {mode!r}")
    b, levels = _climb(three_bc_bias, b_i, b_t)
    ledger = _levels_ledger(len(levels))
    bits = ledger.bits_consumed
    stats = {"mode": mode, "k": len(levels), "bits": bits, "bits_ceil": bits}
    return CoolingResult(final_bias=b, ledger=ledger, stats=stats,
                         trace=_Trace("majority-level", levels, _level_step))


def heatbath_recursive(b_i: float, b_t: float) -> CoolingResult:
    """Heat-bath recursion: re-polarize heated bits and re-partition per level.

    Each level turns m equal-bias bits into m - 2 bits at the next bias
    (two leftovers are discarded) in m - 2 steps: each compresses three pool
    bits into one and re-polarizes the other two, 2(m - 2) bath contacts in all,
    so k levels take k^2 steps. The headline bit count is the 2k figure with the
    flat-gain depth k = log_{3/2}(b_t / b_i); the exact-level ledger (with its
    working register of 2*k_exact + 1 bits) is reported alongside.
    """
    _check_targets(b_i, b_t)
    b, levels = _climb(three_bc_bias, b_i, b_t)
    k_exact = len(levels)
    m0 = 2 * k_exact + 1
    ledger = CostLedger(m0, k_exact**2, 2 * k_exact**2, k_exact)
    k_approx = _flat_gain_depth(b_i, b_t)
    stats = {
        "k": k_approx,
        "bits_2k": 2.0 * k_approx,
        "k_exact": k_exact,
        "bits_2k_exact": 2 * k_exact,
        "working_register": m0,
    }
    return CoolingResult(final_bias=b, ledger=ledger, stats=stats,
                         trace=_Trace("heatbath-level", levels, _heatbath_step, k_exact))


@dataclass
class RegisterBiases:
    """Position-indexed biases of a register fed by a bath at initial_bias."""

    biases: list[float]
    initial_bias: float

    def __post_init__(self) -> None:
        self.biases = [float(b) for b in self.biases]
        for b in self.biases + [self.initial_bias]:
            if not (0.0 <= b <= 1.0):
                raise ValueError(f"register biases must be in [0, 1], got {b!r}")

    def sorted_biases(self) -> list[float]:
        return sorted(self.biases)


def three_bc_hb(state: RegisterBiases, i: int, j: int, k: int) -> RegisterBiases:
    """Majority-compress three positions, then bath-reset the two losers.

    The position holding the largest of the three biases receives the
    compressed bias; the other two return to the bath bias. Positions
    must be distinct.
    """
    if len({i, j, k}) != 3:
        raise ValueError(f"positions must be distinct, got {(i, j, k)}")
    for pos in (i, j, k):
        if not (0 <= pos < len(state.biases)):
            raise ValueError(f"position {pos} out of range")
    ordered = sorted((i, j, k), key=lambda pos: (state.biases[pos], pos))
    b1, b2, b3 = (state.biases[pos] for pos in ordered)
    new_biases = list(state.biases)
    new_biases[ordered[2]] = three_bc_bias_unequal(b1, b2, b3)
    new_biases[ordered[0]] = state.initial_bias
    new_biases[ordered[1]] = state.initial_bias
    return RegisterBiases(new_biases, state.initial_bias)


@dataclass(frozen=True)
class BoundCheck:
    passed: bool
    witness_index: Optional[int] = None  # 1-based position in the sorted order
    witness_value: Optional[float] = None
    bound: Optional[float] = None


def _linear_regime(b_i: float) -> Iterator[float]:
    """b_i * F(j) for j = 1, 2, ..., each correctly rounded: it is one int / int
    true division, which Python rounds once."""
    num, den = b_i.as_integer_ratio()
    f_prev, f = 0, 1  # F(0), F(1)
    while True:
        yield num * f / den
        f_prev, f = f, f_prev + f


def fibonacci_bound_check(state: RegisterBiases) -> BoundCheck:
    """Check the sorted biases against b_i * F(j) position by position."""
    bounds = _linear_regime(state.initial_bias)
    for j, (value, bound) in enumerate(zip(state.sorted_biases(), bounds), start=1):
        if value > bound + _BOUND_TOL:
            return BoundCheck(False, witness_index=j, witness_value=value, bound=bound)
        if bound >= 1.0:  # no bias exceeds 1
            break
    return BoundCheck(True)


def random_hb_trace_check(trials: int = 10000, max_bits: int = 8, seed: int = 0,
                          max_ops: int = 20) -> dict:
    """Fuzz: random compress-and-reset traces never breach the Fibonacci bound.

    Each trial draws a register size (3..max_bits), a bath bias, and a
    random sequence of (three_bc_hb at random distinct positions, random
    permutation); the sorted-bias bound is checked after every operation.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if max_bits < 3:
        raise ValueError(f"max_bits must be at least 3, got {max_bits}")
    if max_ops < 1:
        raise ValueError(f"max_ops must be at least 1, got {max_ops}")
    rng = random.Random(seed)
    violations: list[dict] = []
    checks = 0
    for trial in range(trials):
        n = rng.randint(3, max_bits)
        b_i = rng.uniform(0.001, 0.5)
        state = RegisterBiases([b_i] * n, b_i)
        for _ in range(rng.randint(1, max_ops)):
            i, j, k = rng.sample(range(n), 3)
            state = three_bc_hb(state, i, j, k)
            rng.shuffle(state.biases)
            check = fibonacci_bound_check(state)
            checks += 1
            if not check.passed:
                violations.append({
                    "trial": trial,
                    "witness_index": check.witness_index,
                    "witness_value": check.witness_value,
                    "bound": check.bound,
                })
    return {"trials": trials, "checks": checks, "seed": seed,
            "violations": len(violations), "first_violations": violations[:5]}


def _grow(b_i: float, b_t: float, s: float, d: float, tol: float, stall: float,
          op: str) -> tuple[list[float], CostLedger, _Trace]:
    """Grow a register from two bits at b_i until its last bit reaches b_t.

    Each fresh bit settles from b_i against the last two bits, o and n, under
    the after-step update with 1 - s and d (its steps go to the ledger), and
    joins at the pair's steady state ((o + n)(1 - s) + 2d) / (1 + o n (1 - s) + s),
    steady_state_bias_noisy's float operations. Growth stops once a new bit
    gains at most stall * n, or once _STEP_BUDGET updates are spent.
    Returns (sequence, ledger, trace).
    """
    scale, two_d = 1.0 - s, 2.0 * d
    sequence, spent, steps = [b_i, b_i], [], 0  # spent: the steps taken once each bit joined
    while sequence[-1] < b_t and steps < _STEP_BUDGET:
        older, newer = sequence[-2], sequence[-1]
        steps += _settle(_pair_step(older, newer, scale, d), b_i, tol, _STEP_BUDGET - steps)
        x = ((older + newer) * scale + two_d) / (1.0 + older * newer * scale + s)
        if x - newer <= stall * newer:
            break
        sequence.append(x)
        spent.append(steps)
    n = len(sequence)
    trace = _Trace(op, sequence[2:], _grown_step, spent)
    return sequence, CostLedger(n, steps, 2 * steps, n), trace


def fibonacci_algorithm(b_i: float, b_t: float, mode: str = "exact",
                        tol: float = 1e-12) -> CoolingResult:
    """Smallest register size n whose last bit reaches b_t.

    approx mode uses the linear regime (bias of bit j grows like
    b_i * F(j)); exact mode builds the steady-state recurrence
    B_j = (B_{j-2} + B_{j-1}) / (1 + B_{j-2} B_{j-1}) with B_1 = B_2 = b_i,
    simulating each steady-state loop to tolerance tol for the ledger. It
    stops early only if rounding stalls the recurrence or the step budget
    runs out.
    """
    _check_targets(b_i, b_t)
    _check_tol(tol)
    if mode == "approx":
        stream = _linear_regime(b_i)
        sequence = [next(stream)]
        while sequence[-1] < b_t:
            sequence.append(next(stream))
        n = len(sequence)
        ledger = CostLedger(bits_consumed=n)
        stats = {"mode": mode, "n": n, "sequence": sequence}
        if sequence[-1] > 1.0:
            stats["warnings"] = [f"final_bias {sequence[-1]!r} is above 1: the linear "
                                 "regime's b_i * F(n) is not a bias here"]
        return CoolingResult(final_bias=sequence[-1], ledger=ledger, stats=stats)
    if mode != "exact":
        raise ValueError(f"mode must be 'approx' or 'exact', got {mode!r}")
    sequence, ledger, trace = _grow(b_i, b_t, 0.0, 0.0, tol, 0.0, "steady-state-majority")
    stats = {"mode": mode, "n": len(sequence), "sequence": sequence}
    return CoolingResult(final_bias=sequence[-1], ledger=ledger, stats=stats, trace=trace)


def run_with_noise(algorithm: str, b_i: float, b_t: float, rates: ErrorRates,
                   model: str = limits.ASYM_AFTER, tol: float = 1e-12) -> CoolingResult:
    """Re-run a schedule with every compression replaced by its noisy update.

    The run stops once a step gains at most tol times the best bias, the target
    is reached, or the step budget is spent; the achieved supremum never exceeds
    max(b_i, b_lim), since no step gains above the model's bias limit b_lim. The
    fibonacci schedule supports the after-step models only: each new bit joins at
    the steady state of the unequal-bias update ((b1+b2+b3 - b1 b2 b3)/2)(1-s) + d.
    """
    if not (0.0 < b_i <= b_t <= 1.0):
        raise ValueError("need 0 < b_i <= b_t <= 1")
    _check_tol(tol)
    update = limits.make_model(model, rates).update  # checks the label and rates for both
    if algorithm == "simple-recursive":
        b, levels = _climb(update, b_i, b_t, tol)
        stats = {"algorithm": algorithm, "model": model, "steps": len(levels),
                 "reached_target": b >= b_t}
        return CoolingResult(final_bias=b, ledger=_levels_ledger(len(levels)), stats=stats,
                             trace=_Trace("noisy-majority-level", levels, _level_step))
    if algorithm == "fibonacci":
        if model not in (limits.SYM_AFTER, limits.ASYM_AFTER):
            raise ValueError("fibonacci schedule supports the after-step models only")
        sequence, ledger, trace = _grow(b_i, b_t, rates.s, rates.d, tol, tol,
                                        "noisy-steady-state")
        stats = {"algorithm": algorithm, "model": model, "n": len(sequence),
                 "sequence": sequence, "reached_target": sequence[-1] >= b_t}
        return CoolingResult(final_bias=sequence[-1], ledger=ledger, stats=stats,
                             trace=trace)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def trace_to_jsonl(result: CoolingResult) -> str:
    """One JSON record per trace step, each ending in a newline; no steps give ""."""
    if result.trace is None:
        raise ValueError("result carries no trace")
    return "".join(json_dumps(entry) + "\n" for entry in result.trace)
