"""Classical reversible gates, circuits, and exact distribution propagation.

Gates act as permutations of basis states; every supported gate is an
involution. Circuits may carry noise sites, pairs (pos, bit) meaning "a
bit-flip may occur on `bit` after the first `pos` gates have been
applied" (pos ranges 0..len(gates)).

A register holds the entries `probs` of its 2^width basis states (bit 0
is the least significant bit of the index) and runs its own kernels:
`NarrowRegister` here, a list for at most 3 bits, and
`distribution.JointDistribution` on numpy. Both are a `_Register`;
`apply_gate` checks the width and calls the register's gate kernel.
This module imports no numpy.

Circuits serialize to a line-oriented text format, one gate per line:

    NOT 2
    CNOT 1 0:1
    TOFFOLI 0 1:1 2:1
    SWAP 0 1
    CSWAP 0 2 1:0
    NOISE 1 0

Targets are bare indices; controls are written bit:value. NOISE lines
list the noise sites as `NOISE pos bit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .bias import ErrorRates

__all__ = [
    "Gate", "Circuit",
    "not_gate", "cnot", "toffoli", "gtoffoli", "swap", "cswap",
    "apply_gate", "NarrowRegister", "NARROW_WIDTH",
    "majority_circuit_toffoli", "majority_circuit_cswap",
    "two_bc_circuit", "two_bc_sort_circuit",
    "circuit_to_text", "circuit_from_text",
]

MAX_WIDTH = 20  # widest register a circuit or a joint distribution may span

NOT = "NOT"
CNOT = "CNOT"
TOFFOLI = "TOFFOLI"
SWAP = "SWAP"
CSWAP = "CSWAP"

_ARITY = {NOT: (1, 0), CNOT: (1, 1), TOFFOLI: (1, 2), SWAP: (2, 0), CSWAP: (2, 1)}


@dataclass(frozen=True)
class Gate:
    """One reversible gate: a target set, plus controls as (bit, value) pairs."""

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_targets, n_controls = _ARITY[self.kind]
        if len(self.targets) != n_targets or len(self.controls) != n_controls:
            raise ValueError(f"{self.kind} takes {n_targets} target(s) and "
                             f"{n_controls} control(s)")
        indices = list(self.targets) + [bit for bit, _ in self.controls]
        if len(set(indices)) != len(indices):
            raise ValueError(f"gate indices must be distinct, got {indices}")
        if any(idx < 0 for idx in indices):
            raise ValueError("gate indices must be nonnegative")
        if any(val not in (0, 1) for _, val in self.controls):
            raise ValueError("control values must be 0 or 1")

    @property
    def max_index(self) -> int:
        return max(list(self.targets) + [bit for bit, _ in self.controls])

    def apply_to_state(self, x: int) -> int:
        """Image of basis state x (an integer, bit 0 = LSB) under this gate."""
        for bit, val in self.controls:
            if (x >> bit) & 1 != val:
                return x
        if len(self.targets) == 1:  # NOT, CNOT, TOFFOLI
            return x ^ (1 << self.targets[0])
        a, b = self.targets
        if (x >> a) & 1 != (x >> b) & 1:
            return x ^ ((1 << a) | (1 << b))
        return x


def not_gate(target: int) -> Gate:
    return Gate(NOT, (target,))


def cnot(control: int, target: int) -> Gate:
    return Gate(CNOT, (target,), ((control, 1),))


def toffoli(control1: int, control2: int, target: int) -> Gate:
    return Gate(TOFFOLI, (target,), ((control1, 1), (control2, 1)))


def gtoffoli(target: int, controls: Iterable[tuple[int, int]]) -> Gate:
    """Generalized Toffoli: NOT on target conditioned on a 2-control pattern."""
    return Gate(TOFFOLI, (target,), tuple(controls))


def swap(a: int, b: int) -> Gate:
    return Gate(SWAP, (a, b))


def cswap(a: int, b: int, control: int, value: int = 1) -> Gate:
    return Gate(CSWAP, (a, b), ((control, value),))


class _Register:
    """Shared by every register: the bit checks and `marginal_bias`, 2 P(bit = 0) - 1."""

    __slots__ = ("width", "probs")

    def _check(self, bit: int, value: int = 0) -> None:
        if not (0 <= bit < self.width):
            raise ValueError(f"bit index {bit} out of range for width {self.width}")
        if value not in (0, 1):
            raise ValueError(f"bit value must be 0 or 1, got {value!r}")

    def marginal_bias(self, bit: int) -> float:
        return 2.0 * self.prob_bit_is(bit, 0) - 1.0


def apply_gate(dist: _Register, gate: Gate) -> _Register:
    """Push a register through a gate by its own kernel; total probability is kept."""
    if gate.max_index >= dist.width:
        raise ValueError(f"gate touches bit {gate.max_index}, register width {dist.width}")
    return dist.apply_gate(gate)


NARROW_WIDTH = 3  # widest register `NarrowRegister` holds


class NarrowRegister(_Register):
    """A register of at most `NARROW_WIDTH` bits as a list of its 2^width
    basis-state probabilities, with `JointDistribution`'s kernels, bit for bit.

    The push is generic over the entry type: `limits` pushes exact
    polynomial weights through it. For float entries, each takes the float
    operations of the numpy kernels: product factors multiplied in bit
    order, a channel entry as partner·enter + own·stay, a gate as the
    permutation `Gate.apply_to_state`, postselection as a division. A
    marginal sums its half left to right from 0.0, which is how numpy adds
    fewer than 8 floats. A half of a 4-bit register holds 8, and numpy then
    sums with eight accumulators, hence the 3-bit limit.
    """

    __slots__ = ()

    def __init__(self, probs: list[float]):
        self.width = len(probs).bit_length() - 1
        self.probs = probs

    @classmethod
    def product(cls, zeros: Iterable[float]) -> "NarrowRegister":
        """Independent product state: bit i reads 0 with weight zeros[i]."""
        probs = [1.0]
        for p in zeros:
            probs = [x * p for x in probs] + [x * (1.0 - p) for x in probs]
        return cls(probs)

    def prob_bit_is(self, bit: int, value: int) -> float:
        self._check(bit, value)
        total = 0.0
        for x, p in enumerate(self.probs):
            if (x >> bit) & 1 == value:
                total += p
        return total

    def apply_gate(self, gate: Gate) -> "NarrowRegister":
        return NarrowRegister([self.probs[gate.apply_to_state(x)] for x in range(1 << self.width)])

    def apply_bitflip_channel(self, bit: int, rates: ErrorRates) -> "NarrowRegister":
        self._check(bit)
        stay, enter = (1.0 - rates.eps0, 1.0 - rates.eps1), (rates.eps1, rates.eps0)
        probs, run = self.probs, 1 << bit
        return NarrowRegister([probs[x ^ run] * enter[(x >> bit) & 1]
                               + p * stay[(x >> bit) & 1] for x, p in enumerate(probs)])

    def condition_on(self, bit: int, value: int) -> tuple["NarrowRegister", float]:
        p = self.prob_bit_is(bit, value)
        if p <= 0.0:
            raise ValueError(f"cannot condition on zero-probability event bit{bit}={value}")
        return NarrowRegister([q / p if (x >> bit) & 1 == value else 0.0
                               for x, q in enumerate(self.probs)]), p


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on a fixed-width register, with noise sites."""

    width: int
    gates: tuple[Gate, ...]
    noise_sites: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "noise_sites", tuple(self.noise_sites))
        if self.width < 1 or self.width > MAX_WIDTH:
            raise ValueError(f"circuit width must be in 1..{MAX_WIDTH}")
        for g in self.gates:
            if g.max_index >= self.width:
                raise ValueError(f"gate {g} exceeds width {self.width}")
        for pos, bit in self.noise_sites:
            if not (0 <= pos <= len(self.gates)):
                raise ValueError(f"noise position {pos} out of range")
            if not (0 <= bit < self.width):
                raise ValueError(f"noise bit {bit} out of range")

    def apply_to_state(self, x: int) -> int:
        for g in self.gates:
            x = g.apply_to_state(x)
        return x

    def run(self, dist: _Register) -> _Register:
        """Propagate a distribution through all gates (noise sites ignored)."""
        for g in self.gates:
            dist = apply_gate(dist, g)
        return dist

    def run_with_channels(self, dist: _Register, rates: ErrorRates) -> _Register:
        """Propagate with an independent bit-flip channel at every noise site."""
        by_pos: dict[int, list[int]] = {}
        for pos, bit in self.noise_sites:
            by_pos.setdefault(pos, []).append(bit)
        for pos in range(len(self.gates) + 1):
            if pos > 0:
                dist = apply_gate(dist, self.gates[pos - 1])
            for bit in by_pos.get(pos, ()):
                dist = dist.apply_bitflip_channel(bit, rates)
        return dist


def majority_circuit_toffoli() -> Circuit:
    """3-bit majority into bit 0 via two CNOTs and one Toffoli.

    Ships with the canonical 7 noise sites: after each of the three
    gates, flips on every bit whose later value can still reach bit 0
    (errors on bits 1 and 2 after the final Toffoli cannot).
    """
    gates = (cnot(0, 1), cnot(0, 2), toffoli(1, 2, 0))
    sites = ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0))
    return Circuit(3, gates, sites)


def majority_circuit_cswap() -> Circuit:
    """3-bit majority into bit 0 via CNOT plus a decomposed controlled swap.

    The swap of bits 0 and 1, controlled on bit 2 reading 0, is expanded
    into three generalized Toffolis. Implements a different basis-state
    permutation than majority_circuit_toffoli, with the same effect on
    the marginal of bit 0.
    """
    gates = (
        cnot(1, 2),
        gtoffoli(1, ((0, 1), (2, 0))),
        gtoffoli(0, ((1, 1), (2, 0))),
        gtoffoli(1, ((0, 1), (2, 0))),
    )
    return Circuit(3, gates)


def two_bc_circuit() -> Circuit:
    """The 2-bit compression core: CNOT with bit 0 as control, bit 1 as target.

    Acceptance is conditioning on bit 1 reading 0 afterwards.
    """
    return Circuit(2, (cnot(0, 1),))


def two_bc_sort_circuit() -> Circuit:
    """2-bit compression with the accept/reject sorting swap made explicit.

    CNOT(0 -> 1), then swap bits 0 and 2 when the target read 0. Bit 2
    acts as the "cold side" slot: conditioned on acceptance it holds the
    compressed control bit, and unconditionally it holds the majority of
    all three inputs.
    """
    return Circuit(3, (cnot(0, 1), cswap(0, 2, 1, 0)))


# ---------------------------------------------------------------------------
# text serialization


def _format_gate(g: Gate) -> str:
    parts = [g.kind] + [str(t) for t in g.targets]
    parts += [f"{bit}:{val}" for bit, val in g.controls]
    return " ".join(parts)


def circuit_to_text(circuit: Circuit) -> str:
    lines = [_format_gate(g) for g in circuit.gates]
    lines += [f"NOISE {pos} {bit}" for pos, bit in circuit.noise_sites]
    return "\n".join(lines) + "\n"


def _parse_gate(tokens: list[str]) -> Gate:
    kind = tokens[0].upper()
    if kind not in _ARITY:
        raise ValueError(f"unknown gate {kind!r}")
    n_targets, n_controls = _ARITY[kind]
    args = tokens[1:]
    if len(args) != n_targets + n_controls:
        raise ValueError(f"{kind} expects {n_targets + n_controls} operands, got {args}")
    targets = tuple(int(a) for a in args[:n_targets])
    controls = []
    for a in args[n_targets:]:
        if ":" not in a:
            raise ValueError(f"control must be bit:value, got {a!r}")
        bit, val = a.split(":", 1)
        controls.append((int(bit), int(val)))
    return Gate(kind, targets, tuple(controls))


def circuit_from_text(text: str) -> Circuit:
    """Parse the line format; width is the highest referenced index plus one.
    A ValueError from a bad line names its 1-based line number."""
    gates: list[Gate] = []
    sites: list[tuple[int, int, int]] = []  # (pos, bit, line number)
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0].upper() == "NOISE":
                if len(tokens) != 3:
                    raise ValueError(f"NOISE expects `pos bit`, got {line!r}")
                sites.append((int(tokens[1]), index := int(tokens[2]), number))
            else:
                gates.append(_parse_gate(tokens))
                index = gates[-1].max_index
            if not 0 <= index < MAX_WIDTH:
                raise ValueError(f"index {index} out of range 0..{MAX_WIDTH - 1}")
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from exc
    if not gates and not sites:
        raise ValueError("empty circuit description")
    for pos, _, number in sites:  # a position is bounded by the gate count of the whole text
        if not 0 <= pos <= len(gates):
            raise ValueError(f"line {number}: noise position {pos} out of range")
    width = 1 + max([g.max_index for g in gates] + [bit for _, bit, _ in sites])
    return Circuit(width, tuple(gates), tuple((pos, bit) for pos, bit, _ in sites))
