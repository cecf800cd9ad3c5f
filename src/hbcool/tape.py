"""Closed-loop ABC-chain emulator with a fixed three-cell tape head.

The chain has m triples (m odd) of cells in species order A, B, C,
repeating clockwise; cell index 3*t + s addresses species s in
{0: A, 1: B, 2: C} of triple t. One triple (the head) supports local
gates; everything else moves only through species-parallel swap layers:

    SWAP_AB   swaps every (A_t, B_t) pair
    SWAP_BC   swaps every (B_t, C_t) pair
    SWAP_AC   swaps every (C_t, A_{t+1}) pair (wraps around the loop)

Composing four layers gives a "shift" that keeps one species fixed and
moves the other two one triple in opposite directions. `execute` runs a
layer as a masked xor swap on an int of all cells (plus the wrap pair for
SWAP_AC) and a head gate by its op's table of xor masks. Pulse counts are
the number of primitives issued. All routing goes through one primitive,
the head transposition W + [head swap] + reversed W, which exchanges any
cell with a head cell; W keeps that head cell and carries the other cell
onto another head cell: at most one masked layer (SWAP_AB or SWAP_BC plus
the same head swap: two species trade places everywhere but the head),
then at most (m-1)/2 shifts fixing the head cell's species, the shorter
way round. That is at most 4m + 1 pulses per transposition. A cooling
step moves only its three operands, at most 24m + 9 pulses per step. A
permutation runs cycle by cycle through one head cell: a cycle of L cells
takes L - 1 transpositions if it passes through that cell and L + 1
otherwise, so at most 3m + floor(3m/2) transpositions, O(m^2) pulses."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .circuits import Gate, _parse_gate, _format_gate, majority_circuit_toffoli, swap

__all__ = [
    "SPECIES", "ChainLoop", "PrimitiveOp", "execute", "shift_ops",
    "permutation_ops", "compile_cooling_step",
    "pulse_program_to_text", "pulse_program_from_text",
]

SPECIES = ("A", "B", "C")
_LAYERS = ("SWAP_AB", "SWAP_BC", "SWAP_AC")
# species -> (masked layer that moves it off that species, species it lands on)
_MASKED = {0: ("SWAP_AB", 1), 1: ("SWAP_AB", 0), 2: ("SWAP_BC", 1)}
# fixed species -> (layer sequence, species moving counterclockwise, clockwise)
_SHIFTS = {
    "B": (("SWAP_AC", "SWAP_AB", "SWAP_BC", "SWAP_AB"), "A", "C"),
    "A": (("SWAP_BC", "SWAP_AC", "SWAP_AB", "SWAP_AC"), "C", "B"),
    "C": (("SWAP_AB", "SWAP_BC", "SWAP_AC", "SWAP_BC"), "B", "A"),
}


@dataclass(frozen=True)
class ChainLoop:
    """m ABC-triples in a ring, one bit per cell, head at a fixed triple."""

    m: int
    bits: tuple[int, ...]
    head: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(map(int, self.bits)))
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError(f"need an odd number of triples, got m={self.m}")
        if len(self.bits) != 3 * self.m:
            raise ValueError(f"need {3 * self.m} bits, got {len(self.bits)}")
        if not {0, 1}.issuperset(self.bits):
            raise ValueError("cell values must be bits")
        if not (0 <= self.head < self.m):
            raise ValueError(f"head triple {self.head} out of range")

    @property
    def n_cells(self) -> int:
        return 3 * self.m

    def head_cell(self, species: int) -> int:
        return 3 * self.head + species

    def with_bits(self, bits: Sequence[int]) -> "ChainLoop":
        return ChainLoop(self.m, tuple(bits), self.head)


@dataclass(frozen=True)
class PrimitiveOp:
    """One pulse: a swap layer, or a head gate with its xor mask `flips[x]` at head state x."""

    kind: str  # one of _LAYERS, or "HEAD"
    gate: Gate | None = None
    text: str = field(init=False, repr=False, compare=False)  # its pulse-program line
    flips: tuple[int, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind in _LAYERS:
            if self.gate is not None:
                raise ValueError("swap layers take no gate")
        elif self.kind == "HEAD":
            if self.gate is None:
                raise ValueError("HEAD op requires a gate")
            if self.gate.max_index > 2:
                raise ValueError("head gates act on local cells 0..2 only")
        else:
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        g = self.gate
        object.__setattr__(self, "text", f"HEAD {_format_gate(g)}" if g else self.kind)
        object.__setattr__(self, "flips", g and tuple(x ^ g.apply_to_state(x) for x in range(8)))


# Compiled programs share these ops; a head swap is keyed by its cells' sum.
_LAYER_OPS = {layer: PrimitiveOp(layer) for layer in _LAYERS}
_HEAD_SWAPS = {a + b: PrimitiveOp("HEAD", swap(a, b)) for a, b in ((0, 1), (0, 2), (1, 2))}
_MAJORITY_OPS = tuple(PrimitiveOp("HEAD", g) for g in majority_circuit_toffoli().gates)


def execute(loop: ChainLoop, ops: Iterable[PrimitiveOp]) -> ChainLoop:
    """Run a pulse program on one int holding every cell (bit i = cell i):
    a layer xor-swaps masked bit pairs, a HEAD op xors in its `flips` entry."""
    n, low = loop.n_cells, 3 * loop.head
    a_cells = ((1 << n) - 1) // 7
    masks = {"SWAP_AB": a_cells, "SWAP_BC": a_cells << 1, "SWAP_AC": a_cells >> 3 << 2}
    state = int("".join(map(str, reversed(loop.bits))), 2)
    for op in ops:
        if op.kind == "HEAD":
            state ^= op.flips[(state >> low) & 7] << low
            continue
        x = (state ^ (state >> 1)) & masks[op.kind]
        state ^= x | (x << 1)
        if op.kind == "SWAP_AC" and (state ^ (state >> n - 1)) & 1:  # wrap pair (n - 1, 0)
            state ^= 1 | 1 << n - 1
    return loop.with_bits([(state >> i) & 1 for i in range(n)])


def shift_ops(fixed_species: str) -> list[PrimitiveOp]:
    """The four-layer sequence that leaves one species' bits in place. With
    B fixed, A bits move one triple counterclockwise (toward lower triple
    index) and C bits one triple clockwise; _SHIFTS gives the other two."""
    if fixed_species not in _SHIFTS:
        raise ValueError(f"fixed species must be one of {SPECIES}, got {fixed_species!r}")
    layers, _, _ = _SHIFTS[fixed_species]
    return [_LAYER_OPS[layer] for layer in layers]


def _head_transposition_ops(m: int, head: int, cell: int, species: int) -> list[PrimitiveOp]:
    """Program exchanging the bit at `cell` with the head cell of `species`."""
    t, s = divmod(cell, 3)
    carry: list[PrimitiveOp] = []  # W: keeps the head cell, carries `cell` to the head
    if t != head:
        if s == species:
            layer, s = _MASKED[s]
            carry += [_LAYER_OPS[layer], _HEAD_SWAPS[s + species]]
        steps = (head - t) % m  # triples to move clockwise
        forward = (steps <= m // 2) == (SPECIES[s] == _SHIFTS[SPECIES[species]][2])
        carry += shift_ops(SPECIES[species])[::1 if forward else -1] * min(steps, m - steps)
    return carry + [_HEAD_SWAPS[s + species]] + carry[::-1]


def permutation_ops(m: int, head: int, perm: Sequence[int]) -> list[PrimitiveOp]:
    """Compile a destination map (bit at cell i moves to cell perm[i]) cycle
    by cycle, each through the head cell that gives the shortest program."""
    n = 3 * m
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a bijection on all cell indices")
    ops: list[PrimitiveOp] = []
    seen = [False] * n
    for start in range(n):
        cycle, cell = [], start
        while not seen[cell]:
            seen[cell] = True
            cycle.append(cell)
            cell = perm[cell]
        if len(cycle) > 1:
            ops += min((_cycle_ops(m, head, cycle, s) for s in range(3)), key=len)
    return ops


def _cycle_ops(m: int, head: int, cycle: list[int], species: int) -> list[PrimitiveOp]:
    """Rotate the bits of `cycle` one place along it by successive head
    transpositions with one head cell: L - 1 of them if that cell is on the
    cycle, else L + 1 (its own bit goes out first and comes back last)."""
    pivot = 3 * head + species
    if pivot in cycle:
        k = cycle.index(pivot)
        order = cycle[k + 1:] + cycle[:k]
    else:
        order = cycle + cycle[:1]
    return [op for cell in order for op in _head_transposition_ops(m, head, cell, species)]


def compile_cooling_step(loop: ChainLoop, positions: Sequence[int]) -> tuple[list[PrimitiveOp], int]:
    """Program computing the 3-bit majority of the named cells into the first.

    At most three head transpositions route the bits onto the head cells
    (A, B, C in argument order), the majority circuit's gates run there,
    and the routing is undone, so the majority lands back on positions[0]
    and every uninvolved bit is restored."""
    if len(positions) != 3 or len(set(positions)) != 3:
        raise ValueError(f"need exactly three distinct positions, got {list(positions)}")
    if not all(0 <= pos < loop.n_cells for pos in positions):
        raise ValueError(f"positions {list(positions)} out of range for {loop.n_cells} cells")
    where = list(positions)  # where[i]: current cell of operand i
    gather: list[PrimitiveOp] = []
    for i in range(3):
        target = loop.head_cell(i)
        if where[i] != target:
            gather += _head_transposition_ops(loop.m, loop.head, where[i], i)
            where = [{where[i]: target, target: where[i]}.get(c, c) for c in where]
    ops = [*gather, *_MAJORITY_OPS, *gather[::-1]]
    return ops, len(ops)


# --------------------------------------------------------------- pulse dumps


def pulse_program_to_text(ops: Iterable[PrimitiveOp]) -> str:
    """One primitive per line; head gates reuse the circuit gate syntax."""
    return "\n".join([op.text for op in ops]) + "\n"


def pulse_program_from_text(text: str) -> list[PrimitiveOp]:
    """Parse one primitive per line; a ValueError names its 1-based line."""
    ops: list[PrimitiveOp] = []
    for number, raw in enumerate(text.splitlines(), 1):
        try:
            op = _parse_line(raw)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from exc
        if op is not None:
            ops.append(op)
    return ops


# A program has fewer than ten distinct lines (three layers and a few head
# gates), so every copy of a line shares one frozen op; the bound keeps a
# long-running process that parses arbitrary files from growing without end.
_LINE_CACHE_SIZE = 1024


@lru_cache(maxsize=_LINE_CACHE_SIZE)
def _parse_line(raw: str) -> PrimitiveOp | None:
    """The op on one line, or None for a blank or comment-only line. A bad
    line raises on every call: lru_cache does not cache exceptions."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    tokens = line.split()
    if tokens[0] in _LAYERS:
        if len(tokens) != 1:
            raise ValueError(f"swap layer takes no arguments: {line!r}")
        return _LAYER_OPS[tokens[0]]
    if tokens[0] == "HEAD":
        if len(tokens) < 2:
            raise ValueError(f"HEAD line needs a gate: {line!r}")
        return PrimitiveOp("HEAD", _parse_gate(tokens[1:]))
    raise ValueError(f"unknown primitive {tokens[0]!r}")
