"""Closed-loop ABC-chain emulator with a fixed three-cell tape head.

The chain has m triples (m odd) of cells in species order A, B, C,
repeating clockwise; cell index 3*t + s addresses species s in
{0: A, 1: B, 2: C} of triple t. One triple (the head) supports local
gates; everything else moves only through species-parallel swap layers:

    SWAP_AB   swaps every (A_t, B_t) pair
    SWAP_BC   swaps every (B_t, C_t) pair
    SWAP_AC   swaps every (C_t, A_{t+1}) pair (wraps around the loop)

Composing four layers gives a "shift" that keeps one species fixed and
moves the other two one triple in opposite directions; all routing is
built from these shifts plus head-local swaps. Pulse counts are the
number of primitives issued. A cooling step moves only its operands,
each by a transposition W + [head swap] + reversed W with its head cell,
where W keeps that cell and carries the operand onto another head cell:
at most one masked layer (SWAP_AB or SWAP_BC plus the same head swap:
two species trade places everywhere but the head), then at most (m-1)/2
shifts fixing the head cell's species, the shorter way round. That is at
most 4m + 1 pulses per transposition and 24m + 9 per step."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .circuits import Gate, _parse_gate, _format_gate, majority_circuit_toffoli, swap

__all__ = [
    "SPECIES", "ChainLoop", "PrimitiveOp",
    "parallel_swap_op", "head_gate_op", "apply_primitive", "execute",
    "shift_ops", "shift_sequence",
    "bring_pair_ops", "bring_pair_under_head",
    "swap_adjacent_ops", "swap_adjacent",
    "permutation_ops", "apply_permutation",
    "compile_cooling_step",
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
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError(f"need an odd number of triples, got m={self.m}")
        if len(self.bits) != 3 * self.m:
            raise ValueError(f"need {3 * self.m} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("cell values must be bits")
        if not (0 <= self.head < self.m):
            raise ValueError(f"head triple {self.head} out of range")

    @property
    def n_cells(self) -> int:
        return 3 * self.m

    def species_of(self, cell: int) -> str:
        return SPECIES[cell % 3]

    def triple_of(self, cell: int) -> int:
        return cell // 3

    def head_cell(self, species: int) -> int:
        return 3 * self.head + species

    def with_bits(self, bits: Sequence[int]) -> "ChainLoop":
        return ChainLoop(self.m, tuple(bits), self.head)


@dataclass(frozen=True)
class PrimitiveOp:
    """One pulse: a species-parallel swap layer, or a gate at the head."""

    kind: str  # one of _LAYERS, or "HEAD"
    gate: Gate | None = None

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


_LAYER_OPS = {layer: PrimitiveOp(layer) for layer in _LAYERS}


def parallel_swap_op(pair: str) -> PrimitiveOp:
    return PrimitiveOp(f"SWAP_{pair}")


def head_gate_op(gate: Gate) -> PrimitiveOp:
    return PrimitiveOp("HEAD", gate)


def apply_primitive(loop: ChainLoop, op: PrimitiveOp) -> ChainLoop:
    return execute(loop, [op])


def execute(loop: ChainLoop, ops: Iterable[PrimitiveOp]) -> ChainLoop:
    """Run a pulse program on one int holding every cell (bit i = cell i).

    A layer is a masked xor-swap of neighbouring bits; SWAP_AC runs it
    between a rotate by two cells and the rotate back.
    """
    n, low = loop.n_cells, 3 * loop.head
    full = (1 << n) - 1
    masks = {"SWAP_AB": full // 7, "SWAP_BC": full // 7 << 1, "SWAP_AC": full // 7}
    state = int("".join(map(str, reversed(loop.bits))), 2)
    for op in ops:
        if op.kind == "HEAD":
            local = (state >> low) & 7
            state ^= (local ^ op.gate.apply_to_state(local)) << low
            continue
        if op.kind == "SWAP_AC":  # cell i + 2 -> bit i
            state = (state >> 2) | ((state & 3) << (n - 2))
        x = (state ^ (state >> 1)) & masks[op.kind]
        state ^= x | (x << 1)
        if op.kind == "SWAP_AC":
            state = ((state << 2) & full) | (state >> (n - 2))
    return loop.with_bits([(state >> i) & 1 for i in range(n)])


def shift_ops(fixed_species: str) -> list[PrimitiveOp]:
    """The four-layer sequence that leaves one species' bits in place."""
    if fixed_species not in _SHIFTS:
        raise ValueError(f"fixed species must be one of {SPECIES}, got {fixed_species!r}")
    layers, _, _ = _SHIFTS[fixed_species]
    return [_LAYER_OPS[layer] for layer in layers]


def shift_sequence(loop: ChainLoop, fixed_species: str) -> ChainLoop:
    """Apply one shift: with B fixed, A bits move one triple counterclockwise
    (toward lower triple index) and C bits one triple clockwise; the other
    two choices permute the roles accordingly."""
    return execute(loop, shift_ops(fixed_species))


def bring_pair_ops(loop: ChainLoop, pos1: int, pos2: int) -> list[PrimitiveOp]:
    """Shift program landing two adjacent bits on their head cells.

    Each bit keeps its species under shifts, so the pair ends on the
    same-species cells of the head triple."""
    n = loop.n_cells
    if (pos2 - pos1) % n == 1:
        p, q = pos1, pos2
    elif (pos1 - pos2) % n == 1:
        p, q = pos2, pos1
    else:
        raise ValueError(f"cells {pos1} and {pos2} are not adjacent on the loop")
    h, m = loop.head, loop.m
    t, sp = divmod(p, 3)
    # (A_t, B_t): move A ccw to the head with B fixed, then B cw with A fixed;
    # (B_t, C_t) and (C_t, A_{t+1}) likewise with the species rotated
    first, second = {0: ("B", "A"), 1: ("C", "B"), 2: ("A", "C")}[sp]
    return shift_ops(first) * ((t - h) % m) + shift_ops(second) * ((h - t - (sp == 2)) % m)


def bring_pair_under_head(loop: ChainLoop, pos1: int, pos2: int) -> tuple[ChainLoop, int]:
    ops = bring_pair_ops(loop, pos1, pos2)
    return execute(loop, ops), len(ops)


def swap_adjacent_ops(loop: ChainLoop, pos: int) -> list[PrimitiveOp]:
    """Program for a single transposition of pos with its clockwise neighbor:
    shuttle the pair to the head, swap there, and replay the shuttle in
    reverse (every primitive is an involution, so that is its inverse)."""
    if not (0 <= pos < loop.n_cells):
        raise ValueError(f"cell {pos} out of range")
    q = (pos + 1) % loop.n_cells
    shuttle = bring_pair_ops(loop, pos, q)
    head_swap = head_gate_op(swap(pos % 3, q % 3))
    return shuttle + [head_swap] + shuttle[::-1]


def swap_adjacent(loop: ChainLoop, pos: int) -> tuple[ChainLoop, int]:
    ops = swap_adjacent_ops(loop, pos)
    return execute(loop, ops), len(ops)


def permutation_ops(m: int, head: int, perm: Sequence[int]) -> list[PrimitiveOp]:
    """Compile a destination map (bit at cell i moves to cell perm[i]) into
    adjacent transpositions, bubble-sort style, each realized at the head."""
    n = 3 * m
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a bijection on all cell indices")
    geometry = ChainLoop(m, (0,) * n, head)
    inverse = sorted(range(n), key=lambda src: perm[src])  # inverse[dst] = src
    current = list(range(n))  # current[cell] = original index of the bit there
    ops: list[PrimitiveOp] = []
    for cell in range(n):
        i = current.index(inverse[cell], cell)
        while i > cell:
            ops.extend(swap_adjacent_ops(geometry, i - 1))
            current[i - 1], current[i] = current[i], current[i - 1]
            i -= 1
    return ops


def apply_permutation(loop: ChainLoop, perm: Sequence[int]) -> tuple[ChainLoop, int]:
    ops = permutation_ops(loop.m, loop.head, perm)
    return execute(loop, ops), len(ops)


def _head_transposition_ops(m: int, head: int, cell: int, species: int) -> list[PrimitiveOp]:
    """Program exchanging the bit at `cell` with the head cell of `species`."""
    t, s = divmod(cell, 3)
    carry: list[PrimitiveOp] = []  # W: keeps the head cell, carries `cell` to the head
    if t != head:
        if s == species:
            layer, s = _MASKED[s]
            carry += [_LAYER_OPS[layer], head_gate_op(swap(*sorted((s, species))))]
        steps = (head - t) % m  # triples to move clockwise
        forward = (steps <= m // 2) == (SPECIES[s] == _SHIFTS[SPECIES[species]][2])
        carry += shift_ops(SPECIES[species])[::1 if forward else -1] * min(steps, m - steps)
    return carry + [head_gate_op(swap(*sorted((s, species))))] + carry[::-1]


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
    ops = gather + [head_gate_op(g) for g in majority_circuit_toffoli().gates] + gather[::-1]
    return ops, len(ops)


# --------------------------------------------------------------- pulse dumps


def pulse_program_to_text(ops: Iterable[PrimitiveOp]) -> str:
    """One primitive per line; head gates reuse the circuit gate syntax."""
    lines = [f"HEAD {_format_gate(op.gate)}" if op.kind == "HEAD" else op.kind for op in ops]
    return "\n".join(lines) + "\n"


def pulse_program_from_text(text: str) -> list[PrimitiveOp]:
    ops: list[PrimitiveOp] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in _LAYERS:
            if len(tokens) != 1:
                raise ValueError(f"swap layer takes no arguments: {line!r}")
            ops.append(_LAYER_OPS[tokens[0]])
        elif tokens[0] == "HEAD":
            if len(tokens) < 2:
                raise ValueError(f"HEAD line needs a gate: {line!r}")
            ops.append(head_gate_op(_parse_gate(tokens[1:])))
        else:
            raise ValueError(f"unknown primitive {tokens[0]!r}")
    return ops
