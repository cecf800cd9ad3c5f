"""ABC-chain tape emulator: shifts, routing, compiled cooling steps."""

import random
from itertools import permutations, product

import pytest

from hbcool import tape
from hbcool.circuits import (
    Gate, _format_gate, _parse_gate, cnot, cswap, majority_circuit_toffoli, not_gate, swap, toffoli,
)
from hbcool.tape import (
    SPECIES,
    ChainLoop,
    PrimitiveOp,
    compile_cooling_step,
    execute,
    permutation_ops,
    pulse_program_from_text,
    pulse_program_to_text,
    shift_ops,
)


def loop_with(m, assignment, head=0):
    bits = [0] * (3 * m)
    for cell, value in assignment.items():
        bits[cell] = value
    return ChainLoop(m, tuple(bits), head=head)


def species_bits(loop, species):
    return [loop.bits[3 * t + species] for t in range(loop.m)]


def majority(v):
    return 1 if sum(v) >= 2 else 0


def adjacent_swap_ops(m, pos, head=0):
    """Program for the transposition of cell pos with its clockwise neighbour."""
    n = 3 * m
    q = (pos + 1) % n
    return permutation_ops(m, head, [{pos: q, q: pos}.get(c, c) for c in range(n)])


def permuted(bits, perm):
    want = [0] * len(bits)
    for src, dst in enumerate(perm):
        want[dst] = bits[src]
    return want


def transposition_bound(m):
    return 4 * m + 1


def permute_bound(m):
    return (3 * m + 3 * m // 2) * transposition_bound(m)  # 7,990 at m = 21


class TestChainLoop:
    def test_even_triple_count_rejected(self):
        with pytest.raises(ValueError):
            ChainLoop(2, (0,) * 6)

    def test_bit_count_checked(self):
        with pytest.raises(ValueError):
            ChainLoop(3, (0,) * 8)

    def test_head_range(self):
        with pytest.raises(ValueError):
            ChainLoop(3, (0,) * 9, head=3)

    def test_species_layout(self):
        loop = ChainLoop(3, (0,) * 9, head=1)
        assert SPECIES == ("A", "B", "C")
        assert [loop.head_cell(s) for s in range(3)] == [3, 4, 5]

    @pytest.mark.parametrize("bad", [2, -1])
    def test_non_bits_rejected(self, bad):
        with pytest.raises(ValueError, match="^cell values must be bits$"):
            ChainLoop(1, (0, bad, 1))

    def test_bits_become_ints(self):
        bits = ChainLoop(1, ("1", False, True)).bits
        assert bits == (1, 0, 1) and all(type(b) is int for b in bits)


class TestShiftSequences:
    def test_fixed_b_moves_a_ccw_c_cw(self):
        # A bits (a0, a1, a2) read (a1, a2, a0) after one fixed-B shift
        loop = loop_with(3, {0: 1, 2: 1})  # a0 = 1, c0 = 1
        out = execute(loop, shift_ops("B"))
        # a0 moved to triple 2 (counterclockwise), c0 to triple 1 (clockwise)
        assert species_bits(out, 0) == [0, 0, 1]
        assert species_bits(out, 2) == [0, 1, 0]

    def test_fixed_b_leaves_b_bits(self):
        loop = loop_with(3, {1: 1, 4: 1})
        out = execute(loop, shift_ops("B"))
        assert species_bits(out, 1) == species_bits(loop, 1)

    @pytest.mark.parametrize("fixed, moved_ccw, moved_cw", [
        ("B", 0, 2), ("A", 2, 1), ("C", 1, 0)])
    def test_all_variants_exhaustively(self, fixed, moved_ccw, moved_cw):
        m = 3
        for bits in product((0, 1), repeat=9):
            loop = ChainLoop(m, bits)
            out = execute(loop, shift_ops(fixed))
            for t in range(m):
                val = bits[3 * t + moved_ccw]
                assert out.bits[3 * ((t - 1) % m) + moved_ccw] == val
                val = bits[3 * t + moved_cw]
                assert out.bits[3 * ((t + 1) % m) + moved_cw] == val
                fixed_idx = 3 - moved_ccw - moved_cw
                assert out.bits[3 * t + fixed_idx] == bits[3 * t + fixed_idx]

    @pytest.mark.parametrize("fixed", ["A", "B", "C"])
    @pytest.mark.parametrize("m", [3, 5])
    def test_order_is_m(self, fixed, m):
        rng = random.Random(11)
        bits = tuple(rng.randint(0, 1) for _ in range(3 * m))
        loop = ChainLoop(m, bits)
        cur = loop
        for _ in range(m):
            cur = execute(cur, shift_ops(fixed))
        assert cur.bits == loop.bits

    def test_each_shift_is_four_pulses(self):
        assert len(shift_ops("B")) == 4


class TestSwapAdjacent:
    def test_exact_transposition_all_assignments_m3(self):
        for pos in range(9):
            ops = adjacent_swap_ops(3, pos)
            q = (pos + 1) % 9
            for bits in product((0, 1), repeat=9):
                out = execute(ChainLoop(3, bits), ops)
                want = list(bits)
                want[pos], want[q] = want[q], want[pos]
                assert list(out.bits) == want

    @pytest.mark.parametrize("m", [5, 7])
    def test_exact_transposition_randomized(self, m):
        rng = random.Random(m)
        for _ in range(60):
            bits = tuple(rng.randint(0, 1) for _ in range(3 * m))
            pos, head = rng.randrange(3 * m), rng.randrange(m)
            out = execute(ChainLoop(m, bits, head), adjacent_swap_ops(m, pos, head))
            q = (pos + 1) % (3 * m)
            want = list(bits)
            want[pos], want[q] = want[q], want[pos]
            assert list(out.bits) == want

    def test_involution(self):
        loop = ChainLoop(3, (1, 0, 1, 1, 0, 0, 1, 1, 0))
        ops = adjacent_swap_ops(3, 4)
        assert execute(execute(loop, ops), ops).bits == loop.bits

    def test_pulse_count_recorded(self):
        # no head cell in the pair: three transpositions through a head cell
        assert 0 < len(adjacent_swap_ops(5, 7)) <= 3 * transposition_bound(5)


class TestApplyPermutation:
    def test_identity_costs_nothing(self):
        assert permutation_ops(3, 0, list(range(9))) == []

    def test_full_reversal(self):
        bits = (1, 0, 1, 0, 0, 1, 1, 1, 0)
        loop = ChainLoop(3, bits)
        perm = [8 - i for i in range(9)]
        out = execute(loop, permutation_ops(3, 0, perm))
        assert out.bits == bits[::-1]

    def test_random_permutations(self):
        m = 5
        rng = random.Random(0)
        for _ in range(100):
            bits = tuple(rng.randint(0, 1) for _ in range(3 * m))
            perm = list(range(3 * m))
            rng.shuffle(perm)
            out = execute(ChainLoop(m, bits), permutation_ops(m, 0, perm))
            assert list(out.bits) == permuted(bits, perm)

    def test_invalid_permutation(self):
        with pytest.raises(ValueError, match="bijection"):
            permutation_ops(3, 0, [0] * 9)

    @pytest.mark.parametrize("m, head", [(3, 7), (3, -1), (5, 9), (3, 4), (4, 0)])
    def test_rejects_a_chain_that_cannot_exist(self, m, head):
        # a program for no chain would run on the chain with head % m and move wrong bits
        with pytest.raises(ValueError) as loop_error:
            ChainLoop(m, (0,) * (3 * m), head=head)
        with pytest.raises(ValueError) as ops_error:
            permutation_ops(m, head, list(range(3 * m))[::-1])
        assert str(ops_error.value) == str(loop_error.value)


class TestPermutationOps:
    @pytest.mark.parametrize("perm", list(permutations(range(3))))
    def test_every_permutation_m1(self, perm):
        ops = permutation_ops(1, 0, perm)
        for bits in product((0, 1), repeat=3):
            assert list(execute(ChainLoop(1, bits), ops).bits) == permuted(bits, perm)
        assert len(ops) <= permute_bound(1)

    @pytest.mark.parametrize("m, trials", [(3, 40), (5, 30), (9, 10), (21, 3)])
    def test_one_hot_random(self, m, trials):
        n = 3 * m
        rng = random.Random(2000 + m)
        for _ in range(trials):
            perm = list(range(n))
            rng.shuffle(perm)
            head = rng.randrange(m)
            ops = permutation_ops(m, head, perm)
            for src in range(n):
                out = execute(loop_with(m, {src: 1}, head), ops)
                assert out.bits == loop_with(m, {perm[src]: 1}).bits, (m, head, perm, src)
            assert len(ops) <= permute_bound(m)

    @pytest.mark.parametrize("m", [1, 3, 5, 21])
    def test_adjacent_swap_bound_every_head(self, m):
        for head in range(m):
            for pos in range(3 * m):
                assert len(adjacent_swap_ops(m, pos, head)) <= 3 * transposition_bound(m)

    def test_swap_with_a_head_cell_is_one_transposition(self):
        m, head = 9, 4
        for species in range(3):
            pos = 3 * head + species
            assert len(adjacent_swap_ops(m, pos, head)) <= transposition_bound(m)

    @pytest.mark.parametrize("m", [3, 21])
    def test_reversal_within_bound(self, m):
        n = 3 * m
        perm = list(range(n))[::-1]
        ops = permutation_ops(m, 0, perm)
        assert len(ops) <= permute_bound(m)
        bits = tuple(random.Random(m).getrandbits(1) for _ in range(n))
        assert execute(ChainLoop(m, bits), ops).bits == bits[::-1]


class TestCompileCoolingStep:
    def test_head_triple_needs_no_shuttling(self):
        loop = ChainLoop(3, (0,) * 9)
        ops, pulses = compile_cooling_step(loop, (0, 1, 2))
        assert pulses == 3
        kinds = [op.kind for op in ops]
        assert kinds == ["HEAD"] * 3
        assert [op.gate.kind for op in ops] == ["CNOT", "CNOT", "TOFFOLI"]

    @pytest.mark.parametrize("positions", [(3, 4, 5), (8, 2, 6), (4, 0, 7)])
    def test_majority_lands_on_first_position(self, positions):
        m = 3
        others = sorted(set(range(9)) - set(positions))
        for values in product((0, 1), repeat=3):
            bits = [0] * 9
            for pos, val in zip(positions, values):
                bits[pos] = val
            bits[others[0]] = 1  # a bystander bit that must come back intact
            loop = ChainLoop(m, bits)
            ops, _ = compile_cooling_step(loop, positions)
            out = execute(loop, ops)
            assert out.bits[positions[0]] == majority(values)
            for cell in others:
                assert out.bits[cell] == bits[cell]

    def test_extracted_bits_match_gate_level_circuit(self):
        # all three routed bits end exactly as the majority circuit leaves them
        circuit = majority_circuit_toffoli()
        positions = (6, 1, 5)
        loop0 = ChainLoop(3, (0,) * 9)
        ops, _ = compile_cooling_step(loop0, positions)
        for values in product((0, 1), repeat=3):
            bits = [0] * 9
            for pos, val in zip(positions, values):
                bits[pos] = val
            out = execute(ChainLoop(3, bits), ops)
            x = values[0] | values[1] << 1 | values[2] << 2
            y = circuit.apply_to_state(x)
            got = tuple(out.bits[pos] for pos in positions)
            assert got == ((y >> 0) & 1, (y >> 1) & 1, (y >> 2) & 1)

    def test_pulse_count_affine_in_distance(self):
        # contiguous triple delta triples away from the head, m = 9
        counts = []
        loop = ChainLoop(9, (0,) * 27)
        for delta in range(1, 5):
            t = delta
            _, pulses = compile_cooling_step(loop, (3 * t, 3 * t + 1, 3 * t + 2))
            counts.append(pulses)
        increments = [b - a for a, b in zip(counts, counts[1:])]
        assert counts == sorted(counts)
        assert len(set(increments)) == 1  # pulses grow linearly with distance

    def test_duplicate_positions_rejected(self):
        loop = ChainLoop(3, (0,) * 9)
        with pytest.raises(ValueError):
            compile_cooling_step(loop, (1, 1, 2))


class TestPrimitives:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PrimitiveOp("SWAP_AD")

    def test_head_gate_needs_local_indices(self):
        with pytest.raises(ValueError):
            PrimitiveOp("HEAD", cnot(0, 4))

    def test_swap_layer_takes_no_gate(self):
        with pytest.raises(ValueError):
            PrimitiveOp("SWAP_AB", cnot(0, 1))


SHARED_HEAD_OPS = (*tape._HEAD_SWAPS.values(), *tape._MAJORITY_OPS)
HEAD_GATES = [cnot(0, 1), cnot(2, 0), toffoli(1, 2, 0), swap(0, 2), swap(1, 2), not_gate(1),
              cswap(0, 1, 2, 0)]


def per_gate_printer(ops):
    """Pulse-program text formatted gate by gate, without the ops' `text`."""
    lines = [f"HEAD {_format_gate(op.gate)}" if op.kind == "HEAD" else op.kind for op in ops]
    return "\n".join(lines) + "\n"


class TestSharedOps:
    @pytest.mark.parametrize("m", [1, 3, 5, 9])
    def test_programs_use_only_module_ops(self, m):
        rng = random.Random(300 + m)
        for head in range(m):
            loop = ChainLoop(m, (0,) * (3 * m), head=head)
            programs = [compile_cooling_step(loop, rng.sample(range(3 * m), 3))[0]
                        for _ in range(20)]
            programs.append(adjacent_swap_ops(m, rng.randrange(3 * m), head))
            for op in (op for ops in programs for op in ops):
                if op.kind == "HEAD":
                    assert any(op is shared for shared in SHARED_HEAD_OPS), op
                else:
                    assert op is tape._LAYER_OPS[op.kind]

    def test_compiling_builds_no_gate_or_op(self, monkeypatch):
        built = []

        def counting(post_init):
            def wrapped(self):
                built.append(self)
                post_init(self)
            return wrapped

        for cls in (Gate, PrimitiveOp):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__post_init__))
        assert PrimitiveOp("HEAD", cnot(0, 1)) and len(built) == 2  # the counter sees construction
        built.clear()
        compile_cooling_step(ChainLoop(9, (0,) * 27, head=4), (3, 25, 13))
        permutation_ops(5, 2, list(range(15))[::-1])
        assert built == []

    @pytest.mark.parametrize("gate", HEAD_GATES)
    def test_derived_fields(self, gate):
        op = PrimitiveOp("HEAD", gate)
        assert [x ^ op.flips[x] for x in range(8)] == [gate.apply_to_state(x) for x in range(8)]
        assert op.text == f"HEAD {_format_gate(gate)}"
        layer = PrimitiveOp("SWAP_BC")
        assert (layer.text, layer.flips) == ("SWAP_BC", None)

    def test_derived_fields_leave_equality_hash_and_repr_alone(self):
        gate = cnot(0, 1)
        op, twin = PrimitiveOp("HEAD", gate), PrimitiveOp("HEAD", gate)
        object.__setattr__(twin, "text", "HEAD NOT 0")
        object.__setattr__(twin, "flips", (1,) * 8)
        assert op == twin and hash(op) == hash(twin) and repr(op) == repr(twin)
        assert hash(op) == hash(("HEAD", gate))
        assert repr(op) == f"PrimitiveOp(kind='HEAD', gate={gate!r})"
        assert repr(PrimitiveOp("SWAP_AC")) == "PrimitiveOp(kind='SWAP_AC', gate=None)"
        assert op != PrimitiveOp("HEAD", cnot(1, 0))

    def test_text_matches_per_gate_printer(self):
        rng = random.Random(17)
        programs = [random_program(rng, length, HEAD_GATES) for length in (0, 1, 30, 300)]
        for m in (1, 3, 9, 21):
            loop = ChainLoop(m, (0,) * (3 * m), head=rng.randrange(m))
            programs.append(compile_cooling_step(loop, rng.sample(range(3 * m), 3))[0])
        for ops in programs:
            assert pulse_program_to_text(ops) == per_gate_printer(ops)


class TestPulsePrograms:
    def test_round_trip(self):
        rng = random.Random(5)
        for m, positions in ((3, (4, 7, 1)), (5, (6, 7, 8)), (9, (0, 13, 26)), (21, (62, 5, 30))):
            loop = ChainLoop(m, tuple(rng.randint(0, 1) for _ in range(3 * m)))
            ops, _ = compile_cooling_step(loop, positions)
            text = pulse_program_to_text(ops)
            parsed = pulse_program_from_text(text)
            assert parsed == ops
            # every copy of a line is one shared op
            assert len({id(op) for op in parsed}) == len(set(text.splitlines()))

    def test_repeated_line_parses_once(self, monkeypatch):
        calls = []

        def counting_parse_gate(tokens):
            calls.append(tokens)
            return _parse_gate(tokens)

        monkeypatch.setattr(tape, "_parse_gate", counting_parse_gate)
        tape._parse_line.cache_clear()
        ops = pulse_program_from_text("HEAD TOFFOLI 2 0:0 1:0\nSWAP_BC\n" * 50)
        assert len(ops) == 100
        assert calls == [["TOFFOLI", "2", "0:0", "1:0"]]

    def test_bad_line_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="^line 2: unknown primitive 'WIGGLE'$"):
                pulse_program_from_text("SWAP_AB\nWIGGLE\n")

    def test_whitespace_and_comments_do_not_change_the_op(self):
        variants = ["HEAD CNOT 1 0:1", "  HEAD   CNOT 1\t0:1  ", "HEAD CNOT 1 0:1 # route",
                    "\tHEAD CNOT 1 0:1#"]
        parsed = [pulse_program_from_text(line) for line in variants]
        assert all(ops == [PrimitiveOp("HEAD", cnot(0, 1))] for ops in parsed)
        assert pulse_program_from_text("# comment only\n\n   \nSWAP_AC # x") == [
            PrimitiveOp("SWAP_AC")]

    def test_replay_equivalence(self):
        rng = random.Random(2)
        bits = tuple(rng.randint(0, 1) for _ in range(15))
        loop = ChainLoop(5, bits)
        ops, _ = compile_cooling_step(loop, (9, 10, 11))
        replayed = execute(loop, pulse_program_from_text(pulse_program_to_text(ops)))
        direct = execute(loop, ops)
        assert replayed.bits == direct.bits

    def test_text_shape(self):
        ops = [PrimitiveOp("SWAP_AB"), PrimitiveOp("HEAD", cnot(0, 1))]
        text = pulse_program_to_text(ops)
        assert text == "SWAP_AB\nHEAD CNOT 1 0:1\n"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            pulse_program_from_text("WIGGLE")
        with pytest.raises(ValueError):
            pulse_program_from_text("SWAP_AB 3")
        with pytest.raises(ValueError):
            pulse_program_from_text("HEAD")
        with pytest.raises(ValueError, match="^line 3: head gates act on local cells 0..2 only$"):
            pulse_program_from_text("SWAP_AB\n# gate\nHEAD CNOT 3 0:1\n")


def reference_execute(loop, ops):
    """Cell-by-cell replay read straight off the layer definitions."""
    bits = list(loop.bits)
    n = len(bits)
    head = [3 * loop.head + s for s in range(3)]
    for op in ops:
        if op.kind == "HEAD":
            x = sum(bits[cell] << s for s, cell in enumerate(head))
            y = op.gate.apply_to_state(x)
            for s, cell in enumerate(head):
                bits[cell] = (y >> s) & 1
            continue
        first = {"SWAP_AB": 0, "SWAP_BC": 1, "SWAP_AC": 2}[op.kind]
        for t in range(loop.m):
            a, b = 3 * t + first, (3 * t + first + 1) % n
            bits[a], bits[b] = bits[b], bits[a]
    return bits


def random_program(rng, length, gates=HEAD_GATES[:5], layers=("SWAP_AB", "SWAP_BC", "SWAP_AC")):
    ops = []
    for _ in range(length):
        if rng.random() < 0.25:
            ops.append(PrimitiveOp("HEAD", rng.choice(gates)))
        else:
            ops.append(PrimitiveOp(rng.choice(layers)))
    return ops


class TestBitmaskExecute:
    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_matches_reference_on_random_programs(self, m):
        rng = random.Random(100 + m)
        for _ in range(40):
            bits = tuple(rng.getrandbits(1) for _ in range(3 * m))
            loop = ChainLoop(m, bits, head=rng.randrange(m))
            ops = random_program(rng, 30)
            assert list(execute(loop, ops).bits) == reference_execute(loop, ops)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_swap_ac_wraps_last_c_onto_first_a(self, m):
        n = 3 * m
        loop = loop_with(m, {n - 1: 1})
        out = execute(loop, [PrimitiveOp("SWAP_AC")])
        assert out.bits == loop_with(m, {0: 1}).bits
        assert list(out.bits) == reference_execute(loop, [PrimitiveOp("SWAP_AC")])

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_swap_ac_heavy_programs_at_every_head(self, m):
        rng = random.Random(200 + m)
        layers = ("SWAP_AC",) * 4 + ("SWAP_AB", "SWAP_BC")
        for head in range(m):
            for _ in range(10):
                loop = ChainLoop(m, tuple(rng.getrandbits(1) for _ in range(3 * m)), head=head)
                ops = random_program(rng, 40, HEAD_GATES, layers)
                assert list(execute(loop, ops).bits) == reference_execute(loop, ops)

    @pytest.mark.parametrize("bits", list(product((0, 1), repeat=3)))
    def test_swap_ac_at_one_triple_is_the_wrap_pair_alone(self, bits):
        out = execute(ChainLoop(1, bits), [PrimitiveOp("SWAP_AC")])
        assert out.bits == (bits[2], bits[1], bits[0])

    def test_head_gate_at_nonzero_head(self):
        loop = loop_with(5, {9: 1}, head=3)  # A cell of the head triple
        out = execute(loop, [PrimitiveOp("HEAD", cnot(0, 2))])
        assert out.bits == loop_with(5, {9: 1, 11: 1}).bits


def check_routed_step(m, head, positions, rng):
    bits = tuple(rng.getrandbits(1) for _ in range(3 * m))
    loop = ChainLoop(m, bits, head=head)
    ops, pulses = compile_cooling_step(loop, positions)
    p1, p2, p3 = positions
    want = list(bits)
    want[p1] = majority((bits[p1], bits[p2], bits[p3]))
    want[p2] = bits[p1] ^ bits[p2]
    want[p3] = bits[p1] ^ bits[p3]
    assert list(execute(loop, ops).bits) == want, (m, head, positions)
    assert pulses == len(ops) <= 24 * m + 9, (m, head, positions)


class TestRoutedCoolingStep:
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_every_triple_and_head(self, m):
        rng = random.Random(m)
        for head in range(m):
            for positions in permutations(range(3 * m), 3):
                check_routed_step(m, head, positions, rng)

    @pytest.mark.parametrize("m", [9, 21, 41])
    def test_random_triples(self, m):
        rng = random.Random(1000 + m)
        for _ in range(100):
            check_routed_step(m, rng.randrange(m), tuple(rng.sample(range(3 * m), 3)), rng)

    def test_operands_in_head_order_need_only_the_gates(self):
        ops, pulses = compile_cooling_step(ChainLoop(5, (0,) * 15, head=2), (6, 7, 8))
        assert pulses == 3
        assert [op.kind for op in ops] == ["HEAD"] * 3

    def test_phases_mirror_around_the_head_gates(self):
        ops, pulses = compile_cooling_step(ChainLoop(9, (0,) * 27, head=4), (3, 25, 13))
        routing = (pulses - 3) // 2
        assert ops[routing + 3:] == ops[:routing][::-1]
        assert [op.gate.kind for op in ops[routing:routing + 3]] == ["CNOT", "CNOT", "TOFFOLI"]

    @pytest.mark.parametrize("positions", [(1, 2), (1, 2, 3, 4)])
    def test_needs_exactly_three_positions(self, positions):
        with pytest.raises(ValueError, match="exactly three"):
            compile_cooling_step(ChainLoop(3, (0,) * 9), positions)

    def test_out_of_range_position_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            compile_cooling_step(ChainLoop(3, (0,) * 9), (0, 1, 9))
