"""The four benchmark workloads: seeded inputs, the timed op, and its oracle.

Every workload is a closed loop with one caller. Inputs come only from
the seed. Ops are issued in blocks of fixed composition, and the harness
stops only at block boundaries, so every run has the same mix of op
kinds. The inputs that set an op's cost are drawn from additive
low-discrepancy sequences with seeded offsets: any prefix covers their
range evenly, so a run's cost mix does not depend on the seed.

Each workload has:
    blocks()            endless iterator of op lists
    warmup()            the untimed first call that fills caches
    run(op)             the timed op; calls hbcool through module attributes
    traced(op, tracer)  the same op, recording spans
    check(op, out)      independent oracle; returns a list of problems
"""

from __future__ import annotations

import bisect
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from hbcool import cli, cooling, distribution, limits, tape
from hbcool.bias import ErrorRates, debias_step, prob_from_bias, three_bc_bias_unequal
from hbcool.circuits import Circuit, cnot, majority_circuit_toffoli, toffoli

import spans

ROOT = Path(__file__).resolve().parent.parent

_TOL = 1e-12
_FIXED_POINT_TOL = 1e-9


# Badly approximable step sizes: golden ratio, silver ratio, sqrt(3) - 1.
_STEPS = ((5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1, 3 ** 0.5 - 1)


class Kronecker:
    """Antithetic pairs of points frac(offset + i * step), seeded offsets.

    Each coordinate is an additive low-discrepancy sequence: any prefix of
    N points leaves no gap in [0, 1) much wider than 1/N, unlike N
    independent draws. Every second point is the reflection 1 - x of the
    one before, so a cost that is linear in a coordinate averages out
    within each pair.
    """

    def __init__(self, dims: int, rng: random.Random):
        self._steps = _STEPS[:dims]
        self._offsets = [rng.random() for _ in range(dims)]
        self._index = 0
        self._last: list[float] = []

    def next(self) -> list[float]:
        self._index += 1
        if self._index % 2 == 0:
            return [1.0 - x for x in self._last]
        i = self._index // 2 + 1
        self._last = [(o + i * a) % 1.0 for o, a in zip(self._offsets, self._steps)]
        return self._last


def _sum_cdf(n: int) -> list[int]:
    """Cumulative counts of p1 + p2 + p3 over ordered triples of distinct cells."""
    diff = [0] * (3 * n + 1)
    for a in range(n):
        for b in range(n):
            if a != b:
                diff[a + b] += 1
                diff[a + b + n] -= 1
                # c may not repeat a or b
                diff[2 * a + b] -= 1
                diff[2 * a + b + 1] += 1
                diff[a + 2 * b] -= 1
                diff[a + 2 * b + 1] += 1
    cdf, running, total = [], 0, 0
    for step in diff[:-1]:
        running += step
        total += running
        cdf.append(total)
    return cdf


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def warmup(self) -> None:
        self.run(self.warmup_op())

    def traced(self, op, tracer: spans.Tracer):
        with spans.patched(tracer):
            return tracer.call("bench.op", self.run, (op,), {})


# --------------------------------------------------------------- noisy-limits


@dataclass(frozen=True)
class LimitStudy:
    s: float
    d: float
    b_i: float

    @property
    def asym(self) -> ErrorRates:
        return ErrorRates.from_sd(self.s, self.d)

    @property
    def sym(self) -> ErrorRates:
        return ErrorRates.symmetric(self.s / 2.0)


class NoisyLimits(Workload):
    """Limit reports for all four models plus two noisy schedules per op."""

    name = "noisy-limits"

    def blocks(self):
        # s sets the schedule's step count, the main cost; b_i sets it too
        points = Kronecker(3, self.rng)
        while True:
            block = []
            for _ in range(8):
                us, ub, ud = points.next()
                s = 0.005 + 0.035 * us
                block.append(LimitStudy(s=s, d=s * 0.9 * ud, b_i=0.01 + 0.04 * ub))
            yield block

    def warmup_op(self):
        return LimitStudy(s=0.02, d=0.01, b_i=0.03)

    def run(self, op: LimitStudy):
        asym, sym = op.asym, op.sym
        reports = [limits.limit_report(label, sym if label.startswith("sym") else asym)
                   for label in limits.MODEL_LABELS]
        simple = cooling.run_with_noise("simple-recursive", op.b_i, 1.0, asym,
                                        model=limits.ASYM_DURING)
        fib = cooling.run_with_noise("fibonacci", op.b_i, 1.0, asym,
                                     model=limits.ASYM_AFTER)
        return reports, simple, fib

    def check(self, op: LimitStudy, out) -> list[str]:
        reports, simple, fib = out
        asym, eps = op.asym, op.s / 2.0
        by_model = {r.model: r for r in reports}
        if sorted(by_model) != sorted(limits.MODEL_LABELS):
            return [f"{op}: reports for {sorted(by_model)}"]
        problems = []
        for r in reports:
            update = limits.make_model(r.model, r.rates).update
            if not 0.0 < r.b_lim < 1.0:
                problems.append(f"{op}: {r.model} b_lim {r.b_lim} outside (0, 1)")
            elif abs(update(r.b_lim) - r.b_lim) > _FIXED_POINT_TOL:
                problems.append(f"{op}: {r.model} b_lim {r.b_lim} is not a fixed point")
        closed = {
            limits.SYM_AFTER: limits.blim_sym_after(eps),
            limits.SYM_DURING: limits.blim_sym_during(eps),
            limits.ASYM_AFTER: limits.blim_asym_after(asym),
        }
        for label, value in closed.items():
            if abs(by_model[label].b_lim - value) > _FIXED_POINT_TOL:
                problems.append(f"{op}: {label} b_lim {by_model[label].b_lim} != closed form {value}")
        b_lim = by_model[limits.ASYM_DURING].b_lim
        circuit = majority_circuit_toffoli()
        for b in (b_lim, op.b_i):
            exact = limits.newbias_asym_during(b, asym)
            channels = circuit.run_with_channels(
                distribution.product_distribution([b] * 3), asym).marginal_bias(0)
            if abs(exact - channels) > _TOL:
                problems.append(f"{op}: asym-during update at {b}: {exact} != channel path {channels}")
        if abs(simple.final_bias - b_lim) > _FIXED_POINT_TOL:
            problems.append(f"{op}: simple-recursive ends at {simple.final_bias}, limit {b_lim}")
        seq = fib.stats["sequence"]
        if (fib.final_bias > by_model[limits.ASYM_AFTER].b_lim + _TOL
                or any(b2 < b1 for b1, b2 in zip(seq, seq[1:]))):
            problems.append(f"{op}: fibonacci sequence {seq[-3:]} breaks the asym-after limit")
        return problems


# ------------------------------------------------------------------ tape-cool


@dataclass(frozen=True)
class CoolingStep:
    m: int
    bits: tuple[int, ...]
    positions: tuple[int, int, int]


class TapeCool(Workload):
    """Compile, execute and text round-trip one cooling step on the chain."""

    name = "tape-cool"
    # Per block of ten ops the m=9 group spans the 20th to 80th percentile
    # of latency: the median falls in its middle and the tail percentile in
    # the m=21 group, never on a boundary between sizes.
    BLOCK_SIZES = (3, 3, 9, 9, 9, 9, 9, 9, 21, 21)
    # Routing cost grows almost linearly with the sum of the three
    # positions. Drawing that sum from the middle fifth of its distribution
    # keeps each size's cost within about ten percent, so the median and
    # the tail do not move with the seed; the triples themselves still vary.
    SUM_QUANTILES = (0.4, 0.6)

    def blocks(self):
        sizes = sorted(set(self.BLOCK_SIZES))
        points = {m: Kronecker(1, self.rng) for m in sizes}
        cdfs = {m: _sum_cdf(3 * m) for m in sizes}
        while True:
            block = list(self.BLOCK_SIZES)
            self.rng.shuffle(block)
            yield [self._step(m, points[m].next()[0], cdfs[m]) for m in block]

    def _step(self, m: int, u: float, cdf: list[int]) -> CoolingStep:
        """Random distinct positions whose sum sits at quantile u of the band."""
        n = 3 * m
        lo, hi = self.SUM_QUANTILES
        target = bisect.bisect_left(cdf, (lo + (hi - lo) * u) * cdf[-1])
        while True:
            a, b = self.rng.randrange(n), self.rng.randrange(n)
            c = target - a - b
            if 0 <= c < n and len({a, b, c}) == 3:
                break
        bits = tuple(self.rng.getrandbits(1) for _ in range(n))
        return CoolingStep(m, bits, (a, b, c))

    def warmup_op(self):
        return CoolingStep(3, (1, 0, 1, 1, 0, 0, 1, 1, 0), (4, 7, 1))

    def run(self, op: CoolingStep):
        loop = tape.ChainLoop(op.m, op.bits)
        program, _ = tape.compile_cooling_step(loop, op.positions)
        out = tape.execute(loop, program)
        parsed = tape.pulse_program_from_text(tape.pulse_program_to_text(program))
        return program, out.bits, parsed

    def check(self, op: CoolingStep, out) -> list[str]:
        program, bits_out, parsed = out
        problems = []
        p1, p2, p3 = op.positions
        x0, x1, x2 = op.bits[p1], op.bits[p2], op.bits[p3]
        expected = list(op.bits)
        expected[p1] = (x0 & x1) | (x0 & x2) | (x1 & x2)
        expected[p2] = x0 ^ x1
        expected[p3] = x0 ^ x2
        if list(bits_out) != expected:
            problems.append(f"m={op.m} positions={op.positions}: wrong cells after the step")
        if parsed != program:
            problems.append(f"m={op.m} positions={op.positions}: text round-trip changed the program")
        return problems


# -------------------------------------------------------------- wide-register


@dataclass(frozen=True)
class RegisterPass:
    biases: tuple[float, ...]
    triples: tuple[tuple[int, int, int], ...]
    s: float
    d: float

    @property
    def rates(self) -> ErrorRates:
        return ErrorRates.from_sd(self.s, self.d)


class WideRegister(Workload):
    """Majority circuits with bit-flip channels on 16- and 20-bit registers."""

    name = "wide-register"
    WIDTHS = (16, 20)

    def blocks(self):
        while True:
            yield [tuple(self._pass(w, self.rng) for w in self.WIDTHS)]

    @staticmethod
    def _pass(width: int, rng: random.Random) -> RegisterPass:
        biases = tuple(rng.uniform(0.05, 0.95) for _ in range(width))
        cells = rng.sample(range(width), 6)
        s = rng.uniform(0.005, 0.04)
        return RegisterPass(biases, (tuple(cells[:3]), tuple(cells[3:])),
                            s, s * rng.uniform(0.0, 0.9))

    def warmup_op(self):
        rng = random.Random(0)
        return tuple(self._pass(w, rng) for w in self.WIDTHS)

    def run(self, op: tuple[RegisterPass, ...]):
        results = []
        for p in op:
            gates = []
            for a, b, c in p.triples:
                gates += [cnot(a, b), cnot(a, c), toffoli(b, c, a)]
            sites = [(len(gates), bit) for triple in p.triples for bit in triple]
            circuit = Circuit(len(p.biases), tuple(gates), tuple(sites))
            dist = circuit.run_with_channels(distribution.product_distribution(p.biases),
                                             p.rates)
            marginals = [dist.marginal_bias(i) for i in range(dist.width)]
            post, accept = dist.condition_on(p.triples[0][1], 0)
            results.append((dist, marginals, post, accept))
        return results

    def check(self, op: tuple[RegisterPass, ...], out) -> list[str]:
        problems = []
        for p, (dist, marginals, post, accept) in zip(op, out):
            width = len(p.biases)
            rates = p.rates
            expected = list(p.biases)
            for a, b, c in p.triples:
                ba, bb, bc = p.biases[a], p.biases[b], p.biases[c]
                expected[a] = debias_step(three_bc_bias_unequal(ba, bb, bc), rates)
                expected[b] = debias_step(ba * bb, rates)
                expected[c] = debias_step(ba * bc, rates)
            total = float(dist.probs.sum())
            if abs(total - 1.0) > _TOL:
                problems.append(f"width {width}: probabilities sum to {total}")
            worst = max(abs(x - y) for x, y in zip(marginals, expected))
            if len(marginals) != width or worst > _TOL:
                problems.append(f"width {width}: marginals off the closed forms by {worst}")
            flag = p.triples[0][1]
            if abs(accept - prob_from_bias(expected[flag])) > _TOL:
                problems.append(f"width {width}: P(bit {flag} = 0) = {accept}")
            post_total = float(post.probs.sum())
            if abs(post_total - 1.0) > _TOL or abs(post.marginal_bias(flag) - 1.0) > _TOL:
                problems.append(f"width {width}: postselected register is not normalized "
                                f"on bit {flag} = 0")
        return problems


# ---------------------------------------------------------------- cli-session


_CLI = "import sys; from hbcool.cli import main; sys.exit(main())"
# Same call; writes the import and main intervals (perf_counter, a clock
# shared by all processes on Linux) to stderr for the traced run.
_CLI_PROBE = ("import sys, time; t0 = time.perf_counter(); from hbcool.cli import main; "
              "t1 = time.perf_counter(); code = main(); t2 = time.perf_counter(); "
              "sys.stdout.flush(); sys.stderr.write(f'{t0!r} {t1!r} {t2!r}\\n'); "
              "sys.exit(code)")


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]


class CliSession(Workload):
    """One `hbcool` command per op, each in a fresh interpreter, one at a time."""

    name = "cli-session"
    KINDS = ("update", "thresholds", "table", "limits", "fibonacci", "heatbath",
             "simulate", "tape")

    def blocks(self):
        block_index = 0
        while True:
            kinds = list(self.KINDS)
            self.rng.shuffle(kinds)
            yield [CliCall(self._argv(kind, with_eps=block_index % 2 == 1)) for kind in kinds]
            block_index += 1

    def _argv(self, kind: str, with_eps: bool) -> tuple[str, ...]:
        u = self.rng.uniform
        eps, bias = f"{u(0.001, 0.03):.6g}", f"{u(0.05, 0.95):.6g}"
        bi, target = f"{u(0.001, 0.05):.6g}", f"{u(0.5, 0.99):.6g}"
        if kind == "update":
            return ("update", "--rule", "sym-during", "--bias", bias, "--eps", eps)
        if kind == "thresholds":
            return ("thresholds",)
        if kind == "table":
            return ("table", "--eps", eps, "--s", f"{u(0.005, 0.04):.6g}", "--bi", bi)
        if kind == "limits":
            return ("limits", "--model", "sym-during", "--eps", eps)
        if kind in ("fibonacci", "heatbath"):
            return ("efficiency", "--algorithm", kind, "--bi", bi, "--target", target)
        if kind == "simulate":
            argv = ("simulate", "--builtin", "majority-toffoli", "--bias", bias)
            return argv + ("--eps", eps) if with_eps else argv
        bits = "".join(str(self.rng.getrandbits(1)) for _ in range(9))
        positions = ",".join(str(p) for p in self.rng.sample(range(9), 3))
        return ("tape", "--m", "3", "--action", "cool", "--bits", bits,
                "--positions", positions)

    def warmup_op(self):
        return CliCall(("thresholds",))

    def _spawn(self, code: str, op: CliCall) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code, *op.argv], cwd=ROOT,
                              env=os.environ.copy(), stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=120)

    def run(self, op: CliCall):
        proc = self._spawn(_CLI, op)
        return proc.returncode, proc.stdout

    def _probe(self, op: CliCall, tracer: spans.Tracer):
        proc = self._spawn(_CLI_PROBE, op)
        t0, t1, t2 = (float(x) for x in proc.stderr.split()[-3:])
        tracer.add("cli.import", t0, t1)
        tracer.add("cli.main", t1, t2)
        return proc.returncode, proc.stdout

    def traced(self, op: CliCall, tracer: spans.Tracer):
        return tracer.call("cli.call", self._probe, (op, tracer), {})

    def check(self, op: CliCall, out) -> list[str]:
        code, stdout = out
        if code != 0:
            return [f"{' '.join(op.argv)}: exit code {code}"]
        try:
            json.loads(stdout)
        except ValueError as exc:
            return [f"{' '.join(op.argv)}: stdout is not JSON ({exc})"]
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            cli.main(list(op.argv))
        if stdout != buffer.getvalue().encode():
            return [f"{' '.join(op.argv)}: output differs from in-process main"]
        return []


WORKLOADS = {w.name: w for w in (NoisyLimits, TapeCool, WideRegister, CliSession)}
