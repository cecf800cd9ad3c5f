"""Command-line driver: every computation as a reproducible, scriptable call.

Commands: update, limits, thresholds, efficiency, simulate, tape, table.
JSON is the canonical machine format (floats at 17 significant digits);
CSV is available for the tabular commands (thresholds, table, limits);
text output is human-oriented and not stability-guaranteed. Exit codes:
0 success, 1 domain error (a machine-readable error record is printed),
2 flag parse failure.

A fresh interpreter loads only what its command runs: `cooling` and
`tape` load inside the commands that use them, and `simulate` loads
numpy only for a register wider than `circuits.NARROW_WIDTH` (3) bits,
pushing narrower ones through `circuits.NarrowRegister` with the same
bits. `limits` loads with the module: the parser's `--model` choices
read its labels.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bias as bias_mod
from . import circuits, limits
from .bias import ErrorRates
from .jsonio import dumps as jdumps

_CSV_COMMANDS = {"thresholds", "table", "limits"}


def _fmt_float(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_cell(value) -> str:
    """One CSV field: N/A for None, lists joined by "; ", quoted around a comma, quote or newline."""
    if value is None:
        return "N/A"
    text = "; ".join(value) if isinstance(value, list) else _fmt_float(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\n') else text


def _emit_csv(rows: list[dict]) -> str:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[k]) for k in header))
    return "\n".join(lines) + "\n"


def _parse_rates(args, required: bool = True) -> ErrorRates | None:
    given_eps = args.eps is not None
    given_pair = args.eps0 is not None or args.eps1 is not None
    given_sd = args.s is not None or args.d is not None
    if given_eps + given_pair + given_sd > 1:
        raise ValueError("give rates as --eps, as --eps0/--eps1, or as --s/--d, not mixed")
    if given_eps:
        return ErrorRates.symmetric(args.eps)
    if given_pair:
        if args.eps0 is None or args.eps1 is None:
            raise ValueError("--eps0 and --eps1 must be given together")
        return ErrorRates(args.eps0, args.eps1)
    if given_sd:
        if args.s is None:
            raise ValueError("--s is required with --d")
        return ErrorRates.from_sd(args.s, args.d if args.d is not None else 0.0)
    if required:
        raise ValueError("error rates required: --eps, --eps0/--eps1, or --s/--d")
    return None


_RATE_FLAGS = ("eps", "eps0", "eps1", "s", "d")


def _given(args, names) -> dict:
    """The named flags the user gave, by name, so library defaults apply to the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _reject_flags(args, names, context: str) -> None:
    """Raise if any of the named flags was given: they would be ignored."""
    given = [f"--{name.replace('_', '-')}" for name in _given(args, names)]
    if given:
        raise ValueError(f"{', '.join(given)} {'does' if len(given) == 1 else 'do'} "
                         f"not apply {context}")


def _add_rate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, help="symmetric flip rate")
    p.add_argument("--eps0", type=float, help="0 -> 1 flip rate")
    p.add_argument("--eps1", type=float, help="1 -> 0 flip rate")
    p.add_argument("--s", type=float, help="rate sum eps0 + eps1")
    p.add_argument("--d", type=float, help="rate difference eps1 - eps0")


def _parse_bias_list(text: str | None, count: int) -> list[float]:
    fields = text.split(",") if text else []
    if any(not field.strip() for field in fields):
        raise ValueError(f"--biases has an empty field: {text!r}")
    if len(fields) != count:
        raise ValueError(f"--biases must list exactly {count} values")
    return [float(field) for field in fields]


def _parse_bit_string(text: str) -> list[int]:
    if any(c not in "01" for c in text):
        raise ValueError(f"bit string must be 0/1 characters, got {text!r}")
    return [int(c) for c in text]


# ------------------------------------------------------------------- commands


_LIST_RULES = ("three-bc-unequal", "steady-state")
_NOISELESS_RULES = ("two-bc", "three-bc", "three-bc-unequal")


def _cmd_update(args) -> tuple[object, str]:
    rule = args.rule
    foreign = ("bias",) if rule in _LIST_RULES else ("biases",)
    if rule != "asym-during":
        foreign += ("order",)
    if rule in _NOISELESS_RULES:
        foreign += _RATE_FLAGS
    _reject_flags(args, foreign, f"to rule {rule}")
    record: dict = {"rule": rule}
    if rule not in _LIST_RULES:
        if args.bias is None:
            raise ValueError(f"--bias required for rule {rule}")
        record["bias"] = args.bias
    if rule == "two-bc":
        record["result"] = bias_mod.two_bc_accept_bias(args.bias)
        record["accept_prob"] = bias_mod.two_bc_accept_prob(args.bias)
    elif rule == "three-bc":
        record["result"] = bias_mod.three_bc_bias(args.bias)
    elif rule == "three-bc-unequal":
        bs = _parse_bias_list(args.biases, 3)
        record["biases"] = bs
        record["result"] = bias_mod.three_bc_bias_unequal(*bs)
    elif rule == "steady-state":
        bs = _parse_bias_list(args.biases, 2)
        rates = _parse_rates(args, required=False)
        record["biases"] = bs
        if rates is None:
            record["result"] = bias_mod.steady_state_bias(*bs)
        else:
            record.update(s=rates.s, d=rates.d)
            record["result"] = bias_mod.steady_state_bias_noisy(bs[0], bs[1], rates)
    elif rule == "debias":
        rates = _parse_rates(args)
        record.update(bias=args.bias, s=rates.s, d=rates.d)
        record["result"] = bias_mod.debias_step(args.bias, rates)
    elif rule in ("sym-after", "sym-during"):
        model = limits.make_model(rule, _parse_rates(args))
        record["eps"] = model.rates.eps0
        record["result"] = model.update(args.bias)
    elif rule in ("asym-after", "asym-during"):
        rates = _parse_rates(args)
        record.update(bias=args.bias, s=rates.s, d=rates.d)
        if rule == "asym-after":
            record["result"] = limits.newbias_asym_after(args.bias, rates)
        else:
            record["order"] = args.order or "exact"
            mode = "second_order" if args.order == "second" else "exact"
            result = record["result"] = limits.newbias_asym_during(args.bias, rates, mode=mode)
            if mode == "second_order" and not -1.0 <= result <= 1.0:
                record["warnings"] = [f"second-order result {result!r} is outside [-1, 1]: "
                                      "the small-rate expansion does not apply at these rates"]
    else:
        raise ValueError(f"unknown rule {rule!r}")
    text = f"{rule} -> {_fmt_float(record['result'])}"
    text += "".join(f"\nwarning: {w}" for w in record.get("warnings", ()))
    return record, text


def _cmd_limits(args) -> tuple[object, str]:
    rates = _parse_rates(args)
    report = limits.limit_report(args.model, rates)
    record = report.as_dict()
    text = (f"{report.model}: b_lim={_fmt_float(report.b_lim)} "
            f"second_order={_fmt_float(report.b_lim_second_order)} "
            f"threshold={'N/A' if report.threshold is None else _fmt_float(report.threshold)}")
    text += "".join(f"\nwarning: {w}" for w in report.warnings)
    return record, text


def _cmd_thresholds(_args) -> tuple[object, str]:
    rows = [{"model": label, "threshold": value, "threshold_text": text}
            for label, (value, text) in limits.THRESHOLDS.items()]
    text = "\n".join(f"{r['model']} {r['threshold_text']}" for r in rows)
    return rows, text


def _cmd_table(args) -> tuple[object, str]:
    rows = limits.summary_table(args.eps, args.s, args.bi)
    text = "\n".join(
        f"{r['model']} {r['threshold_text']} {_fmt_float(r['b_lim_second_order'])}"
        for r in rows)
    return rows, text


# the bound fuzzer's own flags; the schedules take none of them
_FUZZ_FLAGS = ("trials", "max_bits", "max_ops", "seed")


def _cmd_efficiency(args) -> tuple[object, str]:
    from . import cooling

    if args.algorithm == "bound-fuzz":
        _reject_flags(args, ("bi", "target", "mode", "tol", "trace", "noise_model")
                      + _RATE_FLAGS, "to bound-fuzz")
        report = cooling.random_hb_trace_check(**_given(args, _FUZZ_FLAGS))
        return report, (f"bound-fuzz: {report['violations']} violations "
                        f"in {report['trials']} trials (seed {report['seed']})")
    _reject_flags(args, _FUZZ_FLAGS, f"to the {args.algorithm} schedule")
    if args.trace and args.format != "json":
        raise ValueError(f"--format {args.format} does not apply to --trace")
    if args.bi is None or args.target is None:
        raise ValueError("--bi and --target are required")
    mode = "exact" if args.mode is None else args.mode
    given_tol = _given(args, ("tol",))  # the schedules' own default applies without --tol
    if args.noise_model is None:
        _reject_flags(args, _RATE_FLAGS, "without --noise-model")
        if args.algorithm in ("simple", "heatbath"):
            _reject_flags(args, ("tol",), f"to the noiseless {args.algorithm} schedule")
        if mode == "approx":
            _reject_flags(args, ("tol", "trace"), "to --mode approx")
    if args.noise_model is not None:
        rates = _parse_rates(args, required=False)
        if rates is None:
            raise ValueError("--noise-model requires error rates")
        if mode != "exact":
            raise ValueError("noisy runs are exact; --mode approx does not apply")
        name = {"simple": "simple-recursive", "fibonacci": "fibonacci"}.get(args.algorithm)
        if name is None:
            raise ValueError(f"noisy runs support simple/fibonacci, not {args.algorithm!r}")
        result = cooling.run_with_noise(name, args.bi, args.target, rates,
                                        model=args.noise_model, **given_tol)
    elif args.algorithm == "simple":
        result = cooling.simple_recursive(args.bi, args.target, mode=mode)
    elif args.algorithm == "heatbath":
        if mode != "exact":
            raise ValueError("heatbath runs are exact; --mode approx does not apply")
        result = cooling.heatbath_recursive(args.bi, args.target)
    elif args.algorithm == "fibonacci":
        result = cooling.fibonacci_algorithm(args.bi, args.target, mode=mode, **given_tol)
    else:
        raise ValueError(f"unknown algorithm {args.algorithm!r}")
    if args.trace:
        return None, cooling.trace_to_jsonl(result)
    record = {
        "algorithm": args.algorithm,
        "bi": args.bi,
        "target": args.target,
        "final_bias": result.final_bias,
        "ledger": result.ledger.as_dict(),
        "stats": result.stats,
    }
    brief = {k: v for k, v in result.stats.items() if not isinstance(v, list)}
    text = (f"{args.algorithm}: final_bias={_fmt_float(result.final_bias)} "
            + " ".join(f"{k}={_fmt_float(v)}" for k, v in brief.items()))
    text += "".join(f"\nwarning: {w}" for w in result.stats.get("warnings", ()))
    return record, text


def _cmd_simulate(args) -> tuple[object, str]:
    if (args.circuit is None) == (args.builtin is None):
        raise ValueError("give exactly one of --circuit FILE or --builtin NAME")
    if args.state is not None:
        _reject_flags(args, ("bias", "biases", "postselect", "output_bit") + _RATE_FLAGS,
                      "to a --state run")
    if args.bias is not None and args.biases is not None:
        raise ValueError("give --bias or --biases, not both")
    if args.builtin is not None:
        builders = {
            "majority-toffoli": circuits.majority_circuit_toffoli,
            "majority-cswap": circuits.majority_circuit_cswap,
            "two-bc": circuits.two_bc_circuit,
            "two-bc-sort": circuits.two_bc_sort_circuit,
        }
        if args.builtin not in builders:
            raise ValueError(f"unknown builtin {args.builtin!r}; "
                             f"choices: {sorted(builders)}")
        circuit = builders[args.builtin]()
    else:
        circuit = circuits.circuit_from_text(Path(args.circuit).read_text())

    if args.state is not None:
        in_bits = _parse_bit_string(args.state)
        if len(in_bits) != circuit.width:
            raise ValueError(f"state needs {circuit.width} bits")
        x = sum(b << i for i, b in enumerate(in_bits))
        y = circuit.apply_to_state(x)
        out_bits = "".join(str((y >> i) & 1) for i in range(circuit.width))
        record = {"width": circuit.width, "state_in": args.state, "state_out": out_bits}
        return record, f"{args.state} -> {out_bits}"

    if args.bias is not None:
        biases = [args.bias] * circuit.width
    elif args.biases is not None:
        biases = _parse_bias_list(args.biases, circuit.width)
    else:
        raise ValueError("give --state, --bias, or --biases")

    rates = _parse_rates(args, required=False)
    if args.postselect is not None:
        try:
            post_bit, post_value = (int(part) for part in args.postselect.split("="))
        except ValueError:
            raise ValueError(f"postselect must be BIT=VALUE, got {args.postselect!r}") from None
    output_bit = 0 if args.output_bit is None else args.output_bit
    record = {"width": circuit.width, "biases": biases, "output_bit": output_bit}
    if rates is not None:
        if not circuit.noise_sites:
            raise ValueError("circuit has no noise sites; rates are meaningless")
        record.update(eps0=rates.eps0, eps1=rates.eps1)
    if circuit.width <= circuits.NARROW_WIDTH:
        start = circuits.NarrowRegister.product([bias_mod.prob_from_bias(b) for b in biases])
    else:
        from .distribution import product_distribution  # loads numpy: only wide registers need it

        start = product_distribution(biases)
    dist = circuit.run(start) if rates is None else circuit.run_with_channels(start, rates)
    if args.postselect is not None:
        dist, prob = dist.condition_on(post_bit, post_value)
        record["postselect"] = args.postselect
        record["accept_prob"] = prob
    record["output_bias"] = dist.marginal_bias(output_bit)
    if rates is None:
        record["marginals"] = [dist.marginal_bias(i) for i in range(circuit.width)]
    return record, f"output bias (bit {output_bit}): {_fmt_float(record['output_bias'])}"


# the flag each tape action reads, beyond --m, --head, --bits and --dump
_TAPE_ACTION_FLAGS = {"shift": "fixed", "swap": "pos", "permute": "perm",
                      "cool": "positions", "replay": "program"}


def _cmd_tape(args) -> tuple[object, str]:
    from . import tape

    _reject_flags(args, [flag for action, flag in _TAPE_ACTION_FLAGS.items()
                         if action != args.action], f"to --action {args.action}")
    loop = tape.ChainLoop(args.m, tuple(_parse_bit_string(args.bits)), head=args.head)
    record: dict = {"m": args.m, "head": args.head, "bits_in": args.bits}
    if args.action == "shift":
        if args.fixed not in tape.SPECIES:
            raise ValueError("--fixed must be A, B, or C")
        ops = tape.shift_ops(args.fixed)
    elif args.action == "swap":
        if args.pos is None:
            raise ValueError("--pos required for swap")
        n = loop.n_cells
        if not 0 <= args.pos < n:
            raise ValueError(f"--pos {args.pos} out of range for {n} cells")
        q = (args.pos + 1) % n
        perm = [{args.pos: q, q: args.pos}.get(c, c) for c in range(n)]
        ops = tape.permutation_ops(args.m, args.head, perm)
    elif args.action == "permute":
        perm = [int(t) for t in (args.perm or "").split(",")]
        ops = tape.permutation_ops(args.m, args.head, perm)
    elif args.action == "cool":
        positions = [int(t) for t in (args.positions or "").split(",")]
        ops, _ = tape.compile_cooling_step(loop, positions)
        record["positions"] = positions
    elif args.action == "replay":
        if args.program is None:
            raise ValueError("--program FILE required for replay")
        ops = tape.pulse_program_from_text(Path(args.program).read_text())
    else:
        raise ValueError(f"unknown action {args.action!r}")
    out = tape.execute(loop, ops)
    record["pulses"] = len(ops)
    if args.action == "cool":  # the routing is replayed in reverse around the head gates
        head = len(circuits.majority_circuit_toffoli().gates)
        routing = (len(ops) - head) // 2
        record["pulses_by_phase"] = {"routing": routing, "head": head, "unrouting": routing}
        record["pulses_by_kind"] = {kind: sum(op.kind == kind for op in ops)
                                    for kind in ("SWAP_AB", "SWAP_BC", "SWAP_AC", "HEAD")}
    record["bits_out"] = "".join(str(b) for b in out.bits)
    if args.dump is not None:
        Path(args.dump).write_text(tape.pulse_program_to_text(ops))
        record["dump"] = args.dump
    return record, f"{record['bits_in']} -> {record['bits_out']} ({record['pulses']} pulses)"


# ----------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbcool",
        description="Heat-bath cooling algebra, circuits, limits, and tape emulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("update", help="evaluate one bias update rule")
    p.add_argument("--rule", required=True,
                   choices=("two-bc", "three-bc", "three-bc-unequal", "steady-state",
                            "debias", "sym-after", "sym-during", "asym-after",
                            "asym-during"))
    p.add_argument("--bias", type=float)
    p.add_argument("--biases", type=str, help="comma-separated bias list")
    p.add_argument("--order", choices=("exact", "second"),
                   help="asym-during only: exact or second-order update (default exact)")
    _add_rate_flags(p)
    add_format(p)
    p.set_defaults(func=_cmd_update)

    p = sub.add_parser("limits", help="bias limit report for one noise model")
    p.add_argument("--model", required=True, choices=limits.MODEL_LABELS)
    _add_rate_flags(p)
    add_format(p)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("thresholds", help="error-rate thresholds per model")
    add_format(p)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("table", help="four-model summary at given rates")
    p.add_argument("--eps", type=float, default=0.01, help="symmetric rows' flip rate")
    p.add_argument("--s", type=float, default=0.02, help="asymmetric rows' rate sum")
    p.add_argument("--bi", type=float, default=0.5, help="asymmetric rows' bath bias d/s")
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("efficiency", help="cooling-schedule resource counts")
    p.add_argument("--algorithm", required=True,
                   choices=("simple", "heatbath", "fibonacci", "bound-fuzz"))
    p.add_argument("--bi", type=float, help="initial (bath) bias")
    p.add_argument("--target", type=float, help="target bias")
    p.add_argument("--mode", choices=("approx", "exact"),
                   help="closed form or exact recursion (default exact)")
    p.add_argument("--tol", type=float, help="convergence tolerance (default 1e-12)")
    p.add_argument("--trace", action="store_true", default=None,
                   help="emit the JSONL step trace")
    p.add_argument("--noise-model", choices=limits.MODEL_LABELS)
    p.add_argument("--trials", type=int, help="bound-fuzz trials (default 10000)")
    p.add_argument("--max-bits", type=int, help="bound-fuzz register size cap (default 8)")
    p.add_argument("--max-ops", type=int, help="bound-fuzz operations per trial (default 20)")
    p.add_argument("--seed", type=int, help="bound-fuzz random seed (default 0)")
    _add_rate_flags(p)
    add_format(p)
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser("simulate", help="run a reversible circuit exactly")
    p.add_argument("--circuit", type=str, help="circuit file (line format)")
    p.add_argument("--builtin", type=str, help="named built-in circuit")
    p.add_argument("--state", type=str, help="basis input, char i = bit i")
    p.add_argument("--bias", type=float, help="same bias on every input bit")
    p.add_argument("--biases", type=str, help="comma-separated per-bit biases")
    p.add_argument("--output-bit", type=int, help="bit whose bias is reported (default 0)")
    p.add_argument("--postselect", type=str, metavar="BIT=VAL")
    _add_rate_flags(p)
    add_format(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tape", help="ABC-chain tape emulation")
    p.add_argument("--m", type=int, required=True, help="number of ABC triples (odd)")
    p.add_argument("--head", type=int, default=0)
    p.add_argument("--bits", type=str, required=True, help="cell values, char i = cell i")
    p.add_argument("--action", required=True,
                   choices=("shift", "swap", "permute", "cool", "replay"))
    p.add_argument("--fixed", type=str, help="species held fixed by a shift")
    p.add_argument("--pos", type=int, help="cell for swap action")
    p.add_argument("--perm", type=str, help="comma-separated destination map")
    p.add_argument("--positions", type=str, help="three cells for cool action")
    p.add_argument("--program", type=str, help="pulse program file for replay")
    p.add_argument("--dump", type=str, help="write the pulse program to a file")
    add_format(p)
    p.set_defaults(func=_cmd_tape)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, text = args.func(args)
    except (ValueError, OSError) as exc:
        print(jdumps({"error": str(exc)}))
        return 1
    fmt = getattr(args, "format", "json")
    if record is None:  # --trace's JSON lines, written as they are
        sys.stdout.write(text)
    elif fmt == "json":
        print(jdumps(record))
    elif fmt == "csv":
        if args.command not in _CSV_COMMANDS:
            print(jdumps({"error": f"csv output not supported for {args.command}"}))
            return 1
        rows = record if isinstance(record, list) else [record]
        sys.stdout.write(_emit_csv(rows))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
