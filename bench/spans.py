"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

A traced op runs with public hbcool functions replaced, at the names
their callers look up, by wrappers that record one span per call:
(name, start, end, parent span, op id, attributes). `limits`, for
example, reaches the tuple enumerator through the name
`hbcool.limits.enumerate_noisy_output_bias`, so that binding is the one
wrapped. Spans stay in memory and are written out when the run ends.

The layer of a span is the part of its name before the first dot. A
span's self time is its duration minus the durations of its children;
calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

# Spans whose call is one evaluation of a bias-update map.
UPDATE_SPANS = frozenset({
    "limits.newbias_sym_after", "limits.newbias_sym_during",
    "limits.newbias_asym_after", "limits.newbias_asym_during",
    "bias.three_bc_bias_unequal",
})

# Float64 vectors of 2^width entries a distribution kernel must at least
# read plus write; the basis of the computed (not measured) byte count.
KERNEL_VECTORS = {"product": 1, "channel": 2, "marginal": 1, "condition": 2}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self._stack: list[int] = []
        self.op = -1

    def call(self, name, fn, args, kwargs, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.op, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            record[5] = attrs(args, result)
        return result

    def add(self, name, start, end, attrs=None):
        """Record a finished span under the open one (e.g. from a child process)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op, attrs])

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


def _width_of_first(args, _result):
    return {"w": args[0].width}


def _width_of_list(args, _result):
    return {"w": len(args[0])}


def _tuples(args, _result):
    circuit = args[0]
    return {"tuples": 1 << (circuit.width + len(circuit.noise_sites))}


def _schedule_steps(_args, result):
    return {"steps": len(result.trace or ())}


def _compiled(args, result):
    ops, _ = result
    compute = sum(1 for op in ops if op.kind == "HEAD" and op.gate.kind != "SWAP")
    return {"m": args[0].m, "pulses": len(ops), "compute": compute}


def _loop_size(args, _result):
    return {"m": args[0].m}


# (module, attribute path, span name, attribute extractor)
TARGETS = (
    ("hbcool.limits", "limit_report", "limits.limit_report", None),
    ("hbcool.limits", "newbias_sym_after", "limits.newbias_sym_after", None),
    ("hbcool.limits", "newbias_sym_during", "limits.newbias_sym_during", None),
    ("hbcool.limits", "newbias_asym_after", "limits.newbias_asym_after", None),
    ("hbcool.limits", "newbias_asym_during", "limits.newbias_asym_during", None),
    ("hbcool.limits", "enumerate_noisy_output_bias",
     "noise.enumerate_noisy_output_bias", _tuples),
    ("hbcool.limits", "three_bc_bias", "bias.three_bc_bias", None),
    ("hbcool.cooling", "run_with_noise", "cooling.run_with_noise", _schedule_steps),
    ("hbcool.cooling", "three_bc_bias_unequal", "bias.three_bc_bias_unequal", None),
    ("hbcool.cooling", "debias_step", "bias.debias_step", None),
    ("hbcool.noise", "prob_from_bias", "bias.prob_from_bias", None),
    ("hbcool.distribution", "prob_from_bias", "bias.prob_from_bias", None),
    ("hbcool.distribution", "product_distribution", "distribution.product",
     _width_of_list),
    ("hbcool.distribution", "JointDistribution.prob_bit_is", "distribution.marginal",
     _width_of_first),
    ("hbcool.distribution", "JointDistribution.apply_bitflip_channel",
     "distribution.channel", _width_of_first),
    ("hbcool.distribution", "JointDistribution.condition_on", "distribution.condition",
     _width_of_first),
    ("hbcool.circuits", "apply_gate", "circuits.apply_gate", _width_of_first),
    ("hbcool.circuits", "Circuit.run_with_channels", "circuits.run_with_channels", None),
    ("hbcool.tape", "compile_cooling_step", "tape.compile", _compiled),
    ("hbcool.tape", "execute", "tape.execute", _loop_size),
    ("hbcool.tape", "pulse_program_to_text", "tape.to_text", None),
    ("hbcool.tape", "pulse_program_from_text", "tape.from_text", None),
)


def _wrap(tracer: Tracer, name: str, fn, attrs):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)
    traced.__wrapped__ = fn
    return traced


@contextmanager
def patched(tracer: Tracer):
    """Install span wrappers on every target; restore the originals on exit."""
    saved = []
    try:
        for module_name, path, name, attrs in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


PER_LAYER_UNITS = {
    "noise.calls": "count", "noise.tuples": "count", "noise.self_ms": "ms",
    "limits.reports": "count", "limits.update_evals": "count", "limits.self_ms": "ms",
    "cooling.runs": "count", "cooling.steps": "count", "cooling.update_evals": "count",
    "cooling.self_ms": "ms",
    "bias.calls": "count", "bias.self_ms": "ms",
    "circuits.gate_applications": "count", "circuits.self_ms": "ms",
    "distribution.kernel_calls.product": "count",
    "distribution.kernel_calls.channel": "count",
    "distribution.kernel_calls.marginal": "count",
    "distribution.kernel_calls.condition": "count",
    "distribution.self_ms.w16": "ms", "distribution.self_ms.w20": "ms",
    "distribution.self_ms.other": "ms", "distribution.bytes_computed": "B",
    "tape.compile_ms.m3": "ms", "tape.compile_ms.m9": "ms", "tape.compile_ms.m21": "ms",
    "tape.execute_ms.m3": "ms", "tape.execute_ms.m9": "ms", "tape.execute_ms.m21": "ms",
    "tape.pulses_routing": "count", "tape.pulses_head": "count",
    "tape.head_share": "share", "tape.pulses_per_step": "count",
    "tape.text_roundtrip_ms": "ms",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
    "cli.startup_share": "share",
    "trace.overhead_ops_per_s": "1/s", "trace.overhead_share": "share",
}

_LAYERS = ("noise", "limits", "cooling", "bias", "circuits")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], n_ops: int, count_ops: int,
                  untraced_ops_per_s: float, traced_ops_per_s: float) -> dict[str, float]:
    """Per-layer metrics per op from recorded spans.

    Counts come from the first `count_ops` ops, whose inputs are fixed by
    the seed, so they repeat exactly; times are averaged over all
    `n_ops` traced ops.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _op, _attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    # nearest enclosing limit_report / run_with_noise span, by index
    owner: list[str | None] = []
    for name, _s, _e, parent, _op, _attrs in spans:
        if name in ("limits.limit_report", "cooling.run_with_noise"):
            owner.append(name.split(".")[0])
        else:
            owner.append(owner[parent] if parent >= 0 else None)

    counts: dict[str, float] = {k: 0.0 for k, unit in PER_LAYER_UNITS.items()
                                if unit in ("count", "B")}
    self_ms = {layer: 0.0 for layer in _LAYERS}
    dist_ms = {"w16": 0.0, "w20": 0.0, "other": 0.0}
    compile_ms = {3: [0.0, 0], 9: [0.0, 0], 21: [0.0, 0]}
    execute_ms = {3: [0.0, 0], 9: [0.0, 0], 21: [0.0, 0]}
    text_ms = 0.0
    cli_ms = {"cli.call": 0.0, "cli.import": 0.0, "cli.main": 0.0}
    pulses = compute = steps = 0

    for i, (name, start, end, _parent, op, attrs) in enumerate(spans):
        duration = (end - start) * 1e3
        own = duration - child_time[i] * 1e3
        layer = name.split(".")[0]
        if layer in self_ms:
            self_ms[layer] += own
        if layer == "distribution":
            width = attrs["w"]
            dist_ms[f"w{width}" if width in (16, 20) else "other"] += own
        elif name == "tape.compile":
            compile_ms[attrs["m"]][0] += duration
            compile_ms[attrs["m"]][1] += 1
        elif name == "tape.execute":
            execute_ms[attrs["m"]][0] += duration
            execute_ms[attrs["m"]][1] += 1
        elif name in ("tape.to_text", "tape.from_text"):
            text_ms += duration
        elif name == "cli.call":
            cli_ms[name] += own
        elif name in cli_ms:
            cli_ms[name] += duration
        if op >= count_ops:
            continue
        if name == "noise.enumerate_noisy_output_bias":
            counts["noise.calls"] += 1
            counts["noise.tuples"] += attrs["tuples"]
        elif name == "limits.limit_report":
            counts["limits.reports"] += 1
        elif name == "cooling.run_with_noise":
            counts["cooling.runs"] += 1
            counts["cooling.steps"] += attrs["steps"]
        elif name == "circuits.apply_gate":
            counts["circuits.gate_applications"] += 1
        elif layer == "distribution":
            kind = name.split(".")[1]
            counts[f"distribution.kernel_calls.{kind}"] += 1
            counts["distribution.bytes_computed"] += KERNEL_VECTORS[kind] * 8 << attrs["w"]
        elif name == "tape.compile":
            steps += 1
            pulses += attrs["pulses"]
            compute += attrs["compute"]
        if layer == "bias":
            counts["bias.calls"] += 1
        if name in UPDATE_SPANS and owner[i] is not None:
            counts[f"{owner[i]}.update_evals"] += 1

    counts["tape.pulses_head"] = compute
    counts["tape.pulses_routing"] = pulses - compute
    metrics = {name: _ratio(value, count_ops) for name, value in counts.items()}
    metrics["tape.pulses_per_step"] = _ratio(pulses, steps)
    metrics["tape.head_share"] = _ratio(compute, pulses)
    for layer, total in self_ms.items():
        metrics[f"{layer}.self_ms"] = _ratio(total, n_ops)
    for key, total in dist_ms.items():
        metrics[f"distribution.self_ms.{key}"] = _ratio(total, n_ops)
    for m in (3, 9, 21):
        metrics[f"tape.compile_ms.m{m}"] = _ratio(*compile_ms[m])
        metrics[f"tape.execute_ms.m{m}"] = _ratio(*execute_ms[m])
    metrics["tape.text_roundtrip_ms"] = _ratio(text_ms, n_ops)
    metrics["cli.interpreter_ms"] = _ratio(cli_ms["cli.call"], n_ops)
    metrics["cli.import_ms"] = _ratio(cli_ms["cli.import"], n_ops)
    metrics["cli.main_ms"] = _ratio(cli_ms["cli.main"], n_ops)
    call_ms = sum(cli_ms.values())
    metrics["cli.startup_share"] = _ratio(cli_ms["cli.call"] + cli_ms["cli.import"], call_ms)
    metrics["trace.overhead_ops_per_s"] = untraced_ops_per_s - traced_ops_per_s
    metrics["trace.overhead_share"] = _ratio(untraced_ops_per_s - traced_ops_per_s,
                                             untraced_ops_per_s)
    return metrics
