"""Tests of the benchmark itself. Run with: python3 -m pytest -q bench"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare_process()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
COUNT_UNITS = ("count", "B")


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)


def _measure(name: str, trace: bool, seed: int = 3):
    # zero seconds: exactly one block of ops
    measure = run.per_layer if trace else run.end_to_end
    return measure(workloads.WORKLOADS[name](seed), seed, 0.0)


def test_metric_names_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == spans.PER_LAYER_UNITS
    for name in [*e2e, *layers, *NAMES]:
        assert NAME_RE.match(name), name


@pytest.mark.parametrize("name", NAMES)
def test_smoke_end_to_end(name):
    tally, metrics, record = _measure(name, trace=False)
    assert tally.attempted >= 1 and tally.failed == 0, tally.problems
    assert {k: m["unit"] for k, m in metrics.items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in metrics.values())
    assert record["latency_samples"] == tally.attempted


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name):
    first_tally, first, _ = _measure(name, trace=True)
    second_tally, second, _ = _measure(name, trace=True)
    assert first_tally.failed == second_tally.failed == 0
    assert set(first) == set(spans.PER_LAYER_UNITS)
    counts = [k for k, unit in spans.PER_LAYER_UNITS.items() if unit in COUNT_UNITS]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    touched = {"noisy-limits": "noise.calls", "tape-cool": "tape.pulses_per_step",
               "wide-register": "circuits.gate_applications",
               "cli-session": "cli.import_ms"}[name]
    assert first[touched]["value"] > 0


def _wrong_noisy_limits(out):
    reports, simple, fib = out
    bad = dataclasses.replace(reports[0], b_lim=reports[0].b_lim + 1e-6)
    return [bad, *reports[1:]], simple, fib


def _wrong_tape_cool(out):
    program, bits, parsed = out
    return program, (bits[0] ^ 1, *bits[1:]), parsed


def _wrong_wide_register(out):
    (dist, marginals, post, accept), *rest = out
    return [(dist, [marginals[0] + 1e-9, *marginals[1:]], post, accept), *rest]


def _wrong_cli_session(out):
    code, stdout = out
    return code, stdout.replace(b"0", b"1", 1)


WRONG = {"noisy-limits": _wrong_noisy_limits, "tape-cool": _wrong_tape_cool,
         "wide-register": _wrong_wide_register, "cli-session": _wrong_cli_session}


@pytest.mark.parametrize("name", NAMES)
def test_wrong_answers_count_as_errors(name):
    workload = workloads.WORKLOADS[name](5)
    right = workload.run
    workload.run = lambda op: WRONG[name](right(op))
    tally, _, _, _ = run.run_ops(workload, 0.0)
    assert tally.attempted >= 1
    assert tally.failed == tally.attempted


@pytest.mark.parametrize("name", NAMES)
def test_inputs_follow_the_seed(name):
    def first_block(seed):
        return next(workloads.WORKLOADS[name](seed).blocks())
    assert first_block(7) == first_block(7)
    assert first_block(7) != first_block(8)


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(20, 500):
        q = run.tail_percentile(n)
        assert n * (100 - q) / 100 >= 10
        assert q == 99 or n * (100 - (q + 1)) / 100 < 10


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tape-cool",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
