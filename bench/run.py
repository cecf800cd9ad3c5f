"""Run one hbcool benchmark workload, check every result, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: noisy-limits, tape-cool, wide-register, cli-session (see
bench/README.md). One caller, closed loop, no threads. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones from a separate traced run,
whose spans are also written to bench/out/. The line before it is a
JSON record of the machine, sample counts and the tail percentile used.

The program under test is the hbcool source in src/ next to this
directory; the run fails without it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 3
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def prepare_process() -> None:
    """Use the checkout's hbcool source and single-threaded numpy/BLAS pools.

    The environment is set before hbcool (and so numpy) is imported, and
    child interpreters inherit it.
    """
    if not (SRC / "hbcool" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hbcool source at {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -------------------------------------------------------------------- stats


def percentile(values: list[float], q: float) -> float:
    """q-th percentile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 at least)."""
    if n < 20:
        return 50
    return min(99, math.floor(100 * (n - 10) / n))


# ---------------------------------------------------------------- measuring


class Tally:
    """Attempted and failed ops, with the problems the oracles reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, call, workload, op) -> float | None:
        """Run one op through `call`, check it; return its latency or None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = call(op)
        except Exception:  # a failed op is counted and the run goes on
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return None
        latency = time.perf_counter() - start
        issues = workload.check(op, out)
        if issues:
            self.failed += 1
            self.problems.extend(issues)
        return latency


def run_ops(workload, seconds: float, tracer=None) -> tuple[Tally, list[float], list[float], int]:
    """Closed loop over whole blocks of ops for about `seconds` of op time.

    A new block starts only while the measured time, plus half a block,
    stays under `seconds`; at least one block always runs. With a tracer
    each op runs both untraced and traced on the same inputs, in
    alternating order.
    Returns the tally, untraced and traced latencies, and the size of the
    first block.
    """
    tally = Tally()
    plain: list[float] = []
    traced: list[float] = []
    measured = 0.0
    first_block = 0
    index = 0
    for n_blocks, block in enumerate(workload.blocks(), start=1):
        first_block = first_block or len(block)
        for op in block:
            runs = [(workload.run, plain)]
            if tracer is not None:
                tracer.op = index
                runs.append((lambda o: workload.traced(o, tracer), traced))
                if index % 2:  # alternate which of the pair runs first
                    runs.reverse()
            for call, latencies in runs:
                latency = tally.attempt(call, workload, op)
                if latency is not None:
                    latencies.append(latency)
                    measured += latency
            index += 1
        if measured * (1.0 + 0.5 / n_blocks) >= seconds:
            break
    return tally, plain, traced, first_block


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready for the
    first timed op: imports, input generation and the warm-up call."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        with proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe for {name} failed with exit code {code}")
        times.append(ready - start)
    return times


# -------------------------------------------------------------- environment


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(f"{index}/type") != "Instruction":
            caches[f"L{_read(f'{index}/level')}_bytes"] = _size_bytes(_read(f"{index}/size"))
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    w20_bytes = 8 << 20
    l3 = caches.get("L3_bytes", 0)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        **caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "w20_vector_bytes": w20_bytes,
        "note": ("distribution.bytes_computed counts vectors a kernel must touch; "
                 + ("a width-20 vector fits in L3, so that traffic is cache-resident, "
                    "not DRAM bandwidth" if w20_bytes < l3 else
                    "a width-20 vector exceeds L3")),
    }


# ----------------------------------------------------------------- commands


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    name = workload.name
    workload.warmup()
    tally, latencies, _, _ = run_ops(workload, seconds)
    if not latencies:
        raise RuntimeError("no op completed")
    if name == "cli-session":
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup = measure_setup(name, seed)
    q = tail_percentile(len(latencies))
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_tail_ms": percentile(latencies, q) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    record = {"latency_samples": len(latencies), "tail_percentile": q,
              "setup_samples": len(setup), "measured_s": sum(latencies),
              "peak_rss_scope": "children" if name == "cli-session" else "self"}
    return tally, metrics, record


def per_layer(workload, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    workload.warmup()
    tracer = spans.Tracer()
    tally, plain, traced, count_ops = run_ops(workload, seconds, tracer)
    if not plain or not traced:
        raise RuntimeError("no op completed")
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    values = spans.layer_metrics(tracer.spans, len(traced), count_ops, plain_rate, traced_rate)
    metrics = {k: _metric(v, spans.PER_LAYER_UNITS[k]) for k, v in values.items()}
    out = BENCH_DIR / "out" / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(out)
    record = {"traced_ops": len(traced), "untraced_ops": len(plain),
              "count_window_ops": count_ops, "spans": len(tracer.spans),
              "spans_file": str(out.relative_to(ROOT))}
    return tally, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, warm up, print 'ready' and exit")
    args = parser.parse_args(argv)

    prepare_process()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choices: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        workload.warmup()
        print("ready", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    tally, metrics, record = measure(workload, args.seed, args.seconds)
    for problem in tally.problems[:10]:
        print(f"bench: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "error_rate": tally.failed / tally.attempted, **record, **environment()}
    print(json.dumps({"report": report}))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
