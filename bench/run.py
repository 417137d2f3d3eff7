"""Benchmark harness for padicspectral.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop: each op starts after the previous op and
its check have finished, and the CLI workload runs one subprocess at a
time.  Inputs come from ``random.Random(seed)`` during set-up, which runs
SETUP_REPEATS times and reports its median as ``setup_s``.  A warm-up op
on separate inputs finishes before timing starts.

``--trace 0`` measures for ``--seconds`` seconds of op time and reports
the end-to-end metrics.  ``--trace 1`` runs a fixed number of ops twice
each, untraced and traced, and reports per-op layer metrics, so that its
counts repeat exactly for a given seed.  The last line of stdout is one
JSON object; a copy of the full report, with the environment, is written
under bench/out/.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from random import Random
from time import perf_counter

import checkout
from tracer import PER_LAYER, Tracer, layer_metrics

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
STARTUP_SAMPLES = 5
P90_MIN_SAMPLES = 100
REF_EVERY_S = 1.0
REF_PRODUCTS = 24

# name, unit, better: reported by every workload with --trace 0
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_cost_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest child's."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024


class Reference:
    """A fixed pure-Python kernel that clocks the host, not padicspectral.

    Modular products of 12 x 12 matrices of 128-digit base-31 integers:
    the big-integer arithmetic the library's linalg does, in plain Python.
    A shared host can run tens of percent slower for minutes, with every
    stage of an op slowing together, so op time divided by the time of
    this kernel, sampled between ops, is steady where op time is not.
    """

    def __init__(self):
        rng = Random(0)
        self.mod = 31**128
        self.a = [[rng.randrange(self.mod) for _ in range(12)] for _ in range(12)]
        self.times: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        b = self.a
        for _ in range(REF_PRODUCTS):
            cols = list(zip(*b))
            b = [[sum(x * y for x, y in zip(row, col)) % self.mod for col in cols] for row in self.a]
        self.times.append(perf_counter() - start)


def summarize(samples: dict) -> dict:
    """Median (and p90 where there are enough samples) of each stage."""
    out = {}
    for key, xs in samples.items():
        if not key.endswith("_s"):
            out[key] = (statistics.median(xs), "bytes")
            continue
        out[f"{key}.p50"] = (statistics.median(xs), "s")
        if len(xs) >= P90_MIN_SAMPLES:
            out[f"{key}.p90"] = (statistics.quantiles(xs, n=10)[-1], "s")
    return out


def setup(workload, seed: int, size, workdir: Path):
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # let the previous pool go before timing the next
        start = perf_counter()
        inputs = workload.make(Random(seed), size, workdir)
        times.append(perf_counter() - start)
    return inputs, statistics.median(times)


def attempt(workload, ctx, inputs, i: int):
    """Run op i (traced when ctx.tracer is set), then check it untimed.

    Returns (stages or None, ok, wall seconds of the op alone).  An
    exception or a wrong result is a failure; it never stops the run.
    """
    start = perf_counter()
    try:
        if ctx.tracer is None:
            stages, out = workload.op(ctx, inputs, i)
        else:
            ctx.tracer.op = i
            with ctx.tracer:
                stages, out = workload.op(ctx, inputs, i)
    except Exception:
        wall = perf_counter() - start
        sys.stderr.write(f"op {i} raised:\n{traceback.format_exc()}")
        return None, False, wall
    wall = perf_counter() - start
    try:
        ok = workload.check(inputs, i, out)
    except Exception:
        sys.stderr.write(f"check of op {i} raised:\n{traceback.format_exc()}")
        ok = False
    if not ok:
        sys.stderr.write(f"op {i}: wrong result\n")
    return stages, ok, wall


def cli_startup_s() -> float:
    """Median wall time of ``python -m padicspectral.cli --help``."""
    cmd = [sys.executable, "-m", "padicspectral.cli", "--help"]
    walls = []
    for _ in range(STARTUP_SAMPLES):
        start = perf_counter()
        subprocess.run(
            cmd, cwd=checkout.ROOT, env=checkout.subprocess_env(),
            capture_output=True, timeout=60, check=True,
        )
        walls.append(perf_counter() - start)
    return statistics.median(walls)


def measure(workload, ctx, inputs, seconds: float) -> dict:
    samples: dict = {}
    walls = []
    attempted = failed = 0
    timed = 0.0
    ref = Reference()
    ref.sample()
    last_ref = perf_counter()
    costs, pending = [], []  # op time over the mean of the two bracketing samples
    while timed < seconds and attempted < len(inputs.items):
        stages, ok, wall = attempt(workload, ctx, inputs, attempted)
        attempted += 1
        timed += wall
        if ok:
            walls.append(wall)
            pending.append(wall)
            for key, value in stages.items():
                samples.setdefault(key, []).append(value)
        else:
            failed += 1
        last = attempted == len(inputs.items) or timed >= seconds
        if last or perf_counter() - last_ref >= REF_EVERY_S:
            ref.sample()
            last_ref = perf_counter()
            scale = (ref.times[-2] + ref.times[-1]) / 2
            costs.extend(w / scale for w in pending)
            pending.clear()
    if timed < seconds:
        sys.stderr.write(
            f"all {attempted} inputs used after {timed:.1f} s of {seconds} s; "
            "the pool in workloads.py is too small for this speed\n"
        )
    metrics = {"op_cost_ref": (statistics.mean(costs) if costs else 0.0, "ref")}
    report = {
        "failed_ratio": (failed / attempted, "ratio"),
        "ops_per_s": (len(walls) / timed, "1/s"),
        "op_s.p50": (statistics.median(walls) if walls else 0.0, "s"),
        "ref_s": (statistics.mean(ref.times), "s"),
        "ops": (len(walls), "count"),
        "timed_s": (timed, "s"),
        **summarize(samples),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


def trace(workload, ctx, inputs, ops: int, spans_path: Path) -> dict:
    tracer = Tracer()
    traced_ctx = dataclasses.replace(ctx, tracer=tracer)
    failed = 0
    plain = traced = 0.0
    for i in range(ops):
        _, plain_ok, wall = attempt(workload, ctx, inputs, i)
        plain += wall
        _, traced_ok, wall = attempt(workload, traced_ctx, inputs, i)
        traced += wall
        failed += (not plain_ok) + (not traced_ok)
    extra = {
        "cli.startup_s.p50": cli_startup_s(),
        "trace.overhead_ratio": traced / plain,
    }
    values = layer_metrics(tracer, ops, extra)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            [
                {"name": n, "layer": n.split(".")[0], "start": s, "end": e, "parent": par, "op": op}
                for n, s, e, par, op in tracer.spans
            ],
            fh,
        )
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    return {"attempted": 2 * ops, "failed": failed, "metrics": metrics, "report": {"ops": (ops, "count")}}


def run(name: str, seed: int, seconds: float, traced: bool, size=None) -> dict:
    """One benchmark run; ``size`` overrides the workload's full size."""
    # workloads imports padicspectral, so it loads only after import_package()
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[name]
    size = size or workload.size
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
        workdir = Path(tmp)
        ctx = Context(workdir)
        inputs, setup_s = setup(workload, seed, size, workdir)
        warm_dir = workdir / "warm"
        warm_dir.mkdir()
        warm_inputs = workload.make(Random(seed + 1), workload.warm, warm_dir)
        _, warm_ok, _ = attempt(workload, Context(warm_dir), warm_inputs, 0)
        if traced:
            ops = min(workload.trace_ops, len(inputs.items))
            spans = OUT / f"{name}-seed{seed}-spans.json"
            result = trace(workload, ctx, inputs, ops, spans)
        else:
            result = measure(workload, ctx, inputs, seconds)
            result["metrics"]["setup_s"] = (setup_s, "s")
            result["metrics"]["peak_rss_mb"] = (peak_rss_mb(), "MB")
    result["report"]["setup_s"] = (setup_s, "s")
    result["correct"] = warm_ok and result["failed"] == 0
    return result


def _jsonable(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        package = checkout.import_package()
    except checkout.WrongCheckout as e:
        sys.stderr.write(f"refusing to run: {e}\n")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    env = checkout.environment(package)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _jsonable(result["metrics"]),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "report": _jsonable({**result["report"], **result["metrics"]}),
        "result": line,
    }
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"env": env}))
    for key, (value, unit) in sorted({**result["report"], **result["metrics"]}.items()):
        print(f"{args.workload}  {key} = {value:.6g} {unit}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
