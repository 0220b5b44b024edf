#!/usr/bin/env python3
"""pigouq benchmark: one workload, one seed, in one process on one thread.

    python3 bench/run.py --workload ksweep_exact --seed 1 --seconds 24 --trace 0

The run is a closed loop with a single client: each op is issued when
the previous one has returned. Inputs come from ``--seed`` alone, and
every output is checked against the benchmark's own model
(``reference.py``) off the clock, after each block of ops.

``--trace 0`` issues blocks for ``--seconds`` of wall time, at least
100 ops so that ten latencies lie beyond p90, and reports the
end-to-end metrics at a reference host speed: a fixed probe, timed
before and after every op, measures how fast the host runs at that
moment, and each op's latency is scaled by the probe's reference time
over its measured time (see ``host_factor``).
``--trace 1`` runs a fixed number of blocks (the workload's count, scaled
by ``--seconds`` over ``run_seconds``) through the layer wrappers of
``spans.py``, replays the same blocks untraced to price the tracing,
and reports the per-layer metrics. ``--smoke`` runs each workload's
short warm-up list once instead, to keep the harness itself tested.

Metric names and units come from ``BENCHMARK.json``. Human-readable
lines go first; the last line of stdout is the result JSON. The full
result, with the environment and, for traced runs, the spans, is also
written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_OPS = 100  # timed ops; p90 needs ten samples beyond it
MAX_WALL_S = 120.0  # stop even short of MIN_OPS, so a run ends within its time limit
SETUP_REPEATS = 7
# The probe's time on the 2-core Xeon host the benchmark was written on,
# in its usual loaded state: reported times are scaled to this speed.
PROBE_REF_S = 1.5e-3
PROBE_MATRIX = np.linspace(0.1, 1.0, 16).reshape(4, 4)

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pigouq, pigouq.cli; print(time.perf_counter() - t)"
)


def load_pigouq():
    """Import pigouq from this checkout's ``src/`` and nowhere else."""
    init = SRC / "pigouq" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init.relative_to(ROOT)} not found; run from a pigouq checkout")
    sys.path.insert(0, str(SRC))
    import pigouq
    import pigouq.cli  # noqa: F401

    if Path(pigouq.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported pigouq from {pigouq.__file__}, not from {SRC}")
    return pigouq


def probe() -> float:
    """Seconds for a fixed piece of the benchmark's own work.

    It does what pigouq spends its time on, ``Fraction`` arithmetic and
    small numpy products, with the garbage collector off so that the
    program's heap does not weigh on it. Nothing in it depends on
    pigouq, so a change to the program leaves it alone.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    x = PROBE_MATRIX
    for _ in range(20):
        x = np.kron(PROBE_MATRIX, PROBE_MATRIX)[:4, :4] @ x / 3.0
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def host_factor(probe_s: float) -> float:
    """Scale from a time measured now to the same time at the reference host speed.

    A shared host runs in bursts up to ~2x faster than in its usual
    loaded state, for seconds to minutes at a time, and the probe's time
    follows that speed: over a minute of ``ksweep_exact`` blocks, block
    throughput scaled by this factor varied by 3% (coefficient of
    variation) where the raw throughput varied by 19%. Only the host's
    speed cancels; a change that speeds up pigouq shows in full.
    """
    return PROBE_REF_S / probe_s


def import_time() -> float:
    """Seconds to import pigouq and its CLI in a fresh interpreter.

    Not scaled by the probe: the import runs in a child process, often on
    the other core, and its time followed the parent's probe less than it
    varied by itself.
    """
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


@dataclass
class Block:
    rate: float  # ops per busy second, raw, kept for the record only
    timings: list  # (op kind, latency in s, host factor) per op


@dataclass
class Tally:
    blocks: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0


def run_block(ops, tally: Tally, probed: bool = False) -> None:
    """Issue the ops in order, timing each; then check their outputs off the
    clock. ``probed`` times the probe before every op and after the last,
    and gives each op the host factor of the two probes around it."""
    outputs, latencies, probes = [], [], []
    clock = time.perf_counter
    for op in ops:
        if probed:
            probes.append(probe())
        t0 = clock()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a failed op is counted, not fatal
            out, error = None, f"raised {exc!r}"
        latencies.append(clock() - t0)
        outputs.append((out, error))
    if probed:
        probes.append(probe())
        factors = [host_factor((a + b) / 2) for a, b in zip(probes, probes[1:])]
    else:
        factors = [1.0] * len(ops)
    busy = sum(latencies)
    tally.busy_s += busy
    tally.blocks.append(Block(len(ops) / busy, list(zip((op.kind for op in ops), latencies, factors))))
    for op, (out, error) in zip(ops, outputs):
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:  # malformed output
                error = f"check raised {exc!r}"
        tally.attempted += 1
        if error:
            tally.failures.append(f"{op.kind}: {error}")


def percentile(samples, pct: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100)[pct - 1]


def latency_by_kind(blocks) -> dict:
    """Median and p90 latency in ms per op class, to see which class moved."""
    by_kind = {}
    for block in blocks:
        for kind, latency, _ in block.timings:
            by_kind.setdefault(kind, []).append(latency * 1e3)
    return {k: {"ops": len(v), "p50": statistics.median(v), "p90": percentile(v, 90)}
            for k, v in sorted(by_kind.items())}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def timing_metrics(blocks, scaled: bool) -> dict:
    """Throughput and latency percentiles over all timed ops, at the
    reference host speed or, with ``scaled`` false, as measured.
    Throughput is the mix's rate if every op took its class's median
    latency (a class is one request kind and size, and every block holds
    the same classes), so that a rare slow op does not move it."""
    by_kind = {}
    for block in blocks:
        for kind, latency, factor in block.timings:
            by_kind.setdefault(kind, []).append(latency * factor if scaled else latency)
    lat_ms = [latency * 1e3 for v in by_kind.values() for latency in v]
    return {
        "ops_per_s": len(lat_ms) / sum(len(v) * statistics.median(v) for v in by_kind.values()),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": percentile(lat_ms, 90),
    }


def untraced(workload, seed: int, seconds: float, smoke: bool):
    """End-to-end metrics at the reference host speed. Blocks are issued
    until ``seconds`` of wall time have passed, output checks included, so
    a run's length does not depend on the host's speed. The set-up imports
    are spread over the run like the ops."""
    rng = random.Random(seed)
    import_time()  # discarded: it may compile bytecode or read cold files
    tally, setup = Tally(), []
    if smoke:
        run_block(workload.warmup(rng), tally, probed=True)
    else:
        run_block(workload.warmup(random.Random(f"warmup-{seed}")), Tally(), probed=True)
        start = time.perf_counter()
        elapsed = 0.0
        while (elapsed < seconds or tally.attempted < MIN_OPS) and elapsed < MAX_WALL_S:
            run_block(workload.block(rng), tally, probed=True)
            elapsed = time.perf_counter() - start
            if len(setup) < SETUP_REPEATS * elapsed / seconds:
                setup.append(import_time())
    while len(setup) < (1 if smoke else SETUP_REPEATS):
        setup.append(import_time())
    metrics = {
        "setup_s": statistics.median(setup),
        **timing_metrics(tally.blocks, scaled=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_failed_frac": len(tally.failures) / tally.attempted,
        # as measured, for the record: the reference speed is PROBE_REF_S
        **{f"raw.{name}": value for name, value in timing_metrics(tally.blocks, scaled=False).items()},
        "raw.probe_ms": 1e3 * PROBE_REF_S / statistics.median(f for b in tally.blocks for _, _, f in b.timings),
    }
    return metrics, tally, None


def traced(workload, seed: int, count: int, smoke: bool):
    """Per-layer metrics from ``count`` blocks, a number fixed per run
    length, so that counts and self times describe the same work on
    every commit."""
    import spans

    rng = random.Random(seed)
    if smoke:
        blocks = [workload.warmup(rng)]
    else:
        blocks = [workload.block(rng) for _ in range(count)]
        run_block(workload.warmup(random.Random(f"warmup-{seed}")), Tally())
    tracer = spans.Tracer()
    tally = Tally()
    with tracer.installed():
        for ops in blocks:
            run_block(ops, tally)
    plain = Tally()
    for ops in blocks:
        run_block(ops, plain)
    overhead = tally.busy_s / plain.busy_s - 1
    tally.attempted += plain.attempted
    tally.failures += plain.failures
    return spans.layer_metrics(tracer.spans, overhead), tally, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="run each workload's warm-up ops once")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_pigouq()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        count = max(1, round(workload.trace_blocks * args.seconds / spec["run_seconds"]))
        metrics, tally, tracer = traced(workload, args.seed, count, args.smoke)
    else:
        metrics, tally, tracer = untraced(workload, args.seed, args.seconds, args.smoke)

    env = environment(args.seed)
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in reported}
    units.setdefault("ops_failed_frac", "fraction")  # printed here; the result JSON carries `failed`
    units.update({f"raw.{name}": unit for name, unit in units.items()})
    units["raw.probe_ms"] = "ms"
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{workload.name}: {tally.attempted} ops, {len(tally.failures)} failed, {tally.busy_s:.3f} s busy")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units.get(name, '')}")
    for failure in tally.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "env": env, "seconds": args.seconds, "smoke": args.smoke,
              "attempted": tally.attempted, "busy_s": tally.busy_s, "metrics": metrics,
              "units": units, "block_rates": [b.rate for b in tally.blocks],
              "latency_ms_by_kind": latency_by_kind(tally.blocks),
              "failures": tally.failures[:50]}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json_obj()), encoding="utf-8")

    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
