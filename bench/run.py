"""mbweibull benchmark command.

    python3 bench/run.py --workload {study,vannman,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Inputs are built from ``--seed`` only. The command times batches of the
workload until ``--seconds`` is spent (at least one batch), checks every
output, prints a human-readable report and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the ``end_to_end`` list of
BENCHMARK.json, measured with nothing wrapped and normalised by the
reference kernel of ``clock.py``. With ``--trace 1`` the package
functions listed in ``tracing.TRACED`` record spans, the spans are written
to ``.bench_out/spans-<workload>-<seed>.jsonl``, and the metrics are the
``per_layer`` list, computed from that file by ``summarize.py``. A failed
check makes the command exit with 1.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from clock import REF_SECONDS, Clock, normalised_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
PROBE_REPEATS = 7

# a cold start: a fresh interpreter imports the package and builds the
# workload's inputs, as one ``mbw`` invocation would
_SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), sys.argv[5])"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["study", "vannman", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def host_info() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(name, seed, clock) -> list:
    """(wall s, reference s) of each cold start."""
    samples = []
    for _ in range(SETUP_REPEATS):
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            argv = [sys.executable, "-c", _SETUP_CODE, str(BENCH), str(SRC), name, str(seed), workdir]
            _, dt, ref = clock.time(subprocess.run, argv, check=True, cwd=ROOT)
            samples.append((dt, ref))
    return samples


def measure(wl, seconds, clock, tracer=None) -> list:
    """Run batches while half of one more still fits in ``seconds``, so
    that a run lasts about ``seconds`` whatever the batch length."""
    batches = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        index = len(batches)
        scope = tracer.span("bench.batch", index=index) if tracer else contextlib.nullcontext()
        with scope:
            batches.append(wl.batch(index, clock))
        now = time.perf_counter()
        if (now - start) + (now - t0) / 2 > seconds:
            return batches


def trace_overhead(wl, tracer, clock) -> float:
    """Traced over untraced median normalised time of the workload's probe
    op, minus 1. The probe's spans are dropped."""
    op = wl.probe()
    plain, traced = [], []
    for _ in range(PROBE_REPEATS):
        _, dt, ref = clock.time(op)
        plain.append(normalised_seconds(dt, ref))
        tracer.install()
        try:
            _, dt, ref = clock.time(op)
            traced.append(normalised_seconds(dt, ref))
        finally:
            tracer.uninstall()
    tracer.spans.clear()
    return statistics.median(traced) / statistics.median(plain) - 1.0


def _q(values, q):
    return float(np.percentile(values, q)) if values else None


def samples(batches, setup) -> dict:
    """Raw and normalised samples: name -> (raw list, normalised list)."""
    latency = [s for b in batches for s in b.latency_ms]
    throughput = [s for b in batches for s in b.throughput]
    return {
        "setup": ([dt for dt, _ in setup], [normalised_seconds(dt, ref) for dt, ref in setup]),
        "latency": ([ms for ms, _ in latency], [normalised_seconds(ms, ref) for ms, ref in latency]),
        "throughput": (
            [r for r, _ in throughput],
            [r / normalised_seconds(1.0, ref) for r, ref in throughput],
        ),
    }


def end_to_end(s) -> dict:
    return {
        "setup_s": statistics.median(s["setup"][1]),
        "op_ms_p50": _q(s["latency"][1], 50),
        "throughput_per_s": _q(s["throughput"][1], 50),
    }


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_end_to_end(wl, s, failed, attempted):
    lat, lat_what = wl.latency
    thr, thr_what = wl.throughput
    rows = [
        ("setup_s", "setup", 50, "s", "median of cold starts: interpreter, import, inputs"),
        (f"{lat}_p50", "latency", 50, "ms", lat_what),
        (f"{lat}_p90", "latency", 90, "ms", ""),
        (thr, "throughput", 50, "1/s", f"median; {thr_what}"),
    ]
    print(f"{'metric':<26}{'normalised':>13}{'raw':>13}  {'unit':<5} samples")
    for name, key, q, unit, note in rows:
        raw, norm = s[key]
        print(f"{name:<26}{_fmt(_q(norm, q)):>13}{_fmt(_q(raw, q)):>13}  {unit:<5} "
              f"n={len(raw)} {note}")
    print(f"{'failed_ratio':<26}{_fmt(failed / attempted):>13}{'':>13}  {'ratio':<5} "
          f"{failed} of {attempted} {wl.ops}")
    print(f"# JSON: op_ms_p50 and throughput_per_s are the normalised {lat}_p50 and {thr}; "
          f"normalised = as if the reference kernel took {REF_SECONDS * 1e3:g} ms")


def main(argv=None) -> int:
    args = parse_args(argv)
    init = SRC / "mbweibull" / "__init__.py"
    if not init.is_file():
        print(f"error: {init} not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import summarize
    import tracing
    import workloads

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    OUT.mkdir(exist_ok=True)
    print(f"# mbweibull benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# host: " + ", ".join(f"{k}={v}" for k, v in host_info().items()))

    clock = Clock()
    setup = measure_setup(args.workload, args.seed, clock)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    tracer = tracing.Tracer() if args.trace else None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        overhead = trace_overhead(wl, tracer, clock) if tracer else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            batches = measure(wl, args.seconds, clock, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    errors = [e for b in batches for e in b.errors]
    print(f"# {len(batches)} batches in {elapsed:.1f} s; {attempted} operations "
          f"attempted, {failed} failed; reference kernel median "
          f"{statistics.median(clock.kernel_seconds) * 1e3:.3f} ms over {len(clock.kernel_seconds)} runs")
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    if tracer:
        path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        tracer.spans.clear()
        spans = summarize.load(path)
        print(f"# spans: {len(spans.names)} written to {path.relative_to(ROOT)}; "
              f"trace overhead on the probe op: {overhead:+.1%}")
        values = summarize.print_report(spans)
        wanted = spec["per_layer"]
    else:
        s = samples(batches, setup)
        print_end_to_end(wl, s, failed, attempted)
        values = end_to_end(s)
        wanted = spec["end_to_end"]

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
