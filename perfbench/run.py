"""Benchmark for framescale: one closed-loop caller, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload decide-large --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the calls into
each layer are wrapped and timed, the spans are written to
``perfbench/out/`` and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Read by OpenBLAS and glibc when the interpreter starts, so ``main``
# re-executes itself once with them set.  One BLAS thread: a second one on
# a two-core machine made the dense LP timings jump between runs.  Fixed
# malloc thresholds: with glibc's adaptive ones, the tableau-sized
# temporaries of each simplex pivot either stay on the heap or are
# page-faulted in on every pivot, depending on heap state, and the same
# 10 x 60 decide took 0.23 s in one process and 0.55 s in another.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(64 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("decide-large", "index-search", "analyze-exact")


@dataclass
class Record:
    op: object
    out: object       # the digested output, None when the call raised
    err: str | None   # exception or failed check
    dt: float         # wall time of the call


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_phase(wl, state, seconds: float):
    """Whole rounds, one call after the other, until ``seconds`` passed."""
    raw = []
    start = perf_counter()
    r = 0
    while perf_counter() - start < seconds:
        for op in wl.round_ops(state, r):
            t0 = perf_counter()
            try:
                out, err = wl.call(op), None
            except Exception as e:  # a failed operation is data, not a crash
                out, err = None, f"{type(e).__name__}: {e}"
            raw.append((op, out, err, perf_counter() - t0))
        r += 1
    return raw, perf_counter() - start, r


def checked(wl, raw) -> list:
    records = []
    for op, out, err, dt in raw:
        if err is None:
            out = wl.digest(out)
            problem = wl.check(op, out)
            if problem:
                err = f"check failed: {problem}"
        records.append(Record(op, out, err, dt))
    return records


def main(argv=None) -> int:
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    if not (SRC / "framescale" / "__init__.py").is_file():
        print(f"error: no framescale sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    import framescale  # noqa: F401
    import framescale.cli  # noqa: F401
    import_s = perf_counter() - t0

    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]

    outdir = HERE / "out"
    workdir = outdir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(wl.setup_reps):
            t0 = perf_counter()
            state = wl.prepare(args.seed, str(workdir))
            setups.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)
        gc.collect()
        gc.freeze()

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            raw, wall, rounds = timed_phase(wl, state, args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        records = checked(wl, raw)
        final = wl.final_checks(state, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [rec for rec in records if rec.out is not None]
    raised = [rec for rec in records if rec.out is None]
    wrong = [rec for rec in done if rec.err]
    calls_per_s = len(done) / wall

    n_scalable = sum(1 for rec in done if wl.scalable(rec.out))
    print(f"workload {wl.name}, seed {args.seed}: {rounds} rounds, "
          f"{len(records)} calls in {wall:.2f} s; completed calls decided "
          f"scalable {n_scalable}, not scalable {len(done) - n_scalable}")
    if state.get("replaced"):
        print(f"set-up replaced {state['replaced']} draws on which the "
              "program raised")
    for (label, err), count in Counter(
            (rec.op.label, rec.err) for rec in raised + wrong).items():
        print(f"failed {count}x: {label}: {err}")
    for problem in final:
        print(f"failed check: {problem}")

    if tracer is None:
        def p50_ms(scalable: bool) -> float:
            times = [rec.dt for rec in done if wl.scalable(rec.out) == scalable]
            return 1000.0 * statistics.median(times) if times else 0.0

        metrics = {
            "setup_s": (setup_s, "s"),
            "calls_per_s": (calls_per_s, "1/s"),
            "scalable_p50_ms": (p50_ms(True), "ms"),
            "nonscalable_p50_ms": (p50_ms(False), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(len(records))
        metrics["traced.calls_per_s"] = (calls_per_s, "1/s")
        path = outdir / f"trace-{wl.name}-{args.seed}.json"
        tracer.write(path)
        print(f"spans: {len(tracer.start)} written to {path}")

    result = {
        "correct": not wrong and not final,
        "attempted": len(records),
        "failed": len(raised) + len(wrong),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
