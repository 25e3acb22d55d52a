"""Benchmark command for queuedecay.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; queuedecay is imported from ``src/``.  The
command times ``setup_s`` (import of queuedecay plus building the
workload's inputs, repeated and reported as a median), then runs whole
rounds of the workload's operations in one closed loop until ``--seconds``
of rounds have been timed, checks every round's outputs, and prints each
metric with its unit.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced rounds, reports the per-layer metrics of the traced
rounds and the tracing overhead, and writes the spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUPS = 3          # set-ups before the first round; one more precedes
                    # each later plain round, and setup_s is their median
MIN_ROUNDS = 3      # rounds per run at least, whatever --seconds says


def fresh_import():
    """Import queuedecay from ``src/`` anew: its modules are dropped from
    ``sys.modules`` first, numpy's and scipy's stay loaded."""
    for name in [m for m in sys.modules if m == "queuedecay"
                 or m.startswith("queuedecay.")]:
        del sys.modules[name]
    qd = importlib.import_module("queuedecay")
    if not os.path.abspath(qd.__file__).startswith(SRC + os.sep):
        raise ImportError(f"queuedecay came from {qd.__file__}, not from {SRC}")
    return qd


def setup(workload_cls, seed: int, times: list):
    """Import queuedecay anew and build the workload; the time it took
    goes to ``times``."""
    start = time.perf_counter()
    qd = fresh_import()
    workload = workload_cls(qd, seed)
    times.append(time.perf_counter() - start)
    return qd, workload


def round_seconds(rounds) -> float:
    """A round's wall time as the sum over its operations of each one's
    median time across ``rounds``, so a burst of load on the machine that
    hits part of one round moves neither figure."""
    return math.fsum(statistics.median(r[op] for r in rounds) for op in rounds[0])


def measure(workload, seconds: float, tracer=None, rebuild=None):
    """Timed rounds until ``seconds`` of them are done; with a tracer,
    odd rounds are traced and even ones plain.  ``rebuild``, if given,
    sets the workload up anew before each round after the first, so that
    the set-up times spread over the run.  Returns the operation times of
    the plain and of the traced rounds, the counts of operations
    attempted and failed, and the reason of each failed check."""
    plain, traced = [], []
    attempted = failed = 0
    wrong_all = {}
    shown = set()
    spent = 0.0
    k = 0
    while (k < MIN_ROUNDS or spent < seconds
           or (tracer is not None and len(traced) < 2)):
        if rebuild is not None and k > 0:
            workload = rebuild()
        on = tracer is not None and k % 2 == 1
        if on:
            tracer.install(k)
        start = time.perf_counter()
        try:
            out, op_seconds = workload.run_round()
        finally:
            spent += time.perf_counter() - start
            if on:
                tracer.uninstall()
        (traced if on else plain).append(op_seconds)
        raised, wrong = workload.check(out)
        for op in sorted(raised - shown):
            shown.add(op)
            print(f"operation raised: {op}: {out.get(op, 'skipped')!r}")
        del out
        # free cyclic garbage from the round, so that peak_rss_mb is the
        # peak of one round, not a figure that grows with the round count
        gc.collect()
        attempted += len(workload.ops)
        failed += len(raised | wrong.keys())
        for op, reason in wrong.items():
            wrong_all.setdefault(op, reason)
        k += 1
    return plain, traced, attempted, failed, wrong_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import numpy  # noqa: F401  third-party imports stay outside setup_s
    import scipy  # noqa: F401
    workload_cls = workloads.WORKLOADS[args.workload]
    setup_times = []
    try:
        for _ in range(SETUPS):
            qd, workload = setup(workload_cls, args.seed, setup_times)
    except ImportError as exc:
        print(f"error: cannot import queuedecay: {exc}", file=sys.stderr)
        return 2

    tracer = rebuild = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(qd)
    else:
        def rebuild():
            return setup(workload_cls, args.seed, setup_times)[1]
    plain, traced, attempted, failed, wrong = measure(
        workload, args.seconds, tracer, rebuild)
    for op, reason in sorted(wrong.items()):
        print(f"check failed: {op}: {reason}")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput": (workload.items / round_seconds(plain), "items/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        units = dict(tracing.PER_LAYER)
        values = tracer.layer_metrics()
        values["trace.overhead_pct"] = 100.0 * (
            round_seconds(traced) / round_seconds(plain) - 1.0)
        metrics = {name: (values[name], units[name]) for name, _ in tracing.PER_LAYER}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.csv")
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path)}")

    rounds = len(plain) + len(traced)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of "
          f"{workload.items} items, {len(workload.ops)} operations each")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
