"""Spans and counts around the calls into queuedecay's layers.

``Tracer.install`` replaces a fixed set of public functions (and the two
private mgf kernels every evaluation passes through) with wrappers, in
every queuedecay module that holds them; ``uninstall`` puts the
originals back.  The program's code is not edited.  A span is
``(round, name, start, end, parent, detail, counts)``, where ``counts``
is what the counters advanced by inside it.  Spans stay in memory until
``write`` saves them; ``layer_metrics`` derives each round's per-layer
figures from them.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

COUNTERS = ("dist._mgf", "dist._mgf_deriv", "ratecalc.psi",
            "ratecalc.gamma_p_trunc")
MODULES = ("", ".dist", ".ratecalc", ".simqueue", ".tailest", ".validate",
           ".cli")


def _run_detail(args, kwargs):
    discipline = kwargs.get("discipline", args[1] if len(args) > 1 else None)
    n = kwargs.get("n", args[2] if len(args) > 2 else 0)
    return (getattr(discipline, "value", discipline), n)


def _sample_detail(args, kwargs):
    return kwargs.get("n", args[2] if len(args) > 2 else 0)


def _fit_detail(args, kwargs):
    return kwargs.get("bootstrap", args[4] if len(args) > 4 else 0)


SPANS = {
    "dist.sample_array": _sample_detail,
    "ratecalc.decay_report": None,
    "ratecalc.y_star": None,
    "simqueue.run": _run_detail,
    "simqueue.lindley_workload": None,
    "simqueue.cycle_psi": None,
    "tailest.fit_decay": _fit_detail,
    "tailest.is_workload_tail": None,
}


class Tracer:
    def __init__(self, qd):
        self.modules = [sys.modules[qd.__name__ + m] for m in MODULES
                        if qd.__name__ + m in sys.modules]
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.round = -1
        self.round_counts = {}
        self._before = ()
        self._stack = []
        self._patched = []
        self._wrappers = {}
        for name in COUNTERS:
            mod, attr = name.split(".")
            self._wrappers[name] = self._counter(name, self._original(qd, mod, attr))
        for name, detail in SPANS.items():
            mod, attr = name.split(".")
            self._wrappers[name] = self._span(name, self._original(qd, mod, attr),
                                              detail)

    @staticmethod
    def _original(qd, mod, attr):
        return getattr(getattr(qd, mod), attr)

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        counted.original = fn
        return counted

    def _span(self, name, fn, detail):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            before = tuple(counts.values())
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                delta = tuple(a - b for a, b in zip(counts.values(), before))
                spans[index] = (self.round, name, start, end, parent,
                                detail(args, kwargs) if detail else None, delta)
        traced.original = fn
        return traced

    def install(self, round_index: int):
        """Wrap every module's binding of the traced functions."""
        self.round = round_index
        self._before = tuple(self.counts.values())
        for name, wrapper in self._wrappers.items():
            attr = name.split(".")[1]
            for mod in self.modules:
                if getattr(mod, attr, None) is wrapper.original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, wrapper.original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self.round_counts[self.round] = dict(zip(
            COUNTERS, (a - b for a, b in zip(self.counts.values(), self._before))))

    def write(self, path: str):
        """One line per span: round, index, name, start, end, parent, detail."""
        with open(path, "w") as fh:
            fh.write("round,index,name,start_s,end_s,parent,detail\n")
            for index, (rnd, name, start, end, parent, detail, _) in enumerate(self.spans):
                if isinstance(detail, tuple):
                    detail = ":".join(map(str, detail))
                fh.write(f"{rnd},{index},{name},{start:.9f},{end:.9f},{parent},"
                         f"{'' if detail is None else detail}\n")

    def layer_metrics(self) -> dict:
        """Each per-layer figure as the low median over the traced rounds,
        so that a count stays a whole number."""
        rounds = {}
        for index, span in enumerate(self.spans):
            rounds.setdefault(span[0], []).append(index)
        per_round = [_round_metrics(self.spans, indices, self.round_counts[r])
                     for r, indices in sorted(rounds.items())]
        return {name: statistics.median_low(m[name] for m in per_round)
                for name, _ in PER_LAYER if name != "trace.overhead_pct"}


PER_LAYER = (
    ("dist.mgf_evals", "count"), ("dist.mgf_deriv_evals", "count"),
    ("dist.draws", "count"), ("dist.sample_s", "s"),
    ("ratecalc.decay_report_s", "s"), ("ratecalc.decay_report_p50_ms", "ms"),
    ("ratecalc.decay_report_mgf_evals", "count"), ("ratecalc.psi_calls", "count"),
    ("ratecalc.y_star_s", "s"), ("ratecalc.y_star_p50_ms", "ms"),
    ("ratecalc.y_star_mgf_evals", "count"), ("ratecalc.y_star_trunc_calls", "count"),
    ("simqueue.run_s", "s"), ("simqueue.lindley_s", "s"), ("simqueue.run_self_s", "s"),
    ("simqueue.fifo.customers_per_s", "customers/s"),
    ("simqueue.lifo_pr.customers_per_s", "customers/s"),
    ("simqueue.srpt_pr.customers_per_s", "customers/s"),
    ("simqueue.srpt_np.customers_per_s", "customers/s"),
    ("simqueue.prio_pr.customers_per_s", "customers/s"),
    ("simqueue.prio_np.customers_per_s", "customers/s"),
    ("simqueue.cycle_psi_s", "s"),
    ("tailest.fit_decay_s", "s"), ("tailest.bootstrap_s", "s"),
    ("tailest.is_workload_tail_s", "s"),
    ("trace.overhead_pct", "%"),
)
"""Every per-layer metric with its unit.  Counts and seconds are per
round; the mgf and trunc figures of decay_report and y_star are per
call; a function the workload never calls reads 0."""


def _round_metrics(spans, indices, counts) -> dict:
    by_name = {}
    for i in indices:
        by_name.setdefault(spans[i][1], []).append(i)

    def dur(i):
        return spans[i][3] - spans[i][2]

    def parent_is(i, name):
        return spans[i][4] >= 0 and spans[spans[i][4]][1] == name

    def total(name, keep=lambda i: True):
        return math.fsum(dur(i) for i in by_name.get(name, ()) if keep(i))

    def per_call(name, counter):
        calls = by_name.get(name, ())
        k = COUNTERS.index(counter)
        return sum(spans[i][6][k] for i in calls) / len(calls) if calls else 0.0

    def p50_ms(name):
        calls = by_name.get(name, ())
        return statistics.median(dur(i) for i in calls) * 1e3 if calls else 0.0

    # a mixture draws its components through nested calls: count the outer one
    draws = [i for i in by_name.get("dist.sample_array", ())
             if not parent_is(i, "dist.sample_array")]
    runs = by_name.get("simqueue.run", ())
    children = {}
    for i in indices:
        if parent_is(i, "simqueue.run"):
            children[spans[i][4]] = children.get(spans[i][4], 0.0) + dur(i)
    out = {
        "dist.mgf_evals": counts["dist._mgf"],
        "dist.mgf_deriv_evals": counts["dist._mgf_deriv"],
        "dist.draws": sum(spans[i][5] for i in draws),
        "dist.sample_s": math.fsum(dur(i) for i in draws),
        "ratecalc.decay_report_s": total("ratecalc.decay_report"),
        "ratecalc.decay_report_p50_ms": p50_ms("ratecalc.decay_report"),
        "ratecalc.decay_report_mgf_evals": per_call("ratecalc.decay_report", "dist._mgf"),
        "ratecalc.psi_calls": counts["ratecalc.psi"],
        "ratecalc.y_star_s": total("ratecalc.y_star"),
        "ratecalc.y_star_p50_ms": p50_ms("ratecalc.y_star"),
        "ratecalc.y_star_mgf_evals": per_call("ratecalc.y_star", "dist._mgf"),
        "ratecalc.y_star_trunc_calls": per_call("ratecalc.y_star",
                                                "ratecalc.gamma_p_trunc"),
        "simqueue.run_s": total("simqueue.run"),
        "simqueue.lindley_s": total("simqueue.lindley_workload"),
        "simqueue.run_self_s": math.fsum(dur(i) - children.get(i, 0.0) for i in runs),
        "simqueue.cycle_psi_s": total("simqueue.cycle_psi"),
        "tailest.fit_decay_s": total("tailest.fit_decay", lambda i: not spans[i][5]),
        "tailest.bootstrap_s": total("tailest.fit_decay", lambda i: bool(spans[i][5])),
        "tailest.is_workload_tail_s": total("tailest.is_workload_tail"),
    }
    for d in ("fifo", "lifo-pr", "srpt-pr", "srpt-np", "prio-pr", "prio-np"):
        mine = [i for i in runs if spans[i][5][0] == d]
        secs = sum(dur(i) for i in mine)
        out[f"simqueue.{d.replace('-', '_')}.customers_per_s"] = (
            sum(spans[i][5][1] for i in mine) / secs if secs > 0 else 0.0)
    return out
