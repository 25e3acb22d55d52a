"""Event-driven single-server queue simulator.

Six work-conserving disciplines run on identical sampled streams so
coupled runs are comparable path by path: first-come-first-served,
preemptive last-come-first-served, shortest-remaining-processing-time
(preemptive and non-preemptive), and two-class priority (preemptive and
non-preemptive).

Clock arithmetic inside a busy period uses compensated double-double
sums anchored at exact arrival epochs, so event times agree bitwise
across disciplines whenever the dynamics say they must (the error of a
recorded time is ~2^-105 before the final rounding, far below the
spacing of float64).  Workload at arrival and busy periods come from
the canonical recursion on the shared streams, which makes them
discipline-independent by construction.  A run splits into a stream
stage, memoised on (model, n, seed) so that coupled runs share it, and
one event loop for all six disciplines, each of which is an order on the
waiting jobs plus a preemption rule; FIFO is the arrival-index order,
never preempting.  ``cycle_psi`` solves its cycle equation with SciPy's
log-sum-exp spelled out in NumPy, bitwise the same without its wrapper.

The recursion and the event loop run compiled from ``_kernels.c`` when
a C compiler works here (built on first use into a per-user cache), and
as the Python loops below otherwise; both give bitwise the same arrays.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from types import SimpleNamespace
from typing import Tuple

import numpy as np

from .dist import (_count, _doublings, _fill, _first_passage, _real, _stream_run,
                   _value, find_root, sample_array, stream)
from .ratecalc import NumericalFailure, QueueModel


class Discipline(Enum):
    FIFO = "fifo"
    LIFO_PR = "lifo-pr"
    SRPT_PR = "srpt-pr"
    SRPT_NP = "srpt-np"
    PRIO_PR = "prio-pr"
    PRIO_NP = "prio-np"


# each discipline as (order of the waiting jobs, whether an arrival that
# sorts first displaces the active job); the order codes are those of
# _kernels.c
_FIFO, _LIFO, _SRPT, _PRIO = range(4)
_SERVE = {
    Discipline.FIFO: (_FIFO, False),
    Discipline.LIFO_PR: (_LIFO, True),
    Discipline.SRPT_PR: (_SRPT, True),
    Discipline.SRPT_NP: (_SRPT, False),
    Discipline.PRIO_PR: (_PRIO, True),
    Discipline.PRIO_NP: (_PRIO, False),
}


@dataclass
class SimOutput:
    """Full per-customer arrays (length n); analysis accessors return the
    post-warmup slice.  Busy periods always come from the full stream."""

    discipline: Discipline
    warmup: int
    arrival_time: np.ndarray
    service_time: np.ndarray
    customer_class: np.ndarray
    first_service_start: np.ndarray
    departure_time: np.ndarray
    workload_at_arrival: np.ndarray
    busy_starts: np.ndarray
    busy_durations: np.ndarray

    @property
    def n(self) -> int:
        return len(self.arrival_time)

    @property
    def total_time(self) -> float:
        return float(self.departure_time.max())

    def kept(self) -> slice:
        return slice(self.warmup, self.n)

    def waiting(self) -> np.ndarray:
        k = self.kept()
        return self.first_service_start[k] - self.arrival_time[k]

    def sojourn(self) -> np.ndarray:
        k = self.kept()
        return self.departure_time[k] - self.arrival_time[k]


def lindley_workload(interarrivals, services) -> np.ndarray:
    """Workload found by each arrival: W_1 = 0 and
    W_{k+1} = max(W_k + B_k - A_{k+1}, 0).  Takes any two sequences of
    numbers of equal length."""
    if len(interarrivals) != len(services):
        raise ValueError("sequences must have equal length")
    a = np.ascontiguousarray(interarrivals, dtype=np.float64)
    b = np.ascontiguousarray(services, dtype=np.float64)
    return _loops().lindley(a, b)


def _lindley(a, b):
    a = a.tolist()
    b = b.tolist()
    out = [0.0] if a else []
    append = out.append
    w = 0.0
    for b_k, a_next in zip(b, a[1:]):
        w = w + b_k - a_next
        if w < 0.0:
            w = 0.0
        append(w)
    return np.asarray(out)


def _busy_spans(arrival, service, workload) -> Tuple[np.ndarray, np.ndarray]:
    # group starts where workload hits exactly 0; each span drains at
    # arrival[m] + workload[m] + service[m] for its last member m
    idx = np.flatnonzero(workload == 0.0)
    nxt = np.append(idx[1:], len(workload))
    last = nxt - 1
    end = arrival[last] + (workload[last] + service[last])
    starts = arrival[idx]
    return starts, end - starts


@functools.lru_cache(maxsize=1)
def _streams(model: QueueModel, n: int, seed: int) -> Tuple[np.ndarray, ...]:
    # the discipline-free stage of a run: arrival times, services, class
    # marks, workload at arrival, busy starts and busy durations, read-only
    # so that coupled runs on one (model, n, seed) can share them
    interarrival = sample_array(model.arrival, stream(seed, 0), n)
    arrival = np.cumsum(interarrival)
    if model.split is not None:
        idx = stream(seed, 1).random(n) >= model.split.p
        cls = (idx + 1).astype(np.int8)
        service = _fill(idx, [functools.partial(sample_array, law) for law in
                              (model.split.class1, model.split.class2)], stream(seed, 2))
    else:
        cls = np.zeros(n, dtype=np.int8)
        service = sample_array(model.service, stream(seed, 2), n)
    workload = lindley_workload(interarrival, service)
    arrays = (arrival, service, cls, workload) + _busy_spans(arrival, service, workload)
    for a in arrays:
        a.setflags(write=False)
    return arrays


def run(model: QueueModel, discipline: Discipline, n: int, seed: int,
        warmup_fraction: float = 0.2) -> SimOutput:
    """Simulate n arrivals under one discipline.

    Streams are fixed by the seed alone: substream 0 inter-arrivals,
    substream 1 class marks (split models), substream 2 services (split
    models draw the class-1 block first, then the class-2 block), so
    every discipline consumes identical randomness.  Simultaneous
    completion and arrival resolve completion-first.

    The stream arrays (arrival and service times, class marks, workload
    at arrival, busy starts and durations) are read-only and memoised on
    ``(model, n, seed)`` for the latest key only, so coupled calls on one
    key share the same arrays and sample them once; only the two event
    arrays (first service start, departure) are the discipline's own.
    """
    n = _count("n", n, 1)
    warmup_fraction = _real("warmup_fraction", warmup_fraction)
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must lie in [0, 1)")
    if not isinstance(discipline, Discipline):
        discipline = Discipline(discipline)
    order, preemptive = _SERVE[discipline]
    if order == _PRIO and model.split is None:
        raise ValueError("priority disciplines need a two-class split")

    arrival, service, cls, workload, busy_starts, busy_durations = _streams(
        model, n, seed)
    first, depart = _loops().serve(arrival, service, cls, order, preemptive)
    return SimOutput(
        discipline=discipline, warmup=int(warmup_fraction * n),
        arrival_time=arrival, service_time=service, customer_class=cls,
        first_service_start=first, departure_time=depart,
        workload_at_arrival=workload,
        busy_starts=busy_starts, busy_durations=busy_durations)


# The event loop keeps a completion time as a double-double (ch, cl) and
# spells out its three updates inline, each in one fixed order of
# operations (the identities across disciplines rest on it):
#   start at an exact arrival t with work b:
#       s = t + b; bb = s - t; lo = 0.0 + ((t - (s - bb)) + (b - bb))
#   chain work (rh, rl) on at (ch, cl):
#       s = ch + rh; bb = s - ch; lo = cl + rl + ((ch - (s - bb)) + (rh - bb))
#   then ch = s + lo; cl = lo - (ch - s).  The work left at an arrival t is
#       s = ch - t; bb = s - ch; lo = cl + ((ch - (s - bb)) - (t + bb))
#       rh = s + lo; rl = lo - (rh - s).
# A completion at (ch, cl) comes before an arrival at t exactly when
# ch < t or (ch == t and cl <= 0.0).  ``_serve`` runs over the arrivals
# plus an infinite one that drains the system, and indexes the arrays
# through memoryviews, as fast as lists and with no list to build or
# convert back.


def _serve(arrival, service, cls, order, preemptive):
    # one heap of waiting jobs (key, rl, customer, rh): the key is i under
    # FIFO, -i under LIFO, the work left under SRPT and the class, then the
    # index, under PRIO; the customer breaks ties, so rh is never compared.
    # A preemptive arrival displaces the active job when it sorts first.
    n = len(arrival)
    first, depart = np.full(n, math.nan), np.empty(n)
    f, d, svc = memoryview(first), memoryview(depart), memoryview(service)
    klass = memoryview(cls)
    heap = []
    push, pop = heappush, heappop
    active = -1
    ch = cl = 0.0
    for i, t in enumerate(memoryview(np.append(arrival, math.inf))):
        while active >= 0 and (ch < t or (ch == t and cl <= 0.0)):
            now = ch + cl
            d[active] = now
            if not heap:
                active = -1
                break
            key, rl, active, rh = pop(heap)
            if f[active] != f[active]:
                f[active] = now
            s = ch + rh
            bb = s - ch
            lo = cl + rl + ((ch - (s - bb)) + (rh - bb))
            ch = s + lo
            cl = lo - (ch - s)
        if i == n:
            break
        b = svc[i]
        fresh = (b if order == _SRPT else -i if order == _LIFO else
                 n + i if order == _PRIO and klass[i] != 1 else i, 0.0, i, b)
        if active >= 0:
            if not preemptive:
                push(heap, fresh)
                continue
            s = ch - t
            bb = s - ch
            lo = cl + ((ch - (s - bb)) - (t + bb))
            rh = s + lo
            held = (rh if order == _SRPT else key, lo - (rh - s), active, rh)
            if not fresh < held:
                push(heap, fresh)
                continue
            push(heap, held)
        f[i] = t
        s = t + b
        bb = s - t
        lo = 0.0 + ((t - (s - bb)) + (b - bb))
        ch = s + lo
        cl = lo - (ch - s)
        active, key = i, fresh[0]
    return first, depart


# the reference loops, which run wherever the compiled ones do not build
_PYTHON = SimpleNamespace(lindley=_lindley, serve=_serve)


def _loops():
    # the loader is imported on first use, so that importing simqueue
    # neither compiles nor loads anything
    from . import _kernels
    return _kernels.load() or _PYTHON


def empirical_psi(model: QueueModel, s: float, horizon: float,
                  replications: int, seed: int) -> float:
    """(1/t) log of the replication average of exp(s X(t)), where X(t) is
    the total work arriving in [0, t].  Finite-horizon, finite-sample
    estimate of the input rate function psi.  Its relative variance grows
    like exp(t (psi(2s) - 2 psi(s))), so the plain average is unusable
    (biased low at any feasible replication count) once that exponent is
    large; ``cycle_psi`` stays accurate there."""
    s, horizon = _real("s", s), _real("horizon", horizon)
    terms = []
    for rng, g in _paths(model, horizon, replications, seed):
        work = float(sample_array(model.service, rng, len(g) - 1).sum())
        try:
            terms.append(math.exp(s * work))
        except OverflowError as exc:
            raise NumericalFailure(
                f"exp({s} * {work}) exceeds the representable range") from exc
    mean = math.fsum(terms) / replications
    return math.log(mean) / horizon


def cycle_psi(model: QueueModel, s: float, horizon: float,
              replications: int, seed: int) -> float:
    """Regenerative estimate of psi(s) from the arrival cycles of the same
    paths ``empirical_psi`` draws: the root theta of
    log sum_i exp(s B_i - theta A_i) = log n, the empirical form of
    Phi_A(-theta) Phi_B(s) = 1, pooled over replications.

    Each replication contributes the inter-arrival gaps A_i and services
    B_i of its first N(t) + 1 cycles, the last one straddling the
    horizon; N(t) + 1 is a stopping time, so keeping that cycle avoids
    the inspection-paradox bias of stopping at N(t).  Unlike the plain
    average of exp(s X(t)) this stays accurate at long horizons (Duffy
    and Metcalfe, J. Appl. Probab. 42, 2005)."""
    s, horizon = _real("s", s), _real("horizon", horizon)
    paths = _paths(model, horizon, replications, seed)
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0.0:
        return 0.0
    gaps, services = [], []
    for rng, g in paths:
        gaps.append(g)
        services.append(sample_array(model.service, rng, len(g)))
    args = (s * np.concatenate(services), np.concatenate(gaps))
    theta = find_root(_cycle_excess, args, 0.0, _value(0.0, _cycle_excess, *args),
                      _doublings())
    if theta is None:
        raise NumericalFailure("no finite root bracket for the cycle equation")
    return theta


def _cycle_excess(theta: float, sb: np.ndarray, a: np.ndarray) -> float:
    # log n - log sum_i exp(s B_i - theta A_i): rises through zero at the
    # root.  SciPy 1.17's log-sum-exp without its array-API wrapper: the
    # maximal terms apart, and the plain log of the sum if not finite.  One
    # array is made, and shifted and exponentiated in place.
    e = np.multiply(a, theta)
    np.subtract(sb, e, out=e)
    with np.errstate(divide="ignore", invalid="ignore"):
        top = e.max(keepdims=True)
        at_top = e == top
        np.exp(np.subtract(e, top, out=e), out=e)
        e[at_top] = 0.0
        m = at_top.sum(keepdims=True, dtype=np.float64)
        s = e.sum(keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = float((np.log1p(s) + np.log(m) + top)[0])
        if not math.isfinite(out):
            out = float(np.log(np.exp(sb - theta * a).sum()))
    return math.log(len(a)) - out


def _paths(model, horizon, replications, seed):
    # each replication's stream with its inter-arrival gaps through the
    # first arrival after the horizon, drawn lazily and in fixed chunks so
    # the draw sequence is a function of the replication stream alone; the
    # caller draws its services on from it before it takes the next one
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    replications = _count("replications", replications, 1)
    draw = functools.partial(sample_array, model.arrival)
    return ((rng, _first_passage(draw, rng, horizon, 1024)[0])
            for rng in _stream_run(seed, replications))


def service_bins(out: SimOutput, width: float):
    """Post-warmup records grouped by service-time bin of the given width;
    returns a list of (lo, hi, index-array into the post-warmup slice)."""
    width = _real("width", width)
    if not 0 < width < math.inf:
        raise ValueError("width must be positive and finite")
    svc = out.service_time[out.kept()]
    which = np.floor(svc / width)
    if which.size and not which.max() < 2.0 ** 53:
        raise ValueError(f"width {width} is too small: a bin index past 2**53 "
                         "cannot be held exactly")
    which = which.astype(np.int64)
    bins = []
    for j in np.unique(which):
        sel = np.flatnonzero(which == j)
        bins.append((float(j * width), float((j + 1) * width), sel))
    return bins


def write_records_csv(out: SimOutput, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["index", "arrival", "service", "class",
                     "first_service", "departure", "workload_at_arrival"])
    k = out.kept()
    cols = (out.arrival_time[k], out.service_time[k], out.customer_class[k],
            out.first_service_start[k], out.departure_time[k],
            out.workload_at_arrival[k])
    for row in zip(range(out.warmup, out.n), *cols):
        writer.writerow([row[0], repr(float(row[1])), repr(float(row[2])),
                         int(row[3]), repr(float(row[4])),
                         repr(float(row[5])), repr(float(row[6]))])

