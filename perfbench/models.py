"""Seeded queue models for the ``rates-sweep`` workload.

Laws are plain tuples, so the benchmark knows each model's mean, load,
support end and endpoint atom without asking queuedecay:

    ("exp", rate)            ("det", value)         ("uni", lo, hi)
    ("erl", shape, rate)     ("cond", shape, rate, cutoff)
    ("mix", ((weight, law), ...))

``cond`` is an Erlang law conditioned below its cutoff (queuedecay's
``ConditionedBelow``).  ``to_spec`` turns a law into a queuedecay
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.special import gammainc

YSTAR_GRID = tuple(round(0.05 * k, 12) for k in range(1, 20))
"""The ``ystar-curve`` command's default load grid, 0.05:0.95:0.05."""


def mean(law) -> float:
    kind = law[0]
    if kind == "exp":
        return 1.0 / law[1]
    if kind == "det":
        return law[1]
    if kind == "uni":
        return 0.5 * (law[1] + law[2])
    if kind == "erl":
        return law[1] / law[2]
    if kind == "cond":
        k, rate, c = law[1:]
        return float(k / rate * gammainc(k + 1, rate * c) / gammainc(k, rate * c))
    return math.fsum(w * mean(part) for w, part in law[1])


def ess_sup(law) -> float:
    """End of the support."""
    kind = law[0]
    if kind in ("exp", "erl"):
        return math.inf
    if kind in ("det", "uni"):
        return law[-1]
    if kind == "cond":
        return law[3]
    return max(ess_sup(part) for _, part in law[1])


def ess_inf(law) -> float:
    """Start of the support."""
    kind = law[0]
    if kind in ("det", "uni"):
        return law[1]
    if kind == "mix":
        return min(ess_inf(part) for _, part in law[1])
    return 0.0


def atom(law, x: float) -> float:
    if law[0] == "det":
        return 1.0 if law[1] == x else 0.0
    if law[0] == "mix":
        return math.fsum(w * atom(part, x) for w, part in law[1])
    return 0.0


def endpoint_atom(law) -> float:
    """q, the mass at the end of the support (0 for unbounded laws)."""
    end = ess_sup(law)
    return 0.0 if math.isinf(end) else atom(law, end)


def scale(law, f: float):
    """The law of f X."""
    kind = law[0]
    if kind == "exp":
        return ("exp", law[1] / f)
    if kind == "det":
        return ("det", law[1] * f)
    if kind == "uni":
        return ("uni", law[1] * f, law[2] * f)
    if kind == "erl":
        return ("erl", law[1], law[2] / f)
    if kind == "cond":
        return ("cond", law[1], law[2] / f, law[3] * f)
    return ("mix", tuple((w, scale(part, f)) for w, part in law[1]))


def with_mean(law, m: float):
    return scale(law, m / mean(law))


def to_spec(qd, law):
    """The queuedecay distribution of a law, built from package ``qd``."""
    kind = law[0]
    if kind == "exp":
        return qd.Exponential(law[1])
    if kind == "det":
        return qd.Deterministic(law[1])
    if kind == "uni":
        return qd.UniformInterval(law[1], law[2])
    if kind == "erl":
        return qd.Erlang(law[1], law[2])
    if kind == "cond":
        base = qd.Exponential(law[2]) if law[1] == 1 else qd.Erlang(law[1], law[2])
        return qd.ConditionedBelow(base, law[3])
    return qd.FiniteMixture(tuple((w, to_spec(qd, part)) for w, part in law[1]))


@dataclass(frozen=True)
class ModelCase:
    """One generated model with what the benchmark knows about it."""
    kind: str                   # mm1, md1, atom, qsweep, gi, split
    arrival: tuple
    service: Optional[tuple]    # None for splits
    split: Optional[Tuple[float, tuple, tuple]] = None
    # reference inputs: (lam, mu) for mm1, (lam, d) for md1,
    # (lam, q, lo, hi, x_b) for atom, (q,) for qsweep
    params: Tuple[float, ...] = ()
    sweep: int = -1             # q-sweep index, -1 outside a sweep

    @property
    def service_law(self):
        if self.split is None:
            return self.service
        p, c1, c2 = self.split
        return ("mix", ((p, c1), (1.0 - p, c2)))

    @property
    def rho(self) -> float:
        return mean(self.service_law) / mean(self.arrival)

    @property
    def q(self) -> float:
        return endpoint_atom(self.service_law)

    def to_model(self, qd):
        arrival = to_spec(qd, self.arrival)
        if self.split is None:
            return qd.QueueModel(arrival, to_spec(qd, self.service))
        p, c1, c2 = self.split
        return qd.QueueModel(arrival, split=qd.Split(
            p, to_spec(qd, c1), to_spec(qd, c2)))


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _arrival(rng):
    """A unit-mean inter-arrival law; Poisson in a third of the draws."""
    pick = int(rng.integers(0, 6))
    if pick <= 1:
        law = ("exp", 1.0)
    elif pick == 2:
        law = ("erl", int(rng.integers(2, 5)), 1.0)
    elif pick == 3:
        law = ("uni", 0.0, _u(rng, 0.5, 2.0))
    elif pick == 4:
        law = ("det", 1.0)
    else:
        w = _u(rng, 0.2, 0.8)
        law = ("mix", ((w, ("exp", _u(rng, 0.3, 1.0))),
                       (1.0 - w, ("exp", _u(rng, 1.0, 4.0)))))
    return with_mean(law, 1.0)


def _body(rng):
    """A unit-mean service law of any of the six variants."""
    pick = int(rng.integers(0, 7))
    if pick == 0:
        law = ("exp", 1.0)
    elif pick == 1:
        law = ("erl", int(rng.integers(2, 7)), 1.0)
    elif pick == 2:
        law = ("uni", _u(rng, 0.0, 0.8), _u(rng, 1.2, 2.5))
    elif pick == 3:
        law = ("det", 1.0)
    elif pick == 4:
        law = ("cond", int(rng.integers(1, 4)), 1.0, _u(rng, 1.0, 4.0))
    elif pick == 5:
        # endpoint atom on a law that reaches its cutoff
        k = int(rng.integers(1, 4))
        c = _u(rng, 1.0, 3.0)
        q = _u(rng, 0.05, 0.9)
        law = ("mix", ((1.0 - q, ("cond", k, 1.0, c)), (q, ("det", c))))
    else:
        # an atom that is not at the endpoint: q = 0
        q = _u(rng, 0.1, 0.6)
        law = ("mix", ((1.0 - q, ("exp", 1.0)), (q, ("det", _u(rng, 0.5, 2.0)))))
    return with_mean(law, 1.0)


def _stable(arrival, service) -> bool:
    # the program refuses a model whose service never exceeds a gap, and
    # fails on one whose service barely does (see FOUND in CHANGES.md)
    return ess_sup(service) > 1.5 * ess_inf(arrival)


def rates_models(seed: int, count: int):
    """``count`` models for decay_report, seeded; loads in [0.3, 0.95].

    Each cycle of ten draws gives an M/M/1 model, an M/D/1 model, Poisson
    arrivals with an atom at the end of a uniform law, a six-point q sweep
    over a conditioned Erlang law at fixed load, three GI/GI models over
    the whole algebra and three two-class splits.
    """
    rng = np.random.default_rng(seed)
    cases = []
    sweeps = 0
    step = 0
    while len(cases) < count:
        family = (0, 1, 2, 3, 4, 4, 4, 5, 5, 5)[step % 10]
        step += 1
        rho = _u(rng, 0.3, 0.95)
        if family == 0:
            mu = _u(rng, 0.5, 2.0)
            lam = rho * mu
            cases.append(ModelCase("mm1", ("exp", lam), ("exp", mu),
                                   params=(lam, mu)))
        elif family == 1:
            lam = _u(rng, 0.5, 2.0)
            d = rho / lam
            cases.append(ModelCase("md1", ("exp", lam), ("det", d),
                                   params=(lam, d)))
        elif family == 2:
            q = _u(rng, 0.05, 0.95)
            lo = _u(rng, 0.0, 0.4)
            hi = _u(rng, lo + 0.1, 0.9)
            service = ("mix", ((1.0 - q, ("uni", lo, hi)), (q, ("det", 1.0))))
            lam = rho / mean(service)
            cases.append(ModelCase("atom", ("exp", lam), service,
                                   params=(lam, q, lo, hi, 1.0)))
        elif family == 3:
            # Poisson arrivals at a load held fixed along the sweep
            k = int(rng.integers(1, 4))
            body = ("cond", k, k / _u(rng, 0.3, 1.5), 1.0)
            for j in range(6):
                q = round(0.2 * j, 1)
                if q == 0.0:
                    service = body
                elif q == 1.0:
                    service = ("det", 1.0)
                else:
                    service = ("mix", ((1.0 - q, body), (q, ("det", 1.0))))
                cases.append(ModelCase("qsweep", ("exp", rho / mean(service)),
                                       service, params=(q,), sweep=sweeps))
            sweeps += 1
        elif family == 4:
            arrival = _arrival(rng)
            service = with_mean(_body(rng), rho)
            if _stable(arrival, service):
                cases.append(ModelCase("gi", arrival, service))
            else:
                cases.append(ModelCase("gi", arrival, with_mean(("exp", 1.0), rho)))
        else:
            arrival = _arrival(rng)
            p = _u(rng, 0.15, 0.85)
            m1 = _u(rng, 0.1, 1.0)
            m2 = _u(rng, 0.1, 1.0)
            f = rho / (p * m1 + (1.0 - p) * m2)
            c1 = with_mean(_body(rng), m1 * f)
            c2 = with_mean(_body(rng), m2 * f)
            if _stable(arrival, ("mix", ((p, c1), (1.0 - p, c2)))):
                cases.append(ModelCase("split", arrival, None, split=(p, c1, c2)))
            else:
                cases.append(ModelCase("split", ("exp", 1.0), None,
                                       split=(p, c1, c2)))
    return cases[:count]


def ystar_models(cases, extra: int):
    """The unit-mean M/M/1 load grid plus the first ``extra`` models of
    the GI, split, atom and q-sweep families, taken in turn."""
    grid = [ModelCase("mm1", ("exp", rho), ("exp", 1.0), params=(rho, 1.0))
            for rho in YSTAR_GRID]
    picks = []
    kinds = ("gi", "split", "atom", "qsweep")
    pools = {k: [c for c in cases if c.kind == k and c.q < 1.0] for k in kinds}
    j = 0
    while len(picks) < extra and any(pools.values()):
        pool = pools[kinds[j % len(kinds)]]
        if pool:
            picks.append(pool.pop(0))
        j += 1
    return grid + picks
