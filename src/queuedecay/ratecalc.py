"""Analytic tail decay rates for the stable single-server queue.

Everything reduces to three primitives: the workload rate ``gamma_w``
(unique positive root of Phi_A(-s) Phi_B(s) = 1), the busy-period rate
``gamma_p`` (concave program sup {s - psi(s)}), and low-priority /
shortest-remaining-processing-time variants built on the thinned
arrival stream.  Every search is one bracketed Brent root finder,
:func:`dist.find_root`; a concave maximum is the root of its first-order
condition psi'(s) = 1, or the end of its interval when psi' <= 1 there.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from .dist import (
    Deterministic,
    DistributionSpec,
    FiniteMixture,
    NumericalFailure,
    OutOfDomainError,
    OutOfRangeError,
    _doublings,
    _real,
    _value,
    find_root,
    from_json,
    inverse_mgf_neg,
    masses,
    mgf,
    mgf_deriv,
    moments,
    split_endpoint_atom,
    support,
    to_json,
    truncate_below,
)


class UnstableError(ValueError):
    """System load at or above one."""


class NoDelaysError(ValueError):
    """Service time never exceeds an inter-arrival time."""


_DOMAIN_MARGIN = 1.0 - 1e-9


@dataclass(frozen=True)
class Split:
    """Two-class decomposition: class 1 with probability p, else class 2;
    ``service``, not a field, is the mixture p * class1 + (1-p) * class2."""
    p: float
    class1: DistributionSpec
    class2: DistributionSpec

    def __post_init__(self):
        object.__setattr__(self, "p", _real("p", self.p))
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly inside (0, 1)")
        object.__setattr__(self, "service", FiniteMixture(
            ((self.p, self.class1), (1.0 - self.p, self.class2))))


@dataclass(frozen=True)
class QueueModel:
    """One arrival law plus a service law or a two-class split.

    With a split, the full-system service law is always the split's
    mixture ``split.service`` and is derived automatically.
    Construction enforces means and variances in the float range,
    stability (load below one) and that service can exceed an
    inter-arrival time at all.
    """

    arrival: DistributionSpec
    service: Optional[DistributionSpec] = None
    split: Optional[Split] = None

    def __post_init__(self):
        if self.split is not None:
            if self.service is None:
                object.__setattr__(self, "service", self.split.service)
            elif self.service != self.split.service:
                raise ValueError("explicit service law must match the split mixture")
        if self.service is None:
            raise ValueError("provide a service law or a split")
        means = []
        for name in ("arrival", "service"):
            law = getattr(self, name)
            if not isinstance(law, DistributionSpec):
                raise ValueError(f"{name} must be a distribution, got {law!r}")
            # an arithmetic error here, or an overflow to inf, would fail
            # later, deep inside the first computation that uses the law
            try:
                m = moments(law)
            except ArithmeticError:
                m = (math.inf,)
            if not all(map(math.isfinite, m)):
                raise ValueError(f"{name} law has a mean or variance outside the "
                                 f"floating-point range")
            means.append(m[0])
        mean_a, mean_b = means
        if not mean_b < mean_a:
            load = mean_b / mean_a if mean_a > 0 else math.inf
            raise UnstableError(f"load {load:.6g} is not below 1")
        if not support(self.service)[1] > support(self.arrival)[0]:
            raise NoDelaysError("service never exceeds an inter-arrival time")

    @property
    def rho(self) -> float:
        return moments(self.service)[0] / moments(self.arrival)[0]


@dataclass(frozen=True)
class PriorityDecay:
    rate: float
    regime: str            # "interior" or "boundary"
    s_opt: float
    a: float               # positive only in the boundary regime


@dataclass(frozen=True)
class SrptDecay:
    rate: float
    case: str              # "no-atom", "atom", or "deterministic"


@dataclass(frozen=True)
class CriticalTruncation:
    value: float
    tail_prob: float


@dataclass(frozen=True)
class HeavyTrafficApprox:
    K: float
    gamma_w_approx: float
    gamma_w2_approx: Optional[float]


@dataclass(frozen=True)
class DecayReport:
    """All analytic rates for one model; optional entries are None."""
    gamma_w: float
    gamma_p: float
    gamma_w2: Optional[float]
    gamma_v: Optional[float]
    regime: Optional[str]
    s_opt: Optional[float]
    a: Optional[float]
    K: float
    rho: float
    q: float
    x_b: float
    case: Optional[str]

    def to_json(self) -> dict:
        return asdict(self)


def _usable_cap(d: DistributionSpec) -> float:
    s_max = support(d)[2]
    return s_max if math.isinf(s_max) else s_max * _DOMAIN_MARGIN


def _lundberg(s: float, arrival, service) -> float:
    # (Phi_A(-s) Phi_B(s) - 1) / s, the chord slope of a convex map through
    # the origin: rises from the mean drift near 0 through zero at gamma_w
    try:
        return (mgf(arrival, -s) * mgf(service, s) - 1.0) / s
    except (OutOfDomainError, OverflowError):
        return math.inf


def _psi_slope(arrival, service, s: float, u: float) -> float:
    # psi'(s) at u = psi(s) from Phi_A(-u) Phi_B(s) = 1: (Phi_B'/Phi_B)(s) /
    # (Phi_A'/Phi_A)(-u), where Phi_A(-u) = 1 / Phi_B(s)
    phi_b = mgf(service, s)
    return (mgf_deriv(service, s) / phi_b) / (mgf_deriv(arrival, -u) * phi_b)


def _slope_excess(s: float, arrival, service, table: dict) -> float:
    # psi'(s) - 1, rising through zero at the argmax of s - psi(s); +inf
    # where psi is not defined or an mgf factor overflows or its slope
    # underflows to 0.  table keeps (psi(s), psi'(s) - 1) per point, and
    # (nan, inf) where that fails, so no point is solved twice
    if s not in table:
        try:
            u = psi(arrival, service, s)
            table[s] = u, _psi_slope(arrival, service, s, u) - 1.0
        except (OutOfDomainError, OutOfRangeError, ArithmeticError):
            table[s] = math.nan, math.inf
    return table[s][1]


def _program(arrival, service, end: float) -> Tuple[float, float, float]:
    # (max, argmax, psi' - 1 there) of the concave s - psi(s) on [0, end],
    # end clipped to the service's usable mgf domain: the end itself when
    # psi' <= 1 there, else the root of psi'(s) = 1.  Every point returned
    # was evaluated, so its psi is read from the table, not solved again
    end = min(end, _usable_cap(service))
    table = {}
    args = (arrival, service, table)
    s_opt = end
    if math.isinf(end) or _value(end, _slope_excess, *args) > 0:
        s_opt = find_root(_slope_excess, args, 0.0, _value(0.0, _slope_excess, *args),
                          _doublings() if math.isinf(end) else (end,))
        if s_opt is None:
            raise NumericalFailure("no concave turnover within the expansion budget")
    u, excess = table[s_opt]
    return s_opt - u, s_opt, excess


def psi(arrival: DistributionSpec, service: DistributionSpec, s: float) -> float:
    """Busy-cycle input rate function: the unique u >= 0 with
    Phi_A(-u) * Phi_B(s) = 1.  Increasing and convex, psi(0) = 0."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0.0:
        return 0.0
    # mgf(service, s) >= 1 for s >= 0; min guards rounding
    return inverse_mgf_neg(arrival, min(1.0, 1.0 / mgf(service, s)))


def _class1_service(p: float, class1: DistributionSpec) -> DistributionSpec:
    # class1 with probability p and zero otherwise: the p-thinned stream's
    # equation Phi_A1(-u) Phi_B1(s) = 1 is Phi_A(-u) (p Phi_B1(s) + 1 - p) = 1;
    # p rounds to 1 when an endpoint atom's mass is at most 2^-54, and the
    # thinned stream is then the whole stream
    return class1 if p == 1.0 else Split(p, class1, Deterministic(0.0)).service


def gamma_w_detail(model: QueueModel) -> Tuple[float, bool]:
    """(gamma_w, boundary_flag).

    Every finite abscissa s_max(B) in this algebra is a pole of Phi_B,
    so Phi_A(-s) Phi_B(s) always crosses one below it.  The flag is True
    when that crossing lies within the search margin (1e-9 relative) of
    s_max(B); the abscissa itself is then returned as the rate.
    """
    args = (model.arrival, model.service)
    cap = _usable_cap(model.service)
    if math.isinf(cap):
        points = _doublings()
    else:
        points = (cap * (1.0 - 0.5 ** k) for k in range(1, 60))
    # near 0 the Lundberg function cancels to rounding noise that can read
    # exactly 0, so the bracket's left end is halved down, never 0
    lo = next(points)
    f_lo = _lundberg(lo, *args)
    while f_lo > 0:
        points = iter((lo,))
        lo *= 0.5
        f_lo = _lundberg(lo, *args)
    root = find_root(_lundberg, args, lo, f_lo, points)
    if root is not None:
        return root, False
    if math.isinf(cap):
        raise NumericalFailure("no sign change within the expansion budget")
    return support(model.service)[2], True


def gamma_w(model: QueueModel) -> float:
    """Workload tail decay rate."""
    return gamma_w_detail(model)[0]


def gamma_p_detail(model: QueueModel) -> Tuple[float, float]:
    """(gamma_p, argmax) of the concave program sup_{s>=0} {s - psi(s)}."""
    return _program(model.arrival, model.service, math.inf)[:2]


def gamma_p(model: QueueModel) -> float:
    """Busy-period tail decay rate."""
    return gamma_p_detail(model)[0]


def gamma_p_trunc(model: QueueModel, y: float) -> float:
    """Busy-period decay rate after truncating service at y (work of
    customers with service >= y removed).  Also the conditional sojourn
    decay rate of a shortest-remaining-first customer with service y
    when y carries no atom.  +inf when the truncated system never
    queues."""
    truncated = truncate_below(model.service, y)
    if not support(truncated)[1] > support(model.arrival)[0]:
        return math.inf
    return _program(model.arrival, truncated, math.inf)[0]


def gamma_w2(model: QueueModel) -> PriorityDecay:
    """Decay rate of low-priority waiting and sojourn time.

    Maximizes s - psi1(s) over [0, gamma_w], where psi1 is psi of the
    class-1 subsystem seen through the p-thinned arrival stream.  Interior
    regime: the unconstrained optimizer lies inside, and the rate equals
    the class-1 busy-period rate.  Boundary regime: the map still rises at
    gamma_w; the rate is gamma_w - psi1(gamma_w) and a = 1 - psi1'(gamma_w)
    in (0, 1) is the most likely initial-workload fraction.
    """
    if model.split is None:
        raise ValueError("model has no class split")
    return _gamma_w2(model.arrival, model.split.p, model.split.class1,
                     gamma_w(model))


def _gamma_w2(arrival: DistributionSpec, p: float, class1: DistributionSpec,
              gw: float) -> PriorityDecay:
    rate, s_opt, excess = _program(arrival, _class1_service(p, class1), gw)
    if s_opt == gw and excess < 0:
        return PriorityDecay(rate, "boundary", gw, -excess)
    return PriorityDecay(rate, "interior", s_opt, 0.0)


def gamma_v_srpt(model: QueueModel) -> SrptDecay:
    """Sojourn decay rate under shortest-remaining-processing-time,
    preemptive or not.  Dispatches on the service endpoint atom q:
    q = 0 gives the busy-period rate, q = 1 the workload rate, and
    0 < q < 1 the low-priority rate of the auxiliary model in which the
    endpoint atom is the low class."""
    q, _, class1 = split_endpoint_atom(model.service)
    return _srpt(model, q, class1)[0]


def _srpt(model: QueueModel, q: float, class1: Optional[DistributionSpec],
          gw: Optional[float] = None,
          gp: Optional[float] = None) -> Tuple[SrptDecay, Optional[PriorityDecay]]:
    # the dispatch on q, with the auxiliary program in the atom case; a
    # rate given as None is solved only when the case needs it
    if q == 0.0:
        return SrptDecay(gamma_p(model) if gp is None else gp, "no-atom"), None
    if gw is None:
        gw = gamma_w(model)
    if q >= 1.0:
        return SrptDecay(gw, "deterministic"), None
    # the auxiliary priority queue: class 1 is the law below the atom
    pr = _gamma_w2(model.arrival, 1.0 - q, class1, gw)
    return SrptDecay(pr.rate, "atom"), pr


def _cutoff_excess(y: float, model: QueueModel, gw: float) -> float:
    # gamma_w - gamma_p_trunc(y), rising through zero at y*
    return gw - gamma_p_trunc(model, y)


def y_star(model: QueueModel) -> CriticalTruncation:
    """Largest service-time cutoff whose truncated busy-period rate still
    reaches gamma_w, with the service tail mass P(B > y*) beside it.

    The root of the nonincreasing map y -> gamma_p_trunc(y) - gamma_w,
    bracketed by doubling and solved to machine precision relative; the
    tail mass comes from the survival function, so it keeps its digits
    when tiny.  For a degenerate service law the cutoff is its value.
    """
    q, x_b, _ = split_endpoint_atom(model.service)
    if q >= 1.0:
        return CriticalTruncation(x_b, 0.0)
    gw = gamma_w(model)
    value = find_root(_cutoff_excess, (model, gw), 0.0, -math.inf, _doublings())
    if value is None:
        raise NumericalFailure("no finite cutoff bracket; load may be degenerate")
    return CriticalTruncation(value, masses(model.service, value)[2])


def heavy_traffic(model: QueueModel) -> HeavyTrafficApprox:
    """First-order rates near saturation: K = 2 / (var A + var B), Kingman's
    gamma_w ~ K E[A] (1 - rho) and, with a split, gamma_w2 ~ K E[A] (1 - rho1)
    (1 - rho), where rho1 is the class-1 load."""
    mean_a, var_a = moments(model.arrival)
    var_b = moments(model.service)[1]
    total = var_a + var_b
    k = 2.0 / total if total > 0 else math.inf
    rho = model.rho
    gw2 = None
    if model.split is not None:
        rho1 = model.split.p * moments(model.split.class1)[0] * (1.0 / mean_a)
        gw2 = k * (1.0 - rho1) * (1.0 - rho) * mean_a
    return HeavyTrafficApprox(k, k * (1.0 - rho) * mean_a, gw2)


def decay_report(model: QueueModel) -> DecayReport:
    """Compute every applicable rate for the model in one pass."""
    gw, _ = gamma_w_detail(model)
    gp, _ = gamma_p_detail(model)
    q, x_b, class1 = split_endpoint_atom(model.service)
    sv, pr = _srpt(model, q, class1, gw, gp)
    gw2 = None
    if model.split is not None:
        # the split's program, not the atom case's auxiliary one, gives
        # regime, s_opt and a
        pr = _gamma_w2(model.arrival, model.split.p, model.split.class1, gw)
        gw2 = pr.rate
    regime = s_opt = a_frac = None
    if pr is not None:
        regime, s_opt, a_frac = pr.regime, pr.s_opt, pr.a
    ht = heavy_traffic(model)
    return DecayReport(gamma_w=gw, gamma_p=gp, gamma_w2=gw2, gamma_v=sv.rate,
                       regime=regime, s_opt=s_opt, a=a_frac, K=ht.K,
                       rho=model.rho, q=q, x_b=x_b, case=sv.case)


def model_to_json(model: QueueModel) -> dict:
    if model.split is not None:
        return {"arrival": to_json(model.arrival),
                "split": {"p": model.split.p,
                          "class1": to_json(model.split.class1),
                          "class2": to_json(model.split.class2)}}
    return {"arrival": to_json(model.arrival),
            "service": to_json(model.service)}


def model_from_json(obj: dict) -> QueueModel:
    """Parse {"arrival": DIST, "service": DIST} or
    {"arrival": DIST, "split": {"p", "class1", "class2"}}; a file giving
    both is QueueModel's to judge, like any other pair of laws.  Only the
    structure is read here; the constructors check every value."""
    if not isinstance(obj, dict) or "arrival" not in obj:
        raise ValueError("model JSON needs an 'arrival' law")
    arrival = from_json(obj["arrival"])
    service = split = None
    if obj.get("service") is not None:
        service = from_json(obj["service"])
    if obj.get("split") is not None:
        sp = obj["split"]
        try:
            split = Split(sp["p"], from_json(sp["class1"]), from_json(sp["class2"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed split: {exc!r}") from exc
    return QueueModel(arrival, service, split)
