"""Built-in acceptance suite.

Ten numbered criteria cross-check the analytic decay rates against
closed forms, structural orderings, and the simulator.  The CLI
``validate`` command and the package's acceptance tests both run this
list, so a red criterion shows up identically in either place.  Each
criterion runs at one scale, within its own wall-clock budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .dist import (Deterministic, Erlang, Exponential, FiniteMixture,
                   UniformInterval, mgf, mgf_deriv)
from .ratecalc import (NumericalFailure, QueueModel, Split, decay_report, gamma_p,
                       gamma_v_srpt, gamma_w, gamma_w2, heavy_traffic, y_star)
from .simqueue import Discipline, cycle_psi, empirical_psi, run
from .tailest import compare_rates, fit_decay, fits_agree, is_workload_tail


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float
    numerical_failure: bool = False

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:2d} {self.name:<28s} {verdict} "
                f"{self.seconds:8.2f}s  {self.detail}")


def _crit_mm1_closed_forms() -> Tuple[bool, str]:
    model = QueueModel(Exponential(0.5), Exponential(1.0))
    gw = gamma_w(model)
    gp = gamma_p(model)
    gw_true = 0.5
    gp_true = (1.0 - math.sqrt(0.5)) ** 2
    ok = abs(gw - gw_true) <= 1e-9 and abs(gp - gp_true) <= 1e-9
    return ok, (f"gamma_w={gw:.12f} (target {gw_true}), "
                f"gamma_p={gp:.12f} (target {gp_true:.12f})")


def _crit_priority_cross_checks() -> Tuple[bool, str]:
    interior = QueueModel(Exponential(1.0),
                          split=Split(0.5, Exponential(4.0), Exponential(4.0)))
    di = gamma_w2(interior)
    target = (2.0 - math.sqrt(0.5)) ** 2
    ok_i = (di.regime == "interior" and di.a == 0.0
            and abs(di.rate - target) <= 1e-9)

    boundary = QueueModel(Exponential(1.0),
                          split=Split(0.5, UniformInterval(0.0, 0.5),
                                      Deterministic(1.0)))
    db = gamma_w2(boundary)
    # Poisson arrivals at rate 1: the boundary optimum's closed form
    # gamma_w - lam1 (Phi_B1(gamma_w) - 1), valid while its slope guard holds
    gw = gamma_w(boundary)
    lam1 = boundary.split.p * 1.0
    class1 = boundary.split.class1
    guard_ok = lam1 * mgf_deriv(class1, gw) < 1.0
    closed = gw - lam1 * (mgf(class1, gw) - 1.0)
    ok_b = (db.regime == "boundary" and guard_ok
            and abs(db.rate - closed) <= 1e-12 * abs(closed))
    ok = ok_i and ok_b
    return ok, (f"interior rate={di.rate:.10f} regime={di.regime} a={di.a}; "
                f"boundary rate={db.rate:.10f} vs closed {closed:.10f} "
                f"regime={db.regime}")


def _random_two_class(rng) -> QueueModel:
    lam = float(rng.uniform(0.3, 1.2))
    p = float(rng.uniform(0.15, 0.85))

    def law(mean: float):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            return Exponential(1.0 / mean)
        if kind == 1:
            return Erlang(2, 2.0 / mean)
        if kind == 2:
            return UniformInterval(0.0, 2.0 * mean)
        return Deterministic(mean)

    m1 = float(rng.uniform(0.1, 1.0))
    m2 = float(rng.uniform(0.1, 1.0))
    rho = float(rng.uniform(0.35, 0.9))
    scale = rho / (lam * (p * m1 + (1.0 - p) * m2))
    return QueueModel(Exponential(lam),
                      split=Split(p, law(m1 * scale), law(m2 * scale)))


def _crit_ordering() -> Tuple[bool, str]:
    rng = np.random.default_rng(20240817)
    worst = math.inf
    for k in range(100):
        model = _random_two_class(rng)
        gw = gamma_w(model)
        gp = gamma_p(model)
        mid = gamma_w2(model).rate
        margin = min(mid - gp, gw - mid)
        worst = min(worst, margin)
        if not margin > 1e-9:
            return False, (f"model {k}: ordering margin {margin:.3e} "
                           f"(gp={gp}, gw2={mid}, gw={gw})")
    return True, f"100 models strictly ordered, min margin {worst:.3e}"


def _crit_q_sweep() -> Tuple[bool, str]:
    arrival = Exponential(1.0)
    base = UniformInterval(0.6, 0.8)
    cutoff = 0.8
    qs = [round(0.1 * j, 1) for j in range(11)]
    rates = []
    for q in qs:
        if q == 0.0:
            service = base
        elif q == 1.0:
            service = Deterministic(cutoff)
        else:
            service = FiniteMixture(((1.0 - q, base), (q, Deterministic(cutoff))))
        rates.append(gamma_v_srpt(QueueModel(arrival, service)).rate)
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    gp_end = gamma_p(QueueModel(arrival, base))
    gw_end = gamma_w(QueueModel(arrival, Deterministic(cutoff)))
    ok = (nondecreasing and abs(rates[0] - gp_end) <= 1e-7
          and abs(rates[-1] - gw_end) <= 1e-7)
    return ok, (f"rates {rates[0]:.6f}..{rates[-1]:.6f} nondecreasing="
                f"{nondecreasing}; endpoints vs gamma_p={gp_end:.6f}, "
                f"gamma_w={gw_end:.6f}")


def _crit_fifo_simulation() -> Tuple[bool, str]:
    model = QueueModel(Exponential(0.5), Exponential(1.0))
    out = run(model, Discipline.FIFO, 1_000_000, 12345)
    fit = fit_decay(out.waiting())
    report = compare_rates(0.5, fit, 0.10)
    target = 0.5 * math.exp(-10.0)
    est, rel_se = is_workload_tail(model, 20.0, 10_000, 12345)
    ok = report.passed and abs(est / target - 1.0) <= 0.05
    return ok, (f"fit rate={fit.rate:.4f} rel_err={report.rel_error:+.3f} "
                f"(tol {report.tolerance}); IS P(W>20)={est:.4e} "
                f"rel_err={est/target-1:+.4f} (tol 0.05, rel se {rel_se:.3f})")


def _crit_srpt_simulation() -> Tuple[bool, str]:
    model = QueueModel(Exponential(1.0),
                       FiniteMixture(((0.5, UniformInterval(0.0, 0.5)),
                                      (0.5, Deterministic(1.0)))))
    n = 2_000_000
    report = decay_report(model)
    gv, gp, gw = report.gamma_v, report.gamma_p, report.gamma_w
    pr = run(model, Discipline.SRPT_PR, n, 12345)
    fit_pr = fit_decay(pr.sojourn())
    np_ = run(model, Discipline.SRPT_NP, n, 12345)
    fit_np = fit_decay(np_.sojourn())
    rep = compare_rates(gv, fit_pr, 0.15)
    inside = gp < fit_pr.rate < gw
    agree = fits_agree(fit_pr, fit_np)
    ok = rep.passed and inside and agree
    return ok, (f"PR fit={fit_pr.rate:.4f} vs gamma_v={gv:.4f} "
                f"rel_err={rep.rel_error:+.3f} (tol {rep.tolerance}); inside "
                f"({gp:.4f}, {gw:.4f})={inside}; NP fit={fit_np.rate:.4f} "
                f"agree={agree}")


def _crit_sample_path_identities() -> Tuple[bool, str]:
    n = 200_000
    det = QueueModel(Exponential(0.5), Deterministic(1.0))
    a = run(det, Discipline.FIFO, n, 12345)
    b = run(det, Discipline.SRPT_PR, n, 12345)
    ok_det = np.array_equal(a.departure_time, b.departure_time)

    split = QueueModel(Exponential(1.0),
                       split=Split(0.5, UniformInterval(0.0, 0.5),
                                   Deterministic(1.0)))
    outs = {d: run(split, d, n, 12345) for d in Discipline}
    pr, np_run = outs[Discipline.PRIO_PR], outs[Discipline.PRIO_NP]
    two = pr.customer_class == 2
    ok_prio = np.array_equal(pr.first_service_start[two],
                             np_run.first_service_start[two])
    fifo = outs[Discipline.FIFO]
    ok_load = all(np.array_equal(fifo.workload_at_arrival,
                                 o.workload_at_arrival) for o in outs.values())
    # each busy period ends at FIFO's last departure in it under every
    # discipline, and LIFO-PR's customer who opens it leaves exactly then
    opens = np.flatnonzero(fifo.workload_at_arrival == 0.0)
    end = np.maximum.reduceat(fifo.departure_time, opens)
    ok_busy = (all(np.array_equal(np.maximum.reduceat(o.departure_time, opens), end)
                   for o in outs.values())
               and np.array_equal(outs[Discipline.LIFO_PR].departure_time[opens], end))
    ok = ok_det and ok_prio and ok_load and ok_busy
    return ok, (f"deterministic SRPT==FIFO departures: {ok_det}; "
                f"PRIO PR==NP class-2 first service: {ok_prio}; "
                f"workload identical across 6 disciplines: {ok_load}; "
                f"busy periods end at FIFO's last departure, LIFO-PR opener "
                f"leaves then: {ok_busy}")


def _crit_ystar_curve() -> Tuple[bool, str]:
    rhos = [round(0.05 * j, 2) for j in range(1, 20)]
    probs = []
    for rho in rhos:
        model = QueueModel(Exponential(rho), Exponential(1.0))
        probs.append(y_star(model).tail_prob)
    peak = max(probs)
    ok = (probs[0] < peak and probs[-1] < peak and 0.10 <= peak <= 0.22)
    return ok, (f"P(B>y*): ends {probs[0]:.4f}/{probs[-1]:.4f}, "
                f"max {peak:.4f} at rho={rhos[probs.index(peak)]}")


def _crit_heavy_traffic() -> Tuple[bool, str]:
    mm1 = QueueModel(Exponential(0.99), Exponential(1.0))
    ht = heavy_traffic(mm1)
    ratio = gamma_w(mm1) / ht.gamma_w_approx
    ok_mm1 = abs(ratio - 1.0) <= 0.03

    gaps = []
    for rho in (0.9, 0.99, 0.999):
        mean2 = 2.0 * rho - 0.25
        model = QueueModel(Exponential(1.0),
                           split=Split(0.5, Exponential(4.0),
                                       Exponential(1.0 / mean2)))
        ratio2 = gamma_w2(model).rate / heavy_traffic(model).gamma_w2_approx
        gaps.append(abs(ratio2 - 1.0))
    monotone = gaps[0] > gaps[1] > gaps[2]
    ok = ok_mm1 and monotone
    return ok, (f"M/M/1 ratio={ratio:.6f}; priority |ratio-1| along rho->1: "
                f"{gaps[0]:.6f} > {gaps[1]:.6f} > {gaps[2]:.6f} = {monotone}")


def _crit_empirical_psi() -> Tuple[bool, str]:
    model = QueueModel(Exponential(0.5), Exponential(1.0))
    reps = 2_000
    est = cycle_psi(model, 0.25, 500.0, reps, 12345)
    plain = empirical_psi(model, 0.25, 500.0, reps, 12345)
    target = 0.5 * 0.25 / (1.0 - 0.25)
    err = abs(est / target - 1.0)
    ok = err <= 0.05
    return ok, (f"cycle estimate={est:.6f} vs psi(0.25)={target:.6f}, "
                f"rel_err={est/target-1:+.4f} (tol 0.05); plain average of "
                f"exp(s X(t))={plain:.6f}, rel_err={plain/target-1:+.4f}, "
                f"not gated: it cannot reach the tilted mean at this horizon")


CRITERIA: Tuple[Tuple[int, str, float, Callable[[], Tuple[bool, str]]], ...] = (
    (1, "mm1-closed-forms", 1.0, _crit_mm1_closed_forms),
    (2, "priority-cross-checks", 1.0, _crit_priority_cross_checks),
    (3, "two-class-ordering", 10.0, _crit_ordering),
    (4, "atom-mass-sweep", 5.0, _crit_q_sweep),
    (5, "fifo-simulation", 60.0, _crit_fifo_simulation),
    (6, "srpt-simulation", 180.0, _crit_srpt_simulation),
    (7, "sample-path-identities", 30.0, _crit_sample_path_identities),
    (8, "ystar-curve", 60.0, _crit_ystar_curve),
    (9, "heavy-traffic", 5.0, _crit_heavy_traffic),
    (10, "empirical-psi", 60.0, _crit_empirical_psi),
)


def run_criterion(number: int) -> CriterionResult:
    for num, name, budget, func in CRITERIA:
        if num == number:
            start = time.perf_counter()
            numerical = False
            try:
                passed, detail = func()
            except NumericalFailure as exc:
                passed, detail = False, f"numerical failure: {exc}"
                numerical = True
            elapsed = time.perf_counter() - start
            if passed and elapsed > budget:
                passed = False
                detail += f"; exceeded {budget:.0f}s budget"
            return CriterionResult(number=num, name=name, passed=passed,
                                   detail=detail, seconds=elapsed,
                                   budget=budget, numerical_failure=numerical)
    raise ValueError(f"no criterion numbered {number}")


def run_all() -> List[CriterionResult]:
    return [run_criterion(num) for num, _, _, _ in CRITERIA]
