import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from queuedecay import dist, ratecalc
from queuedecay.dist import (
    ConditionedBelow,
    Deterministic,
    Erlang,
    Exponential,
    FiniteMixture,
    UniformInterval,
    mgf,
    mgf_deriv,
    split_endpoint_atom,
)
from queuedecay.ratecalc import (
    NoDelaysError,
    NumericalFailure,
    QueueModel,
    Split,
    SrptDecay,
    UnstableError,
    decay_report,
    gamma_p,
    gamma_p_detail,
    gamma_p_trunc,
    gamma_v_srpt,
    gamma_w,
    gamma_w_detail,
    gamma_w2,
    heavy_traffic,
    model_from_json,
    model_to_json,
    psi,
    y_star,
)
from queuedecay.validate import _random_two_class

MM1 = QueueModel(Exponential(0.5), Exponential(1.0))
MD1 = QueueModel(Exponential(0.5), Deterministic(1.0))
ATOM = QueueModel(Exponential(1.0),
                  FiniteMixture(((0.5, UniformInterval(0.0, 0.5)),
                                 (0.5, Deterministic(1.0)))))
TWO_ATOM = QueueModel(Exponential(0.5),
                      FiniteMixture(((0.5, Deterministic(0.5)),
                                     (0.5, Deterministic(1.0)))))


def test_mm1_closed_forms():
    assert gamma_w(MM1) == pytest.approx(0.5, abs=1e-9)
    assert gamma_p(MM1) == pytest.approx((1 - math.sqrt(0.5)) ** 2, abs=1e-9)


def test_md1_closed_forms():
    assert gamma_w(MD1) == pytest.approx(1.256431208626, abs=1e-9)
    assert gamma_p(MD1) == pytest.approx(math.log(2.0) - 0.5, abs=1e-9)


def test_gamma_w_is_lundberg_root():
    for model in (MM1, MD1, ATOM, TWO_ATOM):
        root, boundary = gamma_w_detail(model)
        assert not boundary
        assert mgf(model.arrival, -root) * mgf(model.service, root) == \
            pytest.approx(1.0, abs=1e-9)


def test_psi_properties():
    model = ATOM
    s_grid = np.linspace(0.0, gamma_w(model), 12)
    vals = [psi(model.arrival, model.service, s) for s in s_grid]
    assert vals[0] == 0.0
    assert all(b > a - 1e-12 for a, b in zip(vals, vals[1:]))
    for i in range(1, len(s_grid) - 1):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-10
    h = 1e-5
    slope0 = psi(model.arrival, model.service, h) / h
    assert slope0 == pytest.approx(model.rho, abs=1e-4)


def test_psi_poisson_identity():
    lam = 0.5
    for s in np.linspace(0.1, 0.9 * gamma_w(MM1), 7):
        direct = lam * (mgf(MM1.service, s) - 1.0)
        assert psi(MM1.arrival, MM1.service, s) == pytest.approx(
            direct, rel=1e-10, abs=1e-10)


def test_residual_identity_busy_period_from_workload_interval():
    for model in (MM1, MD1, ATOM):
        gw = gamma_w(model)
        grid = np.linspace(0.0, gw, 4001)
        sup = max(s - psi(model.arrival, model.service, s) for s in grid)
        assert sup == pytest.approx(gamma_p(model), abs=1e-6)
        value, s_opt = gamma_p_detail(model)
        assert 0.0 <= s_opt <= gw + 1e-12
        assert value >= sup - 1e-9


def test_psi1_dual_agreement():
    # psi of the mixture p B1 + (1-p) delta_0 is the class-1 psi1; its dual
    # is the thinned-stream equation p Phi_A(-u) Phi_B1(s) = 1 - (1-p) Phi_A(-u)
    model = ATOM
    p = 0.5
    class1 = UniformInterval(0.0, 0.5)
    service1 = FiniteMixture(((p, class1), (1.0 - p, Deterministic(0.0))))
    for s in np.linspace(0.05, 0.95, 7):
        u = psi(model.arrival, service1, s)
        phi_a = mgf(model.arrival, -u)
        lhs = p * phi_a * mgf(class1, s)
        rhs = 1.0 - (1.0 - p) * phi_a
        assert u > 0 and abs(lhs - rhs) <= 1e-12 * rhs


def test_gamma_w2_interior_example():
    model = QueueModel(Exponential(1.0),
                       split=Split(0.5, Exponential(4.0), Exponential(4.0)))
    d = gamma_w2(model)
    assert d.regime == "interior"
    assert d.a == 0.0
    assert d.rate == pytest.approx((2 - math.sqrt(0.5)) ** 2, abs=1e-9)
    assert d.s_opt == pytest.approx(4 - math.sqrt(2.0), abs=1e-4)


def test_gamma_w2_boundary_example():
    model = QueueModel(Exponential(1.0),
                       split=Split(0.5, UniformInterval(0.0, 0.5),
                                   Deterministic(1.0)))
    d = gamma_w2(model)
    assert d.regime == "boundary"
    assert d.rate == pytest.approx(0.838907347926, abs=1e-9)
    assert d.s_opt == pytest.approx(gamma_w(model), abs=1e-12)
    assert d.a == pytest.approx(0.825271470022, abs=1e-6)
    assert 0.0 < d.a < 1.0


def _record(monkeypatch, name):
    # the s argument of every call of ratecalc.<name>
    seen = []
    original = getattr(ratecalc, name)

    def recorded(arrival, service, s, *rest):
        seen.append(s)
        return original(arrival, service, s, *rest)
    monkeypatch.setattr(ratecalc, name, recorded)
    return seen


def test_gamma_w2_interior_solves_the_slope_at_gamma_w_once(monkeypatch):
    model = QueueModel(Exponential(1.0),
                       split=Split(0.5, Exponential(4.0), Exponential(4.0)))
    gw = gamma_w(model)
    slopes = _record(monkeypatch, "_psi_slope")
    assert gamma_w2(model).regime == "interior"
    assert slopes.count(gw) == 1


def test_gamma_w2_boundary_evaluates_no_point_below_gamma_w(monkeypatch):
    model = QueueModel(Exponential(1.0),
                       split=Split(0.5, UniformInterval(0.0, 0.5),
                                   Deterministic(1.0)))
    gw = gamma_w(model)
    points = _record(monkeypatch, "psi")
    slopes = _record(monkeypatch, "_psi_slope")
    assert gamma_w2(model).regime == "boundary"
    assert points == slopes == [gw]


def test_gamma_w2_ordering():
    model = QueueModel(Exponential(1.0),
                       split=Split(0.5, UniformInterval(0.0, 0.5),
                                   Deterministic(1.0)))
    mid = gamma_w2(model).rate
    assert gamma_p(model) < mid < gamma_w(model)


# Closed forms for Poisson arrivals at rate lam, which the concave program
# must agree with.  gamma_w solves s = lam (Phi_B(s) - 1).  A split's
# boundary optimum is gamma_w - lam1 (Phi_B1(gamma_w) - 1), valid while
# lam1 Phi_B1'(gamma_w) < 1.  An endpoint atom q < 1 at x_B gives
# lam q (exp(x_B gamma_w) - 1), valid while lam (1 - q) Phi_B1'(gamma_w) < 1
# for the law B1 below the atom; q = 1 gives lam (exp(x_B gamma_w) - 1).


def test_poisson_rates_guard_ok_matches_generic():
    lam, gw = 0.5, gamma_w(TWO_ATOM)
    q, x_b, below = split_endpoint_atom(TWO_ATOM.service)
    assert lam * (1.0 - q) * mgf_deriv(below, gw) < 1.0
    gv = lam * q * math.expm1(x_b * gw)
    assert gw == pytest.approx(1.976945675020, abs=1e-9)
    assert gv == pytest.approx(1.555163760845, abs=1e-9)
    assert gv == pytest.approx(gamma_v_srpt(TWO_ATOM).rate, abs=1e-8)
    assert gw == pytest.approx(lam * (mgf(TWO_ATOM.service, gw) - 1.0), abs=1e-10)


def test_poisson_rates_guard_fail_has_no_closed_form():
    # interior-regime split: the closed form's validity guard fails, and
    # the rate it guards has no closed form
    split = Split(0.5, Exponential(4.0), Exponential(4.0))
    model = QueueModel(Exponential(1.0), split=split)
    gw = gamma_w(model)
    assert not split.p * 1.0 * mgf_deriv(split.class1, gw) < 1.0
    assert gw == pytest.approx(3.0, abs=1e-9)
    assert gamma_w2(model).regime == "interior"


def test_poisson_rates_deterministic_service_is_the_workload_rate():
    # q = 1: lam * (exp(x_B * gamma_w) - 1) = gamma_w by the fixed point
    q, x_b, _ = split_endpoint_atom(MD1.service)
    assert q == 1.0
    gv = 0.5 * math.expm1(x_b * gamma_w(MD1))
    assert gv == pytest.approx(gamma_v_srpt(MD1).rate, rel=1e-12)
    assert gamma_v_srpt(MD1).case == "deterministic"


def test_poisson_rates_boundary_matches_closed_form():
    split = Split(0.5, UniformInterval(0.0, 0.5), Deterministic(1.0))
    model = QueueModel(Exponential(1.0), split=split)
    gw, lam1 = gamma_w(model), split.p * 1.0
    assert lam1 * mgf_deriv(split.class1, gw) < 1.0
    closed = gw - lam1 * (mgf(split.class1, gw) - 1.0)
    assert closed == pytest.approx(gamma_w2(model).rate, abs=1e-8)


def test_gamma_w_boundary_flag_within_the_search_margin():
    # Phi_A(-s) Phi_B(s) = exp(-30 s) / (1 - s) crosses one at s = 1 - eps
    # with eps = exp(-30 (1 - eps)), about e^-30: inside the 1e-9 margin
    # below the pole s_max = 1
    model = QueueModel(Deterministic(30.0), Exponential(1.0))
    assert gamma_w_detail(model) == (1.0, True)
    eps = math.exp(-30.0 * (1.0 - math.exp(-30.0)))
    assert eps == pytest.approx(math.exp(-30.0 * (1.0 - eps)), rel=1e-12)
    assert 0.0 < eps <= 1e-12


def test_gamma_v_srpt_dispatch():
    no_atom = gamma_v_srpt(MM1)
    assert no_atom.case == "no-atom"
    assert no_atom.rate == pytest.approx(gamma_p(MM1), abs=1e-12)
    det = gamma_v_srpt(MD1)
    assert det.case == "deterministic"
    assert det.rate == pytest.approx(gamma_w(MD1), abs=1e-12)
    atom = gamma_v_srpt(ATOM)
    assert atom.case == "atom"
    assert atom.rate == pytest.approx(0.838907347926, abs=1e-9)
    assert gamma_p(ATOM) < atom.rate < gamma_w(ATOM)


def _hyperexponential_atom_model(q):
    # service (1 - q) U(0, 1) + q D(1), of mean (1 + q) / 2, after arrivals
    # 0.5 Exp(0.25 c) + 0.5 Exp(10 c), with c setting the load to 0.5
    c = 0.5 * (0.5 / 0.25 + 0.5 / 10.0) / ((1.0 + q) / 2.0)
    return QueueModel(
        FiniteMixture(((0.5, Exponential(0.25 * c)), (0.5, Exponential(10.0 * c)))),
        FiniteMixture(((1.0 - q, UniformInterval(0.0, 1.0)), (q, Deterministic(1.0)))))


def _endpoint_atom_service(q, lo, hi):
    # (1 - q) U(lo, hi) + q D(hi), the atom at the endpoint hi
    if q == 0.0:
        return UniformInterval(lo, hi)
    if q == 1.0:
        return Deterministic(hi)
    return FiniteMixture(((1.0 - q, UniformInterval(lo, hi)), (q, Deterministic(hi))))


@pytest.mark.parametrize("seed", range(20))
def test_gamma_v_nondecreasing_in_q_at_fixed_load_with_poisson_arrivals(seed):
    # the claim as stated: Poisson arrivals, the load held fixed while the
    # endpoint atom's mass q grows; validate's criterion 4 lets the load
    # rise with q instead
    rng = np.random.default_rng(seed)
    lo, hi = np.sort(rng.uniform(0.0, 1.0, 2)).tolist()
    rho = float(rng.uniform(0.2, 0.9))
    rates = []
    for q in [k / 10 for k in range(11)]:
        service = _endpoint_atom_service(q, lo, hi)
        model = QueueModel(Exponential(rho / dist.moments(service)[0]), service)
        assert model.rho == pytest.approx(rho, rel=1e-12)
        rates.append(gamma_v_srpt(model).rate)
    assert all(a <= b for a, b in zip(rates, rates[1:])), rates


def test_gamma_v_can_fall_in_q_at_fixed_load_without_poisson_arrivals():
    # "gamma_v nondecreasing in q" is claimed only at a fixed load with
    # Poisson arrivals; with these arrivals it falls from q = 0.8 to 0.9
    low = gamma_v_srpt(_hyperexponential_atom_model(0.8))
    high = gamma_v_srpt(_hyperexponential_atom_model(0.9))
    assert low.case == high.case == "atom"
    assert low.rate == pytest.approx(0.3851809344377697, rel=1e-9)
    assert high.rate == pytest.approx(0.3839882912845844, rel=1e-9)
    assert high.rate < low.rate


@pytest.mark.parametrize("model", [
    MM1, MD1, ATOM, TWO_ATOM,
    QueueModel(Exponential(1.0), split=Split(0.5, UniformInterval(0.0, 0.5),
                                             Deterministic(1.0))),
    QueueModel(Exponential(1.0), split=Split(0.5, Exponential(4.0),
                                             Exponential(4.0))),
    QueueModel(UniformInterval(0.5, 2.5), Erlang(3, 4.0)),
], ids=["mm1", "md1", "atom", "two-atom", "boundary-split", "interior-split",
        "uniform-erlang"])
def test_report_fields_equal_the_standalone_rates(model):
    # the CLI and validate read their fit targets from the report
    report = decay_report(model)
    assert (report.gamma_w, report.gamma_p) == (gamma_w(model), gamma_p(model))
    srpt = gamma_v_srpt(model)
    assert (report.gamma_v, report.case) == (srpt.rate, srpt.case)
    if model.split is not None:
        assert report.gamma_w2 == gamma_w2(model).rate


def test_gamma_p_trunc_oracle_value():
    assert gamma_p_trunc(MM1, 1.0) == pytest.approx(1.720302003845, abs=1e-8)


def test_gamma_p_trunc_monotone_to_gamma_p():
    ys = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    vals = [gamma_p_trunc(MM1, y) for y in ys]
    assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(gamma_p(MM1), rel=1e-3)
    assert all(v >= gamma_p(MM1) - 1e-12 for v in vals)


@pytest.mark.parametrize("call, message", [
    (lambda: QueueModel(Exponential(1.0)), "provide a service law or a split"),
    (lambda: psi(MM1.arrival, MM1.service, -1.0), "s must be nonnegative"),
    (lambda: gamma_w2(MM1), "model has no class split"),
    (lambda: model_from_json([]), "model JSON needs an 'arrival' law"),
    # rate ** 2 underflows to 0 in the variance, or to a subnormal that
    # makes it inf, which K = 2 / (var A + var B) reads as 0
    (lambda: QueueModel(Exponential(1e-300), Exponential(1.0)),
     "arrival law has a mean or variance outside the floating-point range"),
    (lambda: heavy_traffic(QueueModel(Exponential(1e-160), Exponential(1.0))),
     "arrival law has a mean or variance outside the floating-point range"),
    (lambda: QueueModel(Exponential(1.0), FiniteMixture(((1.0, "x"),))),
     "component must be a distribution, got 'x'"),
    (lambda: QueueModel("x", Exponential(2.0)), "arrival must be a distribution, got 'x'"),
    (lambda: QueueModel(Exponential(1.0), 3.0), "service must be a distribution, got 3.0"),
    (lambda: QueueModel(Exponential(1.0), split=Split(0.5, "x", Exponential(4.0))),
     "component must be a distribution, got 'x'"),
    (lambda: Split(0.5, "x", Exponential(1.0)), "component must be a distribution, got 'x'"),
], ids=["no-service", "negative-s", "no-split", "no-arrival", "underflowing-variance",
        "infinite-variance", "string-mixture-component", "string-arrival", "float-service",
        "string-class1", "string-class1-split-alone"])
def test_input_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("y", [0.0, -1.0, math.nan])
def test_gamma_p_trunc_refuses_a_level_that_is_not_positive(y):
    with pytest.raises(ValueError, match="y must be positive"):
        gamma_p_trunc(MM1, y)


def test_gamma_p_trunc_no_delays_is_infinite():
    # truncating below the shortest possible interarrival leaves no delays
    model = QueueModel(UniformInterval(1.0, 2.0), UniformInterval(0.0, 1.5))
    assert math.isinf(gamma_p_trunc(model, 0.5))


def test_y_star_mm1_oracle():
    crit = y_star(MM1)
    assert crit.value == pytest.approx(1.860392763, abs=1e-6)
    assert crit.tail_prob == pytest.approx(0.155611500, abs=1e-6)
    assert crit.tail_prob == pytest.approx(math.exp(-crit.value), abs=1e-9)


def test_y_star_deterministic_service_exact():
    crit = y_star(MD1)
    assert crit.value == 1.0
    assert crit.tail_prob == 0.0


def test_y_star_threshold_property():
    crit = y_star(MM1)
    gw = gamma_w(MM1)
    assert gamma_p_trunc(MM1, crit.value - 1e-4) >= gw - 1e-9
    assert gamma_p_trunc(MM1, crit.value + 1e-3) < gw


def test_y_star_grows_as_load_vanishes():
    values = [y_star(QueueModel(Exponential(rho), Exponential(1.0))).value
              for rho in (0.5, 0.2, 0.1, 0.05)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_heavy_traffic_mm1():
    model = QueueModel(Exponential(0.99), Exponential(1.0))
    ht = heavy_traffic(model)
    assert ht.K == pytest.approx(2.0 / (1.0 / 0.99**2 + 1.0))
    assert gamma_w(model) / ht.gamma_w_approx == pytest.approx(1.0, abs=0.03)


def test_heavy_traffic_priority_family():
    gaps = []
    for rho in (0.9, 0.99, 0.999):
        mean2 = 2.0 * rho - 0.25
        model = QueueModel(Exponential(1.0),
                           split=Split(0.5, Exponential(4.0),
                                       Exponential(1.0 / mean2)))
        ht = heavy_traffic(model)
        gaps.append(abs(gamma_w2(model).rate / ht.gamma_w2_approx - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_decay_report_fields_and_json():
    report = decay_report(ATOM)
    doc = report.to_json()
    assert list(doc.keys()) == ["gamma_w", "gamma_p", "gamma_w2", "gamma_v",
                                "regime", "s_opt", "a", "K", "rho", "q",
                                "x_b", "case"]
    assert doc["case"] == "atom"
    assert doc["q"] == pytest.approx(0.5)
    assert doc["x_b"] == 1.0
    assert doc["gamma_p"] == pytest.approx(0.108023232515, abs=1e-9)
    assert doc["gamma_w"] == pytest.approx(0.985001049898, abs=1e-9)
    assert doc["regime"] == "boundary"
    text = json.dumps(doc)
    assert json.loads(text) == json.loads(json.dumps(json.loads(text)))


def test_decay_report_split_model():
    model = QueueModel(Exponential(1.0),
                       split=Split(0.5, Exponential(4.0), Exponential(4.0)))
    doc = decay_report(model).to_json()
    assert doc["gamma_w2"] == pytest.approx((2 - math.sqrt(0.5)) ** 2, abs=1e-9)
    assert doc["regime"] == "interior"
    assert doc["a"] == 0.0


def test_model_json_round_trip():
    for model in (MM1, ATOM):
        back = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert back.arrival == model.arrival
        assert back.service == model.service
    split_model = QueueModel(Exponential(1.0),
                             split=Split(0.4, Exponential(2.0),
                                         Deterministic(1.0)))
    back = model_from_json(json.loads(json.dumps(model_to_json(split_model))))
    assert back.split == split_model.split
    assert back.service == split_model.service


def test_queue_model_validation():
    with pytest.raises(UnstableError):
        QueueModel(Exponential(2.0), Exponential(1.0))
    with pytest.raises(UnstableError):
        QueueModel(Deterministic(1.0), Deterministic(1.0))
    with pytest.raises(NoDelaysError):
        QueueModel(Deterministic(2.0), Deterministic(1.0))
    with pytest.raises(ValueError):
        Split(0.0, Exponential(1.0), Exponential(1.0))
    with pytest.raises(ValueError):
        Split(1.0, Exponential(1.0), Exponential(1.0))
    # explicit service must equal the split mixture when both are given
    with pytest.raises(ValueError):
        QueueModel(Exponential(1.0), Exponential(4.0),
                   split=Split(0.5, Exponential(4.0), Exponential(2.0)))


def test_split_model_derives_service_mixture():
    model = QueueModel(Exponential(1.0),
                       split=Split(0.25, Exponential(2.0), Deterministic(0.5)))
    assert isinstance(model.service, FiniteMixture)
    weights = [w for w, _ in model.service.components]
    assert weights == pytest.approx([0.25, 0.75])
    assert model.rho == pytest.approx(1.0 * (0.25 * 0.5 + 0.75 * 0.5))


def test_split_service_stays_outside_the_fields():
    a = Split(0.25, Exponential(2.0), Deterministic(0.5))
    b = Split(0.25, Exponential(2.0), Deterministic(0.5))
    assert a.service == FiniteMixture(((0.25, Exponential(2.0)),
                                       (0.75, Deterministic(0.5))))
    assert a == b and hash(a) == hash(b) and a.service is not b.service
    assert "service" not in repr(a)
    assert dataclasses.asdict(a).keys() == {"p", "class1", "class2"}
    assert QueueModel(Exponential(1.0), split=a).service is a.service


def test_rates_work_with_erlang_and_conditioned_laws():
    model = QueueModel(Erlang(2, 2.0), ConditionedBelow(Exponential(1.0), 2.0))
    gw, boundary = gamma_w_detail(model)
    assert not boundary
    assert mgf(model.arrival, -gw) * mgf(model.service, gw) == \
        pytest.approx(1.0, abs=1e-9)
    assert 0.0 < gamma_p(model) < gw


# D(1) arrivals against service support barely above them: the Lundberg
# search meets 0 * inf once the conditioned mgf overflows
NAN_SPLIT = QueueModel(
    Deterministic(1.0),
    split=Split(0.769, ConditionedBelow(Erlang(2, 2.864), 0.775),
                ConditionedBelow(Erlang(2, 2.753), 1.0098)))


def _count_mgf(monkeypatch):
    calls = [0]
    original = dist._mgf

    def counted(d, s):
        calls[0] += 1
        return original(d, s)
    monkeypatch.setattr(dist, "_mgf", counted)
    return calls


def test_nan_in_the_search_fails_fast(monkeypatch):
    calls = _count_mgf(monkeypatch)
    for solve in (gamma_w, decay_report, y_star):
        calls[0] = 0
        with pytest.raises(NumericalFailure, match="NaN"):
            solve(NAN_SPLIT)
        assert calls[0] < 200


def test_gamma_v_srpt_without_an_atom_solves_no_workload_rate():
    # gamma_w fails on this model, gamma_p does not, and q = 0 needs only it
    assert gamma_v_srpt(NAN_SPLIT) == SrptDecay(gamma_p(NAN_SPLIT), "no-atom")


@pytest.mark.parametrize("rho", [1e-4, 0.01, 0.5, 0.9, 0.99, 0.999, 0.9999])
def test_mm1_rates_are_relatively_exact(rho):
    model = QueueModel(Exponential(rho), Exponential(1.0))
    assert gamma_w(model) == pytest.approx(1.0 - rho, rel=1e-7, abs=0.0)
    assert gamma_p(model) == pytest.approx((1.0 - math.sqrt(rho)) ** 2,
                                           rel=1e-7, abs=0.0)


def test_gamma_p_is_at_least_the_grid_maximum():
    model = QueueModel(Erlang(2, 2.0), ConditionedBelow(Exponential(1.0), 2.0))
    grid = np.linspace(0.0, gamma_w(model), 20001)
    best = max(s - psi(model.arrival, model.service, s) for s in grid)
    assert gamma_p(model) >= best - 1e-9


def test_gamma_w2_interior_is_at_least_the_grid_maximum():
    model = QueueModel(UniformInterval(0.5, 1.5),
                       split=Split(0.5, Exponential(3.0), UniformInterval(0.0, 1.0)))
    d = gamma_w2(model)
    assert d.regime == "interior"
    p, class1 = model.split.p, model.split.class1
    service1 = FiniteMixture(((p, class1), (1.0 - p, Deterministic(0.0))))
    grid = np.linspace(0.0, gamma_w(model), 20001)
    best = max(s - psi(model.arrival, service1, s) for s in grid)
    assert d.rate >= best - 1e-9


def test_search_work_stays_bounded(monkeypatch):
    calls = _count_mgf(monkeypatch)
    decay_report(MM1)
    assert calls[0] <= 400
    calls[0] = 0
    y_star(MM1)
    assert calls[0] <= 5000


@pytest.mark.parametrize("rho", [1e-4, 1e-5])
def test_y_star_is_a_sign_change_at_low_load(rho):
    # P(B >= y) must not round to 0 in the truncation, or the excess
    # gamma_w - gamma_p_trunc jumps across zero instead of crossing it
    model = QueueModel(Exponential(rho), Exponential(1.0))
    value = y_star(model).value
    gw = gamma_w(model)
    below = gw - gamma_p_trunc(model, value * (1.0 - 1e-12))
    above = gw - gamma_p_trunc(model, value * (1.0 + 1e-12))
    assert -1e-9 <= below <= 0.0 <= above <= 1e-9


def test_y_star_tail_prob_at_tiny_load():
    crit = y_star(QueueModel(Exponential(1e-6), Exponential(1.0)))
    assert crit.tail_prob > 0.0
    assert crit.tail_prob == pytest.approx(math.exp(-crit.value), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("service", [Deterministic, lambda t: UniformInterval(0.0, 2.0 * t)],
                         ids=["deterministic", "uniform"])
def test_bounded_service_rates_past_two_to_the_199(service):
    # rates near 1e61 lie past 2**199, where the bracket search used to give up
    def rates(t):
        model = QueueModel(Exponential(0.5 / t), service(t))
        return gamma_w(model) * t, gamma_p(model) * t
    gw, gp = rates(1e-61)
    want_gw, want_gp = rates(1e-59)
    assert gw == pytest.approx(want_gw, rel=1e-12, abs=0.0)
    assert gp == pytest.approx(want_gp, rel=1e-12, abs=0.0)
    if service is Deterministic:
        assert gw == pytest.approx(1.25643120862617, rel=1e-12, abs=0.0)
        assert gp == pytest.approx(0.193147180559945, rel=1e-12, abs=0.0)


def test_slope_excess_underflow_in_a_large_time_unit():
    # at time unit 256, mgf_deriv(arrival, -u) underflows to 0 at u = 1 in
    # the psi' bracket search, which must read it as +inf, not fail
    def model(c):
        return QueueModel(Erlang(4, 4 / c), split=Split(
            0.7576266669404392, Deterministic(0.48347602229884035 * c),
            Deterministic(2.385995574634436 * c)))
    big, unit = decay_report(model(256.0)), decay_report(model(1.0))
    for name in ("gamma_w", "gamma_p", "gamma_v", "gamma_w2"):
        assert getattr(big, name) * 256.0 == pytest.approx(
            getattr(unit, name), rel=1e-13, abs=0.0), name


def test_heavy_traffic_ratio_is_free_of_the_time_unit():
    def ratio(t):
        model = QueueModel(Exponential(0.95 / t), Exponential(1.0 / t))
        return gamma_w(model) / heavy_traffic(model).gamma_w_approx
    assert ratio(10.0) == pytest.approx(ratio(1.0), rel=1e-12, abs=0.0)


def _pinned_law(rng, mean, nested=True):
    # one of the six variants, of about the given mean
    kind = int(rng.integers(6 if nested else 5))
    if kind == 0:
        return Exponential(1.0 / mean)
    if kind == 1:
        return Deterministic(mean)
    if kind == 2:
        lo = mean * rng.uniform(0.0, 0.9)
        return UniformInterval(lo, 2.0 * mean - lo)
    k = int(rng.integers(1, 5))
    if kind == 3:
        return Erlang(k, k / mean)
    if kind == 4:
        return ConditionedBelow(Erlang(k, k / mean), mean * rng.uniform(0.8, 3.0))
    w = rng.uniform(0.1, 0.9)
    return FiniteMixture(((w, _pinned_law(rng, mean * rng.uniform(0.3, 1.0), False)),
                          (1.0 - w, _pinned_law(rng, mean * rng.uniform(1.0, 2.0), False))))


def _pinned_models(seed, count):
    # GI/GI models over the algebra, endpoint atoms and two-class splits in
    # turn; unstable or never-queueing draws are skipped
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        arrival = _pinned_law(rng, 1.0)
        rho = rng.uniform(0.2, 0.95)
        kind = len(out) % 3
        try:
            if kind == 0:
                out.append(QueueModel(arrival, _pinned_law(rng, rho)))
            elif kind == 1:
                q, top = rng.uniform(0.05, 0.95), rng.uniform(1.0, 3.0)
                body = _pinned_law(rng, rho, False)
                if not dist.support(body)[1] < top * rho:
                    body = UniformInterval(0.0, rho)
                out.append(QueueModel(arrival, FiniteMixture(
                    ((1.0 - q, body), (q, Deterministic(top * rho))))))
            else:
                out.append(QueueModel(arrival, split=Split(
                    rng.uniform(0.15, 0.85), _pinned_law(rng, rho * rng.uniform(0.2, 1.0)),
                    _pinned_law(rng, rho * rng.uniform(0.5, 2.0)))))
        except (NoDelaysError, UnstableError, ValueError):
            pass
    return out


# sha256 over the reprs of decay_report on 99 seeded models, y_star on three
# and gamma_p_trunc at four cutoffs of those three; pins every analytic
# search bit for bit
PINNED_ANALYTIC = "907c2e17fb365b2c4eec9a11ed2f28dd29379d3170bbd88ef825b94da779ac13"


def test_analytic_rates_match_pinned_digest():
    h = hashlib.sha256()
    seen = set()
    models = _pinned_models(2026, 99)
    for model in models:
        try:
            report = decay_report(model)
        except NumericalFailure as exc:
            report = exc
        h.update(repr(report).encode())
        seen.add((getattr(report, "case", None), getattr(report, "regime", None)))
    for model in (MM1, ATOM, models[2]):
        h.update(repr(y_star(model)).encode())
        mean = dist.moments(model.service)[0]
        for f in (0.3, 0.7, 1.5, 4.0):
            h.update(repr(gamma_p_trunc(model, f * mean)).encode())
    assert {("atom", "interior"), ("atom", "boundary"), ("no-atom", "interior"),
            ("no-atom", "boundary"), ("deterministic", None)} <= seen
    assert h.hexdigest() == PINNED_ANALYTIC


def _program_models():
    # criterion 3's seeded two-class models, then endpoint atoms over a
    # uniform, a conditioned Erlang and a deterministic body
    rng = np.random.default_rng(20240817)
    split_models = [_random_two_class(rng) for _ in range(100)]
    atom_models = [ATOM, TWO_ATOM, QueueModel(Erlang(2, 1.5), FiniteMixture(
        ((0.3, UniformInterval(0.1, 0.4)), (0.7, Deterministic(0.6))))),
        QueueModel(Exponential(0.8), FiniteMixture(
            ((0.6, ConditionedBelow(Erlang(2, 3.0), 1.2)), (0.4, Deterministic(1.2)))))]
    return split_models + atom_models


# sha256 over the reprs of gamma_w2, gamma_v_srpt and gamma_p_detail on the
# models above; pins the concave program's regimes bit for bit
PINNED_PROGRAM = "f81b9b89dd08985a447dcdecfa05cb5bac9e490d38dcfe62cd0dbdfe36ee1fbf"


def test_concave_program_rates_match_pinned_digest():
    h = hashlib.sha256()
    seen = set()
    for model in _program_models():
        if model.split is not None:
            pr = gamma_w2(model)
            seen.add(pr.regime)
            h.update(repr(pr).encode())
        sv = gamma_v_srpt(model)
        seen.add(sv.case)
        h.update(repr(sv).encode())
        h.update(repr(gamma_p_detail(model)).encode())
    assert seen == {"interior", "boundary", "no-atom", "atom"}
    assert h.hexdigest() == PINNED_PROGRAM
