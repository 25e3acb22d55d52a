"""The benchmark's own test: each workload at a small size passes its
checks on the default seed, and each check fails on a perturbed result.
The traced round counts repeat exactly and the wrappers come off again.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import itertools
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import queuedecay as qd  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def _flagged(workload, out):
    raised, wrong = workload.check(out)
    assert not raised
    return set(wrong)


@pytest.fixture(scope="module")
def rates():
    w = workloads.RatesSweep(qd, SEED, 0.02)
    return w, w.run_round()[0]


@pytest.fixture(scope="module")
def disciplines():
    w = workloads.DisciplineSweep(qd, SEED, 0.0)
    return w, w.run_round()[0]


@pytest.fixture(scope="module")
def rare():
    w = workloads.RareEvents(qd, SEED, 0.0)
    return w, w.run_round()[0]


def _first(w, kind):
    return next(i for i, c in enumerate(w.cases) if c.kind == kind)


def test_rates_sweep_passes_and_covers_every_family(rates):
    w, out = rates
    assert _flagged(w, out) == set()
    assert {c.kind for c in w.cases} == {"mm1", "md1", "atom", "qsweep", "gi", "split"}
    assert w.items == len(w.ops) == len(out)


@pytest.mark.parametrize("kind", ["atom", "mm1", "qsweep", "split", "md1"])
def test_rates_check_catches_scaled_gamma_v(rates, kind):
    w, out = rates
    op = f"decay_report:{_first(w, kind)}"
    bad = dict(out)
    bad[op] = dataclasses.replace(out[op], gamma_v=out[op].gamma_v * 1.01)
    assert op in _flagged(w, bad)


def test_rates_check_catches_a_falling_q_sweep(rates):
    w, out = rates
    sweep = [f"decay_report:{i}" for i, c in enumerate(w.cases) if c.sweep == 0]
    op = sweep[2]         # q = 0.4, an atom case pinned to neither end
    bad = dict(out)
    bad[op] = dataclasses.replace(out[op], gamma_v=out[sweep[1]].gamma_v * 0.99)
    assert "fell along the q sweep" in w.check(bad)[1][op]


@pytest.mark.parametrize("which", ["grid", "extra"])
def test_rates_check_catches_a_moved_y_star(rates, which):
    w, out = rates
    op = "y_star:0" if which == "grid" else f"y_star:{len(w.ystar_models) - 1}"
    bad = dict(out)
    bad[op] = dataclasses.replace(out[op], value=out[op].value * 1.01)
    assert op in _flagged(w, bad)


def test_discipline_sweep_passes(disciplines):
    w, out = disciplines
    assert _flagged(w, out) == set()


@pytest.mark.parametrize("a,b", list(itertools.combinations(workloads.DISCIPLINES, 2)))
def test_discipline_check_catches_swapped_arrays(disciplines, a, b):
    w, out = disciplines
    bad = dict(out)
    bad[f"run:{a}"], bad[f"run:{b}"] = out[f"run:{b}"], out[f"run:{a}"]
    assert _flagged(w, bad) & {f"run:{a}", f"run:{b}"}


def test_discipline_check_catches_perturbed_rates_and_fits(disciplines):
    w, out = disciplines
    bad = dict(out)
    bad["decay_report"] = dataclasses.replace(
        out["decay_report"], gamma_v=out["decay_report"].gamma_v * 1.01)
    for op in ("fit:srpt-pr-sojourn", "fit:fifo-waiting"):
        bad[op] = dataclasses.replace(out[op], rate=out[op].rate * 1.5)
    assert _flagged(w, bad) == {"decay_report", "fit:srpt-pr-sojourn",
                                "fit:fifo-waiting"}


def test_discipline_check_catches_a_shifted_wait(disciplines):
    w, out = disciplines
    fifo = out["run:fifo"]
    bad = dict(out)
    bad["run:fifo"] = dataclasses.replace(
        fifo, first_service_start=fifo.first_service_start + 0.2,
        departure_time=fifo.departure_time + 0.2)
    assert "run:fifo" in _flagged(w, bad)


def test_rare_events_passes(rare):
    w, out = rare
    assert _flagged(w, out) == set()


def test_rare_events_check_catches_perturbations(rare):
    w, out = rare
    bad = dict(out)
    est, rel_se = out["is:20"]
    bad["is:20"] = (2.0 * est, rel_se)
    bad["cycle_psi:mm1"] = out["cycle_psi:mm1"] * 1.05
    x, fit = out["bootstrap"]
    bad["bootstrap"] = (x, dataclasses.replace(fit, rate=fit.rate * 1.2))
    assert _flagged(w, bad) == {"is:20", "cycle_psi:mm1", "bootstrap"}


def test_a_raising_operation_counts_as_failed(rare):
    w, out = rare
    bad = dict(out)
    bad["cycle_psi:mm1"] = RuntimeError("boom")
    del bad["bootstrap"]
    raised, wrong = w.check(bad)
    assert raised == {"cycle_psi:mm1", "bootstrap"} and not wrong


def test_traced_counts_repeat_and_wrappers_come_off():
    w = workloads.RatesSweep(qd, SEED, 0.02)
    before = (qd.dist._mgf, qd.decay_report, qd.simqueue.sample_array)
    t = tracer.Tracer(qd)
    for k in (1, 3):
        t.install(k)
        try:
            w.run_round()
        finally:
            t.uninstall()
    assert (qd.dist._mgf, qd.decay_report, qd.simqueue.sample_array) == before
    assert t.round_counts[1] == t.round_counts[3]
    metrics = t.layer_metrics()
    assert set(metrics) == {name for name, _ in tracer.PER_LAYER} - {"trace.overhead_pct"}
    assert metrics["dist.mgf_evals"] == t.round_counts[1]["dist._mgf"] > 0
    assert metrics["ratecalc.y_star_trunc_calls"] > 0
    assert metrics["simqueue.run_s"] == 0.0
