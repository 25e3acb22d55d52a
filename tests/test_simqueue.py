import gc
import io
import math
import tracemalloc

import numpy as np
import pytest

from queuedecay.dist import (
    Deterministic,
    Erlang,
    Exponential,
    UniformInterval,
    sample_array,
    stream,
)
from queuedecay.ratecalc import NumericalFailure, QueueModel, Split, psi
from queuedecay.simqueue import (
    Discipline,
    busy_to_csv,
    cycle_psi,
    empirical_psi,
    lindley_workload,
    run,
    service_bins,
    write_records_csv,
)

MM1 = QueueModel(Exponential(0.5), Exponential(1.0))
SPLIT = QueueModel(Exponential(1.0),
                   split=Split(0.5, UniformInterval(0.0, 0.5),
                               Deterministic(1.0)))


def _slack(out):
    return 16 * np.spacing(out.total_time)


def test_lindley_recursion_hand_check():
    w = lindley_workload(np.array([1.0, 2.0, 1.0]), np.array([3.0, 0.5, 1.0]))
    assert w[0] == 0.0
    assert w[1] == max(0.0 + 3.0 - 2.0, 0.0)
    assert w[2] == max(w[1] + 0.5 - 1.0, 0.0)


def test_lindley_empties_under_sparse_arrivals():
    w = lindley_workload(np.array([5.0, 5.0, 5.0]), np.array([1.0, 1.0, 1.0]))
    assert np.all(w == 0.0)


def test_run_workload_equals_lindley():
    out = run(MM1, Discipline.FIFO, 5000, 21)
    inter = sample_array(MM1.arrival, stream(21, 0), 5000)
    expect = lindley_workload(inter, out.service_time)
    assert np.array_equal(out.workload_at_arrival, expect)


def test_fifo_waiting_equals_workload():
    out = run(MM1, Discipline.FIFO, 50_000, 5)
    gap = np.abs(out.first_service_start - out.arrival_time
                 - out.workload_at_arrival)
    assert gap.max() <= 1e-9


def test_workload_identical_across_disciplines():
    outs = [run(SPLIT, d, 20_000, 8) for d in Discipline]
    for other in outs[1:]:
        assert np.array_equal(outs[0].workload_at_arrival,
                              other.workload_at_arrival)
        assert np.array_equal(outs[0].busy_durations, other.busy_durations)


def test_deterministic_service_srpt_is_fifo():
    model = QueueModel(Exponential(0.5), Deterministic(1.0))
    fifo = run(model, Discipline.FIFO, 30_000, 13)
    for d in (Discipline.SRPT_PR, Discipline.SRPT_NP):
        other = run(model, d, 30_000, 13)
        assert np.array_equal(fifo.departure_time, other.departure_time)
        assert np.array_equal(fifo.first_service_start,
                              other.first_service_start)


def test_priority_first_service_insensitive_to_preemption():
    pr = run(SPLIT, Discipline.PRIO_PR, 30_000, 17)
    np_ = run(SPLIT, Discipline.PRIO_NP, 30_000, 17)
    two = pr.customer_class == 2
    assert two.sum() > 1000
    assert np.array_equal(pr.first_service_start[two],
                          np_.first_service_start[two])
    # preemption does delay class-2 departures on some paths
    assert np.any(pr.departure_time[two] > np_.departure_time[two])


def test_bitwise_determinism():
    a = run(SPLIT, Discipline.SRPT_PR, 10_000, 99)
    b = run(SPLIT, Discipline.SRPT_PR, 10_000, 99)
    for field in ("arrival_time", "service_time", "customer_class",
                  "first_service_start", "departure_time",
                  "workload_at_arrival", "busy_starts", "busy_durations"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_busy_periods_recompute_and_cover_departures():
    out = run(MM1, Discipline.FIFO, 20_000, 31)
    assert np.array_equal(out.busy_starts,
                          out.arrival_time[out.workload_at_arrival == 0.0])
    starts = out.busy_starts
    ends = starts + out.busy_durations
    span = np.searchsorted(starts, out.arrival_time, side="right") - 1
    assert (out.departure_time <= ends[span] + 1e-9).all()
    # the last departure in each span reaches the span end
    last_dep = np.zeros(len(starts))
    np.maximum.at(last_dep, span, out.departure_time)
    assert np.abs(last_dep - ends).max() <= 1e-9


def test_busy_period_work_conservation():
    out = run(MM1, Discipline.LIFO_PR, 20_000, 31)
    starts_idx = np.flatnonzero(out.workload_at_arrival == 0.0)
    bounds = np.append(starts_idx, out.n)
    sums = np.add.reduceat(out.service_time, starts_idx)
    assert (sums <= out.busy_durations + 1e-9).all()
    assert np.abs(sums - out.busy_durations).max() <= 1e-9
    assert len(starts_idx) == len(out.busy_durations)


def test_mm1_mean_busy_period():
    out = run(MM1, Discipline.FIFO, 400_000, 2)
    durations = out.busy_durations
    se = durations.std(ddof=1) / math.sqrt(len(durations))
    assert abs(durations.mean() - 2.0) <= 3 * se


def test_srpt_mean_sojourn_no_worse_than_fifo():
    fifo = run(SPLIT, Discipline.FIFO, 100_000, 23)
    srpt = run(SPLIT, Discipline.SRPT_PR, 100_000, 23)
    assert srpt.sojourn().mean() <= fifo.sojourn().mean()


def test_per_record_sanity_all_disciplines():
    for d in Discipline:
        out = run(SPLIT, d, 15_000, 3)
        slack = _slack(out)
        k = out.kept()
        assert (out.sojourn() >= out.service_time[k] - slack).all()
        assert (out.waiting() >= -slack).all()
        assert (out.first_service_start >= out.arrival_time - slack).all()
        assert (out.departure_time >= out.first_service_start - slack).all()


def test_sojourn_within_residual_busy_period():
    out = run(SPLIT, Discipline.SRPT_PR, 30_000, 41)
    ends = out.busy_starts + out.busy_durations
    span = np.searchsorted(out.busy_starts, out.arrival_time, "right") - 1
    assert (out.departure_time <= ends[span] + 1e-9).all()


def test_lifo_preemptive_never_queues_new_arrivals():
    out = run(MM1, Discipline.LIFO_PR, 10_000, 12)
    assert np.array_equal(out.first_service_start, out.arrival_time)


def test_warmup_slicing():
    out = run(MM1, Discipline.FIFO, 1000, 1, warmup_fraction=0.3)
    assert out.warmup == 300
    assert len(out.waiting()) == 700
    zero = run(MM1, Discipline.FIFO, 1000, 1, warmup_fraction=0.0)
    assert zero.warmup == 0 and len(zero.sojourn()) == 1000


def test_run_argument_validation():
    with pytest.raises(ValueError):
        run(MM1, Discipline.FIFO, 0, 1)
    with pytest.raises(ValueError):
        run(MM1, Discipline.FIFO, 100, 1, warmup_fraction=1.0)
    with pytest.raises(ValueError):
        run(MM1, Discipline.PRIO_PR, 100, 1)  # needs a split
    out = run(MM1, Discipline("srpt-pr"), 100, 1)
    assert out.discipline is Discipline.SRPT_PR


def test_split_streams_shared_across_disciplines():
    a = run(SPLIT, Discipline.FIFO, 5000, 77)
    b = run(SPLIT, Discipline.PRIO_PR, 5000, 77)
    assert np.array_equal(a.arrival_time, b.arrival_time)
    assert np.array_equal(a.service_time, b.service_time)
    assert np.array_equal(a.customer_class, b.customer_class)
    assert set(np.unique(a.customer_class)) == {1, 2}
    c = run(MM1, Discipline.FIFO, 5000, 77)
    assert set(np.unique(c.customer_class)) == {0}


def test_empirical_psi_zero_is_exact():
    assert empirical_psi(MM1, 0.0, 50.0, 64, 4) == 0.0


def test_empirical_psi_band_tightens_with_replications():
    target = 0.5 * 0.1 / 0.9
    rough = empirical_psi(MM1, 0.1, 200.0, 100, 6)
    fine = empirical_psi(MM1, 0.1, 200.0, 4000, 6)
    assert abs(rough / target - 1.0) <= 0.20
    assert abs(fine / target - 1.0) <= 0.05


def test_empirical_psi_overflow_is_reported():
    with pytest.raises(NumericalFailure):
        empirical_psi(MM1, 60.0, 100.0, 4, 1)


def test_empirical_psi_validation():
    with pytest.raises(ValueError):
        empirical_psi(MM1, 0.1, 0.0, 10, 1)
    with pytest.raises(ValueError):
        empirical_psi(MM1, 0.1, 10.0, 0, 1)


def test_cycle_psi_zero_is_exact():
    assert cycle_psi(MM1, 0.0, 50.0, 64, 4) == 0.0


def test_cycle_psi_validation():
    with pytest.raises(ValueError):
        cycle_psi(MM1, 0.1, 0.0, 10, 1)
    with pytest.raises(ValueError):
        cycle_psi(MM1, 0.1, 10.0, 0, 1)
    with pytest.raises(ValueError):
        cycle_psi(MM1, -0.1, 10.0, 10, 1)


def test_cycle_psi_matches_renewal_psi():
    model = QueueModel(Erlang(3, 1.5), UniformInterval(0.0, 1.5))
    est = cycle_psi(model, 0.5, 2000.0, 200, 3)
    target = psi(model.arrival, model.service, 0.5)
    assert abs(est / target - 1.0) <= 0.01


def test_cycle_psi_detects_wrong_service_rate():
    # criterion 10's setup with service streams slowed by 5 percent must
    # miss the Exp(1.0) target by more than its 5 percent tolerance
    slow = QueueModel(Exponential(0.5), Exponential(0.95))
    est = cycle_psi(slow, 0.25, 500.0, 2000, 12345)
    target = 0.5 * 0.25 / (1.0 - 0.25)
    assert abs(est / target - 1.0) > 0.05


def test_service_bins_partition():
    out = run(MM1, Discipline.FIFO, 20_000, 9)
    bins = service_bins(out, 0.5)
    total = sum(len(ix) for _, _, ix in bins)
    assert total == out.n - out.warmup
    svc = out.service_time[out.kept()]
    for lo, hi, ix in bins:
        assert ((svc[ix] >= lo) & (svc[ix] < hi)).all()
    with pytest.raises(ValueError):
        service_bins(out, 0.0)


def test_csv_export_schema(tmp_path):
    out = run(SPLIT, Discipline.PRIO_PR, 200, 14)
    path = tmp_path / "records.csv"
    with open(path, "w", newline="") as fh:
        write_records_csv(out, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == ("index,arrival,service,class,first_service,"
                        "departure,workload_at_arrival")
    assert len(lines) == 1 + out.n - out.warmup
    first = lines[1].split(",")
    assert int(first[0]) == out.warmup
    assert float(first[1]) == out.arrival_time[out.warmup]
    buf = io.StringIO()
    write_records_csv(out, buf)
    assert buf.getvalue().splitlines() == lines


def test_busy_csv_schema(tmp_path):
    out = run(MM1, Discipline.FIFO, 500, 14)
    path = tmp_path / "busy.csv"
    busy_to_csv(out, str(path))
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows[0] == ["start", "duration"]
    assert [float(r[0]) for r in rows[1:]] == out.busy_starts.tolist()
    assert [float(r[1]) for r in rows[1:]] == out.busy_durations.tolist()


def test_cycle_psi_frees_its_pooled_arrays():
    # brentq's wrapper refers to itself, so a function closing over the
    # pooled arrays would keep them alive until the cyclic collector runs
    cycle_psi(MM1, 0.25, 500.0, 200, 3)      # warm up lazy imports
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cycle_psi(MM1, 0.25, 500.0, 200, 3)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    pooled = 2 * 8 * 0.5 * 500.0 * 200     # two arrays of about lambda t n floats
    assert grown < 0.05 * pooled
