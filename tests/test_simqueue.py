import gc
import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from queuedecay.dist import (
    Deterministic,
    Erlang,
    Exponential,
    FiniteMixture,
    UniformInterval,
    sample_array,
    stream,
)
from queuedecay import _kernels, simqueue
from queuedecay.ratecalc import NumericalFailure, QueueModel, Split, psi
from queuedecay.simqueue import (
    Discipline,
    _streams,
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


# sha256 over every SimOutput array (native byte order), seeds 1 and 7 in
# turn, n = 20 000; the figures pin the sample paths bit for bit
PINNED_MODELS = {
    "atom": SPLIT,
    "erlang": QueueModel(Exponential(0.9),
                         split=Split(0.5, Exponential(2.0), Erlang(2, 1.5))),
    "det": QueueModel(Exponential(0.5),
                      split=Split(0.5, Deterministic(1.0), Deterministic(1.0))),
    "mm1": MM1,
    # completions tie exactly with arrivals
    "tie": QueueModel(Deterministic(2.0),
                      split=Split(0.6, Deterministic(1.0), Deterministic(3.0))),
    # load 0.95, so the queue gets deep
    "heavy": QueueModel(Exponential(0.95),
                        split=Split(0.4, Exponential(2.0), Erlang(2, 1.5))),
}
PINNED_DIGESTS = {
    ("atom", "fifo"): "a4c785984f88c8000c50e319c16261baa349a4c567ddb8bfdfbf0956fdf85430",
    ("atom", "lifo-pr"): "e51ed09ae37fb4bff3ca2c81933ed5740175b02fa40eec4f5bb3a5508409f213",
    ("atom", "srpt-pr"): "2637b83bc29128596e90d276d638920b81f60829ea84efdffa2b22aa1f169e79",
    ("atom", "srpt-np"): "9c2f4bd6394da26858f4ba9328787f6eb8a913d9cafaed8baa73d4e7eb1bf08a",
    ("atom", "prio-pr"): "0a845057acbc47fd7a8939e8b33797b4a6dafdc8c278445ea7c012ad3332374b",
    ("atom", "prio-np"): "94ef94a2771f27b5a5de09bfab46f3a7306065668e44b753fe1e20b4438fd543",
    ("erlang", "fifo"): "0e5470360ff1c009249ed1e1c198a90d94cce6a9f1c1bebb09c05c1230736f4f",
    ("erlang", "lifo-pr"): "956769d056f2f0291899097be52dfe322890d38083744b566b84db4f8f506c59",
    ("erlang", "srpt-pr"): "ea2a1f167fe7a5a835da6d6726f28f770dc15a1a9cd4de2aaa62adc53d451edf",
    ("erlang", "srpt-np"): "dea7ee7f4161bf325e2d2bf091157d9c04c8b67a8a057d9de36a096ac950447e",
    ("erlang", "prio-pr"): "913b90f5965ee4218bfb94786e0e6c9da49ed529713c6f15b701a33fd022d212",
    ("erlang", "prio-np"): "a65891d76b935b48d1b6e62e895d8d0ceccec9d9fe54e26f6c97baaa46bff3ad",
    ("det", "fifo"): "ee355b5120e87f95275b85d95394943446ee5cec700f723f41e369742f6db89d",
    ("det", "lifo-pr"): "650b57366f300ef4b5e0f8700a1bfd422cf48217aa52f76d76f97120471a047e",
    ("det", "srpt-pr"): "ee355b5120e87f95275b85d95394943446ee5cec700f723f41e369742f6db89d",
    ("det", "srpt-np"): "ee355b5120e87f95275b85d95394943446ee5cec700f723f41e369742f6db89d",
    ("det", "prio-pr"): "3378868c0332255b9025448cd0ea5c47e3637e0ea584875d8f6abed5e5271f55",
    ("det", "prio-np"): "1e3a1ef92c59c82414a7584270a0b445a3cdde707d1a4d1735ad74b0e6fea981",
    ("mm1", "fifo"): "dcff8f0bfcd13b6b0c7a5a921646691fd9de292cce8fe1c52ab8f65f4e4fcab6",
    ("mm1", "lifo-pr"): "e0b819661c5de4577ad6e4a7dad7f5f10319e136d78c5045a48ee0f98a3d4538",
    ("mm1", "srpt-pr"): "1f738b7d4d3ef64799b7c1b9e94e799790f8173fb1e5f6995bffab91afcac184",
    ("mm1", "srpt-np"): "c427008abf1711d254105b83102a3845872fd511ef65183d1ae91c66c4e9aa3a",
    ("tie", "fifo"): "2a339a077e75d8337caa3b4440609d98a650d996267031c89ccdb91a0735efa4",
    ("tie", "lifo-pr"): "3dd86926f04460bf44ac0deb7759115c5197d9bb7f12394a73ad6cd9fde7f8d6",
    ("tie", "srpt-pr"): "861e83ab788c9e620d9edfcd64a82d46ae41119d5daaa6b430ab8d94061aafc2",
    ("tie", "srpt-np"): "be8d74cf576d84be81af20be740fdf7e7ed08981e2b84898032f713eab8f3f33",
    ("tie", "prio-pr"): "35a23bbd01f221c171119a477f95ff721aafd516ff6d2b5d1311a38a1c2b422f",
    ("tie", "prio-np"): "be8d74cf576d84be81af20be740fdf7e7ed08981e2b84898032f713eab8f3f33",
    ("heavy", "fifo"): "2e91019aa713578843da6ae87c0e8837bec025ed41fa3b8c5d95531fe5c5f652",
    ("heavy", "lifo-pr"): "58a139348691fd0f839ef9a607dcd94a3fa9d2fc7b758b5de2c81670fc0a2ebb",
    ("heavy", "srpt-pr"): "119f4a985d6a9ce8a66544f09997c1293907050265a38fcd117b5f6796428731",
    ("heavy", "srpt-np"): "3498f689a772c35e4a37a52b14c4a7de0888a2f0c42d1670e881b1c3621d3fde",
    ("heavy", "prio-pr"): "66e4c9b2dce314539b81226f51548818bd7f13b394f01778892b37a81a785b20",
    ("heavy", "prio-np"): "bacf9ad231b339fb751a4630d7727eda37d745f2f5035938035892295ada1272",
}
SIM_FIELDS = ("arrival_time", "service_time", "customer_class",
              "first_service_start", "departure_time", "workload_at_arrival",
              "busy_starts", "busy_durations")


@pytest.mark.parametrize("name,discipline", PINNED_DIGESTS)
def test_sample_paths_match_pinned_digests(name, discipline):
    h = hashlib.sha256()
    for seed in (1, 7):
        out = run(PINNED_MODELS[name], Discipline(discipline), 20_000, seed)
        for field in SIM_FIELDS:
            h.update(getattr(out, field).tobytes())
    assert h.hexdigest() == PINNED_DIGESTS[name, discipline]


def _outputs(model, discipline, n, seed):
    _streams.cache_clear()
    out = run(model, discipline, n, seed)
    return [getattr(out, field) for field in SIM_FIELDS]


def _assert_paths_agree(monkeypatch, model, discipline, n, seed):
    # the active path (compiled wherever a C compiler works) against the
    # Python loops, array for array and bit for bit
    active = _outputs(model, discipline, n, seed)
    with monkeypatch.context() as m:
        m.setattr(_kernels, "load", lambda: None)
        python = _outputs(model, discipline, n, seed)
    _streams.cache_clear()
    for field, a, b in zip(SIM_FIELDS, active, python):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("name,discipline", PINNED_DIGESTS)
@pytest.mark.parametrize("seed", [1, 7])
def test_compiled_and_python_loops_agree_on_pinned_cases(
        monkeypatch, name, discipline, seed):
    _assert_paths_agree(monkeypatch, PINNED_MODELS[name],
                        Discipline(discipline), 20_000, seed)


@pytest.mark.parametrize("discipline", list(Discipline))
def test_compiled_and_python_loops_agree_on_one_customer(monkeypatch, discipline):
    _assert_paths_agree(monkeypatch, SPLIT, discipline, 1, 3)


@pytest.mark.parametrize("discipline", list(Discipline))
def test_compiled_and_python_loops_agree_on_one_busy_period(monkeypatch, discipline):
    heavy = QueueModel(Exponential(1.0),
                       split=Split(0.5, UniformInterval(0.5, 1.0),
                                   Deterministic(1.2)))
    seed = next(s for s in range(1, 200) if len(_fresh(heavy, 40, s)[4]) == 1)
    _assert_paths_agree(monkeypatch, heavy, discipline, 40, seed)


@pytest.mark.parametrize("discipline", [Discipline.SRPT_PR, Discipline.SRPT_NP])
def test_compiled_and_python_loops_agree_on_srpt_ties(monkeypatch, discipline):
    # every service is 1.0, so the SRPT queue breaks each tie on the index
    _assert_paths_agree(monkeypatch, PINNED_MODELS["det"], discipline, 50_000, 3)


def test_a_failing_compiler_falls_back_silently(monkeypatch, tmp_path, capfd):
    compiled = _kernels.load() is not None
    active = _outputs(SPLIT, Discipline.SRPT_PR, 2000, 4)
    failing = [sys.executable, "-c", "print('cc: broken'); raise SystemExit(1)"]
    try:
        with monkeypatch.context() as m:
            m.setattr(_kernels, "compiler", lambda: failing)
            m.setattr(_kernels, "cache_dir", lambda: str(tmp_path))
            _kernels.load.cache_clear()
            assert _kernels.load() is None
            fallback = _outputs(SPLIT, Discipline.SRPT_PR, 2000, 4)
    finally:
        # the next load goes back to the real compiler and cache
        _kernels.load.cache_clear()
        _streams.cache_clear()
    assert capfd.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []
    assert all(a.tobytes() == b.tobytes() for a, b in zip(active, fallback))
    assert (_kernels.load() is not None) == compiled


def test_a_library_that_will_not_load_is_built_again(monkeypatch, tmp_path):
    if _kernels.load() is None:
        pytest.skip("no working C compiler")
    try:
        with monkeypatch.context() as m:
            m.setattr(_kernels, "cache_dir", lambda: str(tmp_path))
            path = _kernels.library_path(_kernels.compiler())
            with open(path, "wb") as fh:
                fh.write(b"not a shared library")
            _kernels.load.cache_clear()
            assert _kernels.load() is not None
            with open(path, "rb") as fh:
                assert fh.read(4) != b"not "
            assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]
    finally:
        _kernels.load.cache_clear()
    assert _kernels.load() is not None


def test_kernels_load_on_first_use_not_at_import():
    code = ("import sys, queuedecay as qd; "
            "print('queuedecay._kernels' in sys.modules); "
            "qd.run(qd.QueueModel(qd.Exponential(0.5), qd.Exponential(1.0)), "
            "qd.Discipline.FIFO, 10, 1); "
            "print('queuedecay._kernels' in sys.modules)")
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("n", [1000.0, True, 10.5, "1000", None])
def test_run_rejects_a_non_integral_n(n):
    with pytest.raises(ValueError, match="integer"):
        run(MM1, Discipline.FIFO, n, 1)


def test_run_accepts_a_numpy_integer_n():
    assert run(MM1, Discipline.FIFO, np.int64(100), 1).n == 100


def test_lindley_accepts_lists_and_strided_arrays():
    a = np.array([1.0, 9.0, 2.0, 9.0, 1.0, 9.0])
    b = np.array([3.0, 9.0, 0.5, 9.0, 1.0, 9.0])
    expect = lindley_workload(np.array([1.0, 2.0, 1.0]), np.array([3.0, 0.5, 1.0]))
    assert expect.tolist() == [0.0, 1.0, 0.5]
    assert np.array_equal(lindley_workload(a[::2], b[::2]), expect)
    assert np.array_equal(lindley_workload([1, 2, 1], [3.0, 0.5, 1.0]), expect)
    assert lindley_workload([], []).tolist() == []


def test_lindley_rejects_sequences_of_unequal_length():
    with pytest.raises(ValueError, match="sequences must have equal length"):
        lindley_workload([1.0], [1.0, 2.0])


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


@pytest.mark.parametrize("name", PINNED_MODELS)
def test_busy_periods_end_at_fifos_last_departure_bitwise(name):
    # a busy period opens at each arrival that finds no work; every
    # discipline empties the system at FIFO's last departure of the period,
    # bit for bit, and the LIFO-PR customer who opens it leaves exactly then
    model = PINNED_MODELS[name]
    disciplines = [d for d in Discipline if model.split is not None
                   or d not in (Discipline.PRIO_PR, Discipline.PRIO_NP)]
    for seed in (1, 7):
        outs = {d: run(model, d, 20_000, seed) for d in disciplines}
        opens = np.flatnonzero(outs[Discipline.FIFO].workload_at_arrival == 0.0)
        end = np.maximum.reduceat(outs[Discipline.FIFO].departure_time, opens)
        for d, out in outs.items():
            assert np.maximum.reduceat(out.departure_time, opens).tobytes() == end.tobytes(), d
        assert outs[Discipline.LIFO_PR].departure_time[opens].tobytes() == end.tobytes()


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
    for prio in (Discipline.PRIO_PR, Discipline.PRIO_NP, "prio-np"):
        with pytest.raises(ValueError, match="two-class split"):
            run(MM1, prio, 100, 1)
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


STREAM_FIELDS = ("arrival_time", "service_time", "customer_class",
                 "workload_at_arrival", "busy_starts", "busy_durations")


def _fresh(model, n, seed):
    # the stream stage computed anew, past the memo
    return _streams.__wrapped__(model, n, seed)


def _streams_of(out):
    return tuple(getattr(out, f) for f in STREAM_FIELDS)


def test_stream_memo_is_keyed_on_model_n_and_seed():
    _streams.cache_clear()
    twin = QueueModel(Exponential(1.0),
                      split=Split(0.5, UniformInterval(0.0, 0.5),
                                  Deterministic(1.0)))
    assert twin == SPLIT and twin is not SPLIT
    calls = [(SPLIT, 4000, 1), (SPLIT, 4000, 2), (SPLIT, 3000, 2),
             (twin, 3000, 2), (MM1, 3000, 2)]
    for model, n, seed in calls:
        got = _streams_of(run(model, Discipline.FIFO, n, seed))
        expect = _fresh(model, n, seed)
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))
    assert not np.array_equal(_fresh(SPLIT, 4000, 1)[0], _fresh(SPLIT, 4000, 2)[0])
    # only the equal twin found its key in the memo
    assert _streams.cache_info().hits == 1


def test_coupled_runs_share_read_only_streams():
    outs = [run(SPLIT, d, 3000, 5) for d in Discipline]
    for out in outs[1:]:
        assert all(a is b for a, b in zip(_streams_of(out), _streams_of(outs[0])))
    for field in STREAM_FIELDS:
        with pytest.raises(ValueError):
            getattr(outs[0], field)[0] = 1
    # the event arrays are each run's own
    outs[0].first_service_start[0] = 0.0
    assert outs[1].first_service_start is not outs[0].first_service_start


def test_warmup_fraction_changes_only_warmup():
    a = run(SPLIT, Discipline.SRPT_PR, 3000, 6, warmup_fraction=0.0)
    b = run(SPLIT, Discipline.SRPT_PR, 3000, 6, warmup_fraction=0.5)
    assert (a.warmup, b.warmup) == (0, 1500)
    assert all(x is y for x, y in zip(_streams_of(a), _streams_of(b)))
    assert np.array_equal(a.first_service_start, b.first_service_start)
    assert np.array_equal(a.departure_time, b.departure_time)

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


@pytest.mark.parametrize("estimator", ["empirical_psi", "cycle_psi"])
def test_psi_estimators_reject_an_endless_horizon(estimator):
    # a child process with a deadline, so that a horizon the arrivals
    # never reach fails the test instead of hanging it
    code = ("from queuedecay import simqueue\n"
            "from queuedecay.dist import Exponential\n"
            "from queuedecay.ratecalc import QueueModel\n"
            "model = QueueModel(Exponential(0.5), Exponential(1.0))\n"
            "try:\n"
            f"    simqueue.{estimator}(model, 0.1, float('inf'), 4, 1)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0
    assert done.stdout == "horizon must be positive and finite\n"


def _cycle_excess_at_zero(v):
    # sb - 0 * a is sb bitwise, so this is log n less the lean log-sum-exp
    # of v; +inf where every term is -inf
    return simqueue._cycle_excess(0.0, v, np.ones_like(v))


def _scipy_excess(v):
    return math.log(v.size) - float(logsumexp(v))


@pytest.mark.parametrize("v", [
    [3.0], [2.5] * 7, [1.0, 5.0, 5.0, -2.0, 5.0], [-np.inf, 1.0, -np.inf],
    [-np.inf] * 4, [700.0, 699.5, 705.0], [-700.0, -705.0, -745.0],
    [709.7, 709.78, 1.0], [-750.0, -760.0]],
    ids=["one", "all-equal", "three-maxima", "minus-inf", "all-minus-inf",
         "near-700", "near-minus-700", "near-overflow", "past-underflow"])
def test_cycle_logsumexp_is_scipys_bitwise(v):
    assert _cycle_excess_at_zero(np.array(v)) == _scipy_excess(np.array(v))


def test_cycle_logsumexp_is_scipys_on_random_vectors():
    rng = stream(41, 0)
    for _ in range(300):
        v = rng.normal(rng.normal(0.0, 300.0), rng.uniform(0.01, 100.0),
                       int(rng.integers(1, 3000)))
        assert _cycle_excess_at_zero(v) == _scipy_excess(v)


def test_cycle_psi_zero_is_exact():
    assert cycle_psi(MM1, 0.0, 50.0, 64, 4) == 0.0


def test_cycle_psi_validation():
    with pytest.raises(ValueError):
        cycle_psi(MM1, 0.1, 0.0, 10, 1)
    with pytest.raises(ValueError):
        cycle_psi(MM1, 0.1, 10.0, 0, 1)
    with pytest.raises(ValueError):
        cycle_psi(MM1, -0.1, 10.0, 10, 1)


@pytest.mark.parametrize("replications", [2.5, True, "3", None, 0],
                         ids=["fraction", "bool", "string", "none", "zero"])
@pytest.mark.parametrize("estimator", [empirical_psi, cycle_psi],
                         ids=["empirical_psi", "cycle_psi"])
def test_psi_estimators_reject_a_bad_replication_count(estimator, replications):
    with pytest.raises(ValueError, match="integer"):
        estimator(MM1, 0.25, 5.0, replications, 1)


def test_cycle_psi_checks_the_replication_count_before_s():
    with pytest.raises(ValueError, match="replications must be an integer"):
        cycle_psi(MM1, -0.1, 5.0, 2.5, 1)


@pytest.mark.parametrize("estimator", [empirical_psi, cycle_psi],
                         ids=["empirical_psi", "cycle_psi"])
def test_psi_estimators_accept_a_numpy_integer_count(estimator):
    want = estimator(MM1, 0.25, 50.0, 8, 4)
    assert estimator(MM1, 0.25, 50.0, np.int64(8), 4) == want
    assert estimator(MM1, 0.25, 50.0, np.int32(8), 4) == want


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


# float.hex of cycle_psi and empirical_psi at horizon 200 with 50
# replications, seed 5; the figures pin both estimators bit for bit
PSI_MODELS = {
    "mm1": (MM1, 0.25),
    "erlang-uniform": (QueueModel(Erlang(3, 1.5), UniformInterval(0.0, 1.5)), 0.5),
    "mixture": (QueueModel(
        FiniteMixture(((0.3, Exponential(2.0)), (0.7, Erlang(2, 1.0)))),
        FiniteMixture(((0.5, Exponential(2.0)), (0.3, UniformInterval(0.1, 0.9)),
                       (0.2, Deterministic(0.5))))), 0.3),
}
PINNED_PSI = {
    "mm1": ("0x1.5f567b5433bdep-3", "0x1.35ff9b4346fc7p-3"),
    "erlang-uniform": ("0x1.b6b0fbe8c84f6p-3", "0x1.a73b7aa49ae40p-3"),
    "mixture": ("0x1.b81ee47c39e44p-4", "0x1.bcf98f99f2b89p-4"),
}


@pytest.mark.parametrize("name", PINNED_PSI)
def test_psi_estimates_match_pinned_bits(name):
    model, s = PSI_MODELS[name]
    got = (cycle_psi(model, s, 200.0, 50, 5).hex(),
           empirical_psi(model, s, 200.0, 50, 5).hex())
    assert got == PINNED_PSI[name]


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
    for width in (math.inf, 1e-300):
        with pytest.raises(ValueError, match="width"):
            service_bins(out, width)


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


def test_cycle_psi_frees_its_pooled_arrays():
    # the pooled arrays must go when cycle_psi returns, with the cyclic
    # collector off: no reference cycle may hold them
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
