import dataclasses
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import queuedecay
from queuedecay import tailest
from queuedecay.dist import (
    ConditionedBelow,
    Deterministic,
    Erlang,
    Exponential,
    FiniteMixture,
    UniformInterval,
    _first_passage,
    _passages,
    mgf,
    stream,
)
from queuedecay.ratecalc import QueueModel, Split, gamma_w
from queuedecay.simqueue import Discipline, cycle_psi, empirical_psi, run, service_bins
from queuedecay.tailest import (
    DegenerateTailError,
    TailFit,
    TiltUnavailableError,
    compare_rates,
    fit_decay,
    fits_agree,
    is_workload_tail,
    tilt_measure,
)

MM1 = QueueModel(Exponential(0.5), Exponential(1.0))


def _exp_samples(n, rate, seed=0):
    return stream(seed, 0).exponential(1.0 / rate, n)


def test_fit_recovers_exponential_rate():
    fit = fit_decay(_exp_samples(100_000, 2.0))
    assert abs(fit.rate - 2.0) / 2.0 <= 0.05
    assert fit.stderr > 0.0
    assert fit.window[0] < fit.window[1]
    assert fit.points_used >= 500


def test_fit_scale_equivariance():
    x = _exp_samples(100_000, 1.0, seed=3)
    base = fit_decay(x)
    scaled = fit_decay(4.0 * x)
    assert abs(scaled.rate - base.rate / 4.0) <= 1e-9 * base.rate


def test_fit_rejects_degenerate_tails():
    with pytest.raises(DegenerateTailError):
        fit_decay(np.full(10_000, 3.0))
    # too few distinct points in the window even though samples vary
    coarse = np.repeat(np.arange(100.0), 100)
    with pytest.raises(DegenerateTailError):
        fit_decay(coarse)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_decay(_exp_samples(4_999, 1.0))
    bad = _exp_samples(10_000, 1.0)
    bad[0] = -1.0
    with pytest.raises(ValueError):
        fit_decay(bad)
    with pytest.raises(ValueError):
        fit_decay(_exp_samples(10_000, 1.0), lo_quantile=1.0)
    for value, count in ((math.nan, 3), (math.inf, 30)):
        spoilt = np.append(_exp_samples(100_000, 1.0), np.full(count, value))
        with pytest.raises(ValueError, match="finite"):
            fit_decay(spoilt, min_points=50)


def test_bootstrap_ci_covers_truth():
    fit = fit_decay(_exp_samples(100_000, 2.0, seed=7), bootstrap=60, seed=1)
    lo, hi = fit.bootstrap_ci
    assert lo < 2.0 < hi
    assert lo < fit.rate < hi
    again = fit_decay(_exp_samples(100_000, 2.0, seed=7), bootstrap=60, seed=1)
    assert again.bootstrap_ci == fit.bootstrap_ci


def _plain_bootstrap(x, lo_quantile, min_points, bootstrap, seed):
    # the reference: every resample read whole.  Also counts the resamples
    # with fewer than `need` picks at or above the (n - 2 need)-th order
    # statistic, and those whose fit is degenerate
    n = x.size
    need = n - min(tailest._window_ends(n, lo_quantile))
    cut = n - 2 * need
    rng = stream(seed, 0)
    rates, few, skipped = [], 0, 0
    for _ in range(bootstrap):
        pick = rng.integers(0, n, n)
        if cut > 0:
            few += int((x[pick] >= np.partition(x, cut)[cut]).sum() < need)
        try:
            rates.append(tailest._ccdf_slope(x[pick], n, lo_quantile, min_points)[0])
        except DegenerateTailError:
            skipped += 1
    lo, hi = np.percentile(rates, [2.5, 97.5])
    return (float(lo), float(hi)), cut, few, skipped


@pytest.mark.parametrize("case", ["filtered", "no-threshold", "few-high-picks"])
def test_bootstrap_reads_the_top_share_bitwise(case):
    if case == "filtered":
        x, q, points, draws, seed = _exp_samples(60_000, 1.0, 31), 0.99, 100, 20, 31
    elif case == "no-threshold":
        x, q, points, draws, seed = _exp_samples(2_000, 1.0, 32), 0.5, 100, 25, 32
    else:
        x, q, points, draws, seed = _exp_samples(200, 1.0, 2), 0.935, 3, 2000, 2
    ci, cut, few, skipped = _plain_bootstrap(x, q, points, draws, seed)
    if case == "filtered":
        assert cut > 0 and few == 0
    elif case == "no-threshold":
        assert cut <= 0
    else:
        assert cut > 0 and few >= 1 and skipped >= 1
    plain = fit_decay(x, lo_quantile=q, min_points=points)
    fit = fit_decay(x, lo_quantile=q, min_points=points, bootstrap=draws, seed=seed)
    assert fit == dataclasses.replace(plain, bootstrap_ci=ci)


def test_tailfit_json_shape():
    x = _exp_samples(20_000, 1.0)
    fit = fit_decay(x, min_points=100, bootstrap=20)
    doc = fit.to_json()
    assert set(doc) == {"rate", "stderr", "window", "points", "ci"}
    assert len(doc["window"]) == 2 and len(doc["ci"]) == 2
    assert fit_decay(x, min_points=100).to_json()["ci"] is None


def test_compare_rates():
    fit = fit_decay(_exp_samples(100_000, 0.5, seed=2))
    good = compare_rates(0.5, fit, tolerance=0.1)
    assert good.passed and abs(good.rel_error) <= 0.1
    assert good.to_json()["passed"] is True
    strict = compare_rates(fit.rate * 1.5, fit, tolerance=0.1)
    assert not strict.passed
    exact = compare_rates(fit.rate, fit, tolerance=0.0)
    assert exact.passed and exact.z_score == 0.0


@pytest.mark.parametrize("analytic, rate, stderr, rel, z", [
    (0.0, 0.5, 0.1, math.inf, 5.0),
    (0.0, 0.0, 0.1, 0.0, 0.0),
    (0.5, 1.0, 0.0, 1.0, math.inf),
    (0.5, 0.5, 0.0, 0.0, 0.0),
], ids=["zero-analytic", "zero-analytic-exact", "zero-stderr", "zero-stderr-exact"])
def test_compare_rates_on_a_zero_rate_or_stderr(analytic, rate, stderr, rel, z):
    cmp = compare_rates(analytic, TailFit(rate, stderr, (0.0, 1.0), 600))
    assert (cmp.rel_error, cmp.z_score) == (rel, z)
    assert cmp.passed == (rel <= 0.1)


def test_fits_agree_overlap_rule():
    from queuedecay.tailest import TailFit
    a = TailFit(1.00, 0.01, (0.0, 1.0), 600)
    b = TailFit(1.05, 0.01, (0.0, 1.0), 600)
    # 4 se widths miss, the 2 percent floor closes the gap
    assert fits_agree(a, b)
    c = TailFit(1.20, 0.001, (0.0, 1.0), 600)
    assert not fits_agree(a, c)
    # with 4 se below the floor, 2 percent of each rate decides: 1.02 meets
    # 1.04 - 0.0208 and misses 1.042 - 0.02084
    sharp = TailFit(1.00, 0.001, (0.0, 1.0), 600)
    assert fits_agree(sharp, TailFit(1.04, 0.001, (0.0, 1.0), 600))
    assert not fits_agree(sharp, TailFit(1.042, 0.001, (0.0, 1.0), 600))


def _atom_at_zero():
    x = _exp_samples(20_000, 1.0, seed=11)
    x[stream(11, 1).random(x.size) < 0.4] = 0.0
    return x


def _ties_at_both_window_ends():
    x = np.sort(_exp_samples(100_000, 1.0, seed=12))
    k = int(np.ceil(0.99 * x.size)) - 1
    x[k - 3:k + 4] = x[k]           # ties at the 0.99 order statistic
    x[-12:-7] = x[-10]              # ties at the tenth-largest value
    return stream(12, 1).permutation(x)


# repr(TailFit) or the DegenerateTailError text on edge inputs; the fit
# reads only the top order statistics, and these pin it to the figures
# of a full sort and a count over every sample
PINNED_FITS = {
    "atom-at-zero": (
        _atom_at_zero, dict(lo_quantile=0.3),
        "TailFit(rate=0.9872779924654839, stderr=0.00015256753291297692, "
        "window=(0.0, 6.952954765686419), points_used=11937, "
        "bootstrap_ci=None)"),
    "ties-at-window-ends": (
        _ties_at_both_window_ends, {},
        "TailFit(rate=0.9899865586127496, stderr=0.00161089316423147, "
        "window=(4.569736378781853, 9.702136353826587), points_used=987, "
        "bootstrap_ci=None)"),
    "two-decimals-bootstrap": (
        lambda: np.round(_exp_samples(100_000, 1.0, seed=13), 2),
        dict(min_points=100, bootstrap=10, seed=4),
        "TailFit(rate=0.8902286252456897, stderr=0.002868584260018145, "
        "window=(4.57, 9.89), points_used=299, "
        "bootstrap_ci=(0.8152185628791779, 0.9777907173734863))"),
    "quantile-0.9": (
        lambda: _exp_samples(300_000, 0.5, seed=14), dict(lo_quantile=0.9),
        "TailFit(rate=0.5012594565707132, stderr=3.4698791857024456e-05, "
        "window=(4.598897419107075, 22.06496806548192), points_used=29992, "
        "bootstrap_ci=None)"),
    "inverted-window": (
        lambda: _exp_samples(20_000, 1.0, seed=15), dict(lo_quantile=0.9999),
        "only 0 distinct values in the window "
        "[9.466216953222993, 7.740335140419162]; need 500"),
    "constant": (
        lambda: np.full(10_000, 3.0), {},
        "only 0 distinct values in the window [3.0, 3.0]; need 500"),
}


@pytest.mark.parametrize("name", PINNED_FITS)
def test_fits_on_edge_inputs_match_pinned_figures(name):
    make, kwargs, want = PINNED_FITS[name]
    try:
        got = repr(fit_decay(make(), **kwargs))
    except DegenerateTailError as exc:
        got = str(exc)
    assert got == want


def _full_sort_window_counts(x, lo_quantile):
    """The window ends and tail counts read off a sort of every sample."""
    x = np.sort(x)
    n = x.size
    x_lo, x_hi = x[int(np.ceil(lo_quantile * n)) - 1], x[n - 10]
    vals, counts = np.unique(x, return_counts=True)
    tail = n - np.cumsum(counts)
    m = (vals >= x_lo) & (vals <= x_hi) & (tail > 0)
    return x_lo, x_hi, vals[m], tail[m]


@pytest.mark.parametrize("kind", ["plain", "rounded", "atom", "integer"])
@pytest.mark.parametrize("lo_quantile", [0.3, 0.9, 0.99, 0.9995, 0.9999])
def test_fit_matches_a_full_sort_bitwise(kind, lo_quantile):
    rng = stream(17, 0)
    x = rng.exponential(1.0, 12_000)
    if kind == "rounded":
        x = np.round(x, 1)
    elif kind == "atom":
        x[rng.random(x.size) < 0.5] = 0.0
    elif kind == "integer":
        x = np.floor(8.0 * x)
    x_lo, x_hi, xs, tail = _full_sort_window_counts(x, lo_quantile)
    try:
        fit = fit_decay(x, lo_quantile=lo_quantile, min_points=3)
    except DegenerateTailError as exc:
        assert xs.size < 3
        assert str(exc) == (f"only {xs.size} distinct values in the window "
                            f"[{x_lo}, {x_hi}]; need 3")
        return
    ys = np.log(tail / x.size)
    xbar = xs.mean()
    slope = float(((xs - xbar) * ys).sum()) / float(((xs - xbar) ** 2).sum())
    assert fit.rate == -slope
    assert fit.window == (float(x_lo), float(x_hi))
    assert fit.points_used == xs.size


def test_pinned_ties_sit_at_both_window_ends():
    x = _ties_at_both_window_ends()
    fit = fit_decay(x)
    assert (x == fit.window[0]).sum() == 7
    assert (x == fit.window[1]).sum() == 5


def test_fit_leaves_its_input_alone():
    x = _exp_samples(40_000, 1.0, seed=16)
    kept = x.copy()
    fit = fit_decay(x, min_points=200, bootstrap=5)
    assert np.array_equal(x, kept)
    strided = np.repeat(x, 2)[::2]
    assert not strided.flags.c_contiguous
    assert fit_decay(strided, min_points=200, bootstrap=5) == fit
    assert fit_decay(x.tolist(), min_points=200, bootstrap=5) == fit
    assert np.array_equal(strided, kept)


@pytest.mark.parametrize("kwargs", [
    dict(lo_quantile=0.9995, min_points=1),
    dict(lo_quantile=0.9999, min_points=0),
    dict(min_points=2), dict(min_points=3.0), dict(min_points=True),
    dict(bootstrap=2.5), dict(bootstrap=-3), dict(bootstrap=True),
    dict(bootstrap=None)])
def test_fit_rejects_bad_min_points_and_bootstrap(kwargs):
    with pytest.raises(ValueError, match="min_points|bootstrap"):
        fit_decay(_exp_samples(20_000, 1.0), **kwargs)


def test_fit_accepts_numpy_integer_counts():
    x = _exp_samples(20_000, 1.0)
    want = fit_decay(x, min_points=100, bootstrap=3)
    assert fit_decay(x, min_points=np.int64(100), bootstrap=np.int32(3)) == want


def test_tilt_preserves_root_identity():
    for model in (MM1,
                  QueueModel(Exponential(0.5), UniformInterval(0.5, 2.5)),
                  QueueModel(Erlang(2, 1.0), Exponential(0.8))):
        tm = tilt_measure(model)
        root = gamma_w(model)
        assert tm.nu == pytest.approx(root, rel=1e-12)
        value = mgf(model.arrival, -tm.nu) * mgf(model.service, tm.nu)
        assert value == pytest.approx(1.0, abs=1e-9)


def test_tilt_sampler_means_match_tilted_densities():
    model = QueueModel(Exponential(0.5),
                       FiniteMixture([(0.5, UniformInterval(0.0, 1.0)),
                                      (0.5, Exponential(1.5))]))
    tm = tilt_measure(model)
    rng = stream(5, 0)
    svc = tm.service(rng, 200_000)
    eps = 1e-6
    want = (mgf(model.service, tm.nu + eps)
            - mgf(model.service, tm.nu - eps)) / (2 * eps)
    want /= mgf(model.service, tm.nu)
    assert svc.mean() == pytest.approx(want, rel=0.01)
    arr = tm.arrival(rng, 200_000)
    want_a = -(mgf(model.arrival, -tm.nu - eps)
               - mgf(model.arrival, -tm.nu + eps)) / (2 * eps)
    want_a /= mgf(model.arrival, -tm.nu)
    assert arr.mean() == pytest.approx(want_a, rel=0.01)


# one model per tilted-law form: Erlang arrivals and a uniform service;
# a below-cutoff exponential tilted past and short of its base rate
# (gamma_w 1.336 and 0.483); a below-cutoff Erlang; the atom split's
# uniform and deterministic parts; nested mixtures on both sides
TILT_MODELS = {
    "erlang-uniform": QueueModel(Erlang(3, 1.5), UniformInterval(0.0, 1.5)),
    "cond-exp-past-rate": QueueModel(Exponential(0.3),
                                     ConditionedBelow(Exponential(1.0), 3.0)),
    "cond-exp-below-rate": QueueModel(Exponential(0.8),
                                      ConditionedBelow(Exponential(1.0), 3.0)),
    "cond-erlang": QueueModel(Exponential(1.0),
                              ConditionedBelow(Erlang(3, 4.0), 2.0)),
    "atom-split": QueueModel(Exponential(1.0),
                             split=Split(0.5, UniformInterval(0.0, 0.5),
                                         Deterministic(1.0))),
    "nested-mixture": QueueModel(
        FiniteMixture(((0.5, Exponential(1.0)), (0.5, Erlang(2, 1.0)))),
        FiniteMixture(((0.6, FiniteMixture(((0.5, Exponential(2.0)),
                                            (0.5, UniformInterval(0.1, 0.9))))),
                       (0.4, Deterministic(0.5))))),
}

# sha256 over 50 000 tilted arrival draws, 50 000 tilted service draws
# (stream (3, 0) in that order) and the is_workload_tail pair at x = 5
# with 200 replications, seed 9; the figures pin both paths bit for bit
TILT_DIGESTS = {
    "erlang-uniform":
        "a18efdbcbf83548aee991c586954e7ad111c7ebdc114eced22db15b78776274a",
    "cond-exp-past-rate":
        "83b9ba4225bc1ec8365ed670cd4f6573fcff99bd0f2f126ecc219642769c55bd",
    "cond-exp-below-rate":
        "ee9f0dfe83ef210eca0a7147b1f5e79e97a57306666ce85e61e21631da920098",
    "cond-erlang":
        "f03c203effa6607f3ef59aed82e37e7ff550a58928897b8ba98108edbd19c368",
    "atom-split":
        "602475a8b666f047d7eb880091551eeab07c57a21a117201474478cba54a3774",
    "nested-mixture":
        "29eb7da9fae264da82721c5612182600dd5d6c31f91dd46dd6fc5bf9d79ffdfb",
}


@pytest.mark.parametrize("name", TILT_DIGESTS)
def test_tilted_draws_and_estimates_match_pinned_digests(name):
    model = TILT_MODELS[name]
    tm = tilt_measure(model)
    rng = stream(3, 0)
    h = hashlib.sha256()
    h.update(tm.arrival(rng, 50_000).tobytes())
    h.update(tm.service(rng, 50_000).tobytes())
    h.update(np.array(is_workload_tail(model, 5.0, 200, 9)).tobytes())
    assert h.hexdigest() == TILT_DIGESTS[name]


@pytest.mark.parametrize("name", TILT_MODELS)
def test_passages_are_the_walks_one_by_one(name):
    # levels at which no walk, about half of them and every walk (the
    # highest first-chunk maximum, which no walk passes within its first
    # chunk) walk on alone from their own streams
    tm = tilt_measure(TILT_MODELS[name])

    def step(rng, n):
        return tm.service(rng, n) - tm.arrival(rng, n)

    tops = np.array([np.cumsum(step(stream(9, i), 64)).max() for i in range(200)])
    walked_on = []
    for x in (0.0, float(np.median(tops)), float(tops.max())):
        want = [_first_passage(step, stream(9, i), x, 64) for i in range(200)]
        got = _passages(step, 9, 200, x, 64)
        assert got.tobytes() == np.array([total for _, total in want]).tobytes()
        walked_on.append(sum(len(steps) > 64 for steps, _ in want))
    assert walked_on[0] == 0 and 0 < walked_on[1] < 200 and walked_on[2] == 200


def test_tilt_unavailable_for_unsupported_laws():
    hard = QueueModel(Exponential(0.05),
                      ConditionedBelow(Erlang(2, 1.0), 2.0))
    assert gamma_w(hard) > 1.0
    with pytest.raises(TiltUnavailableError):
        tilt_measure(hard)


def test_tilt_unavailable_when_the_rate_is_the_service_abscissa():
    # gamma_w = 1 - e^-30 lies within the search margin of s_max(B) = 1
    boundary = QueueModel(Deterministic(30.0), Exponential(1.0))
    with pytest.raises(TiltUnavailableError, match="search margin"):
        tilt_measure(boundary)


@pytest.mark.parametrize("unit", [1.0, 2.0 ** 300])
def test_tilt_past_an_erlang_rate_is_unavailable_in_any_time_unit(unit):
    # a seed-1 rates-sweep model in the time unit given; at 2**300,
    # psi'(nu) overflows in the conditioned Erlang's moment series and reads
    # as +inf, as in the program searches, so the model fails on its tilted
    # law exactly as its unit-1 twin does
    c = 2.0 ** 300 / unit
    model = QueueModel(Exponential(4.909093465297727e-91 * c), ConditionedBelow(
        Erlang(3, 7.544417050941428e-91 * c), 1.4056921920126603e+90 / c))
    assert gamma_w(model) * unit == 2.389686216495117
    for estimate in (tilt_measure, lambda m: is_workload_tail(m, 1.0, 10, 1)):
        with pytest.raises(TiltUnavailableError, match="reaches the rate of Erlang"):
            estimate(model)


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_is_workload_tail_rejects_a_level_the_walk_never_passes(x):
    # a child process with a deadline, so that a walk that never ends
    # fails the test instead of hanging it
    code = ("from queuedecay.dist import Exponential\n"
            "from queuedecay.ratecalc import QueueModel\n"
            "from queuedecay.tailest import is_workload_tail\n"
            "model = QueueModel(Exponential(0.5), Exponential(1.0))\n"
            "try:\n"
            f"    is_workload_tail(model, float('{x}'), 10, 1)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(queuedecay.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0
    assert done.stdout == "x must be finite and nonnegative\n"


def test_is_workload_tail_rejects_a_level_whose_weights_underflow():
    # gamma_w = 0.5: at x = 800 every squared weight underflows and the
    # relative error read exactly 0, at 1e4 the weights themselves did and
    # the mean divided by zero, and at 1e9 the walk ran for minutes; a
    # child process with a deadline keeps a walk that never ends from
    # hanging the test
    code = ("from queuedecay.dist import Exponential\n"
            "from queuedecay.ratecalc import QueueModel\n"
            "from queuedecay.tailest import is_workload_tail\n"
            "model = QueueModel(Exponential(0.5), Exponential(1.0))\n"
            "for x in (800.0, 1e4, 1e9):\n"
            "    try:\n"
            "        print(is_workload_tail(model, x, 200, 1))\n"
            "    except ValueError as exc:\n"
            "        print(type(exc).__name__, exc)\n")
    src = os.path.dirname(os.path.dirname(queuedecay.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("ValueError gamma_w * x = ") for line in lines)
    assert all("underflow" in line for line in lines)


@pytest.mark.parametrize("replications", [2.5, True, "3", None, 1],
                         ids=["fraction", "bool", "string", "none", "one"])
def test_is_workload_tail_rejects_a_bad_replication_count(monkeypatch, replications):
    # refused before the rate is solved and the tilt is built
    def no_tilt(model):
        raise AssertionError("the tilt was built")
    monkeypatch.setattr(tailest, "tilt_measure", no_tilt)
    with pytest.raises(ValueError, match="integer"):
        is_workload_tail(MM1, 2.0, replications, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: run(MM1, Discipline.FIFO, 100, 1, warmup_fraction="0.2"),
     "warmup_fraction must be a finite number, got '0.2'"),
    (lambda: fit_decay(np.arange(1000.0), lo_quantile="0.99"),
     "lo_quantile must be a finite number, got '0.99'"),
    (lambda: is_workload_tail(MM1, "5", 10, 1), "x must be a finite number, got '5'"),
    (lambda: is_workload_tail(MM1, True, 10, 1), "x must be a finite number, got True"),
    (lambda: cycle_psi(MM1, "0.25", 10.0, 5, 1), "s must be a finite number, got '0.25'"),
    (lambda: cycle_psi(MM1, 0.25, "10", 5, 1), "horizon must be a finite number, got '10'"),
    (lambda: empirical_psi(MM1, None, 10.0, 5, 1), "s must be a finite number, got None"),
    (lambda: empirical_psi(MM1, 0.25, None, 5, 1),
     "horizon must be a finite number, got None"),
    (lambda: service_bins(run(MM1, Discipline.FIFO, 100, 1), "0.5"),
     "width must be a finite number, got '0.5'"),
], ids=["warmup-string", "lo-quantile-string", "level-string", "level-bool",
        "cycle-s-string", "cycle-horizon-string", "plain-s-none", "plain-horizon-none",
        "width-string"])
def test_estimator_float_arguments_refuse_what_is_not_a_number(call, message):
    # as counts do through dist._count, with a ValueError rather than the
    # TypeError of a comparison or product on a string or None
    with pytest.raises(ValueError, match=message):
        call()


def test_is_workload_tail_accepts_a_numpy_integer_count():
    want = is_workload_tail(MM1, 2.0, 50, 3)
    assert is_workload_tail(MM1, 2.0, np.int64(50), 3) == want


def test_is_workload_tail_at_zero_matches_load():
    mean, rel_se = is_workload_tail(MM1, 0.0, 20_000, 11)
    se = mean * rel_se
    assert abs(mean - 0.5) <= 3 * se


def test_is_workload_tail_mm1_closed_form():
    # P(W > x) = rho * exp(-gamma_w x) for this model
    mean, rel_se = is_workload_tail(MM1, 20.0, 20_000, 11)
    want = 0.5 * math.exp(-0.5 * 20.0)
    assert abs(mean / want - 1.0) <= 0.05
    assert rel_se < 0.02


def test_is_workload_tail_monotone_in_level():
    lo, lo_rel = is_workload_tail(MM1, 5.0, 20_000, 11)
    hi, hi_rel = is_workload_tail(MM1, 25.0, 20_000, 11)
    assert lo * (1 - 3 * lo_rel) > hi * (1 + 3 * hi_rel)


def test_is_workload_tail_against_direct_frequency():
    from queuedecay.dist import sample_array
    from queuedecay.simqueue import lindley_workload
    x = 2.0
    mean, rel_se = is_workload_tail(MM1, x, 40_000, 13)
    n = 400_000
    w = lindley_workload(sample_array(MM1.arrival, stream(123, 0), n),
                         sample_array(MM1.service, stream(123, 2), n))
    w = w[n // 5:]
    freq = float(np.mean(w > x))
    assert freq >= 1e-3
    fse = math.sqrt(freq * (1 - freq) / len(w))
    assert abs(mean - freq) <= 4 * (mean * rel_se + fse)


def test_is_workload_tail_split_model():
    model = QueueModel(Exponential(1.0),
                       split=Split(0.5, UniformInterval(0.0, 0.5),
                                   Deterministic(0.8)))
    mean, rel_se = is_workload_tail(model, 10.0, 10_000, 3)
    assert 0.0 < mean < 1.0
    assert rel_se < 0.1


def test_is_workload_tail_validation():
    with pytest.raises(ValueError):
        is_workload_tail(MM1, -1.0, 100, 1)
    with pytest.raises(ValueError):
        is_workload_tail(MM1, 1.0, 1, 1)
