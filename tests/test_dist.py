import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from queuedecay.dist import (
    ConditionedBelow,
    Deterministic,
    Erlang,
    Exponential,
    FiniteMixture,
    NumericalFailure,
    OutOfDomainError,
    OutOfRangeError,
    UniformInterval,
    _KEYS,
    _LEAVES,
    _doublings,
    _first_passage,
    _mgf_gap,
    _mixture_draw,
    _passages,
    _sampler,
    _stream_run,
    find_root,
    from_json,
    inverse_mgf_neg,
    masses,
    mgf,
    mgf_deriv,
    moments,
    sample_array,
    split_endpoint_atom,
    stream,
    support,
    to_json,
    truncate_below,
)
from queuedecay.ratecalc import QueueModel, Split, _lundberg, _slope_excess, model_to_json

VARIANTS = [
    Exponential(0.7),
    Deterministic(1.3),
    UniformInterval(0.25, 2.0),
    Erlang(3, 2.0),
    FiniteMixture(((0.3, Exponential(1.5)), (0.7, UniformInterval(0.0, 1.0)))),
    ConditionedBelow(Exponential(1.0), 2.0),
    ConditionedBelow(Erlang(2, 1.5), 1.0),
]


def _domain_points(d):
    s_max = support(d)[2]
    hi = min(s_max, 3.0) if math.isfinite(s_max) else 3.0
    return np.linspace(-2.0, 0.95 * hi, 9)


@pytest.mark.parametrize("d", VARIANTS, ids=lambda d: type(d).__name__)
def test_mgf_at_zero_is_one(d):
    assert mgf(d, 0.0) == 1.0


@pytest.mark.parametrize("d", VARIANTS, ids=lambda d: type(d).__name__)
def test_mgf_jensen_lower_bound(d):
    mean, _ = moments(d)
    for s in _domain_points(d):
        assert mgf(d, s) >= math.exp(s * mean) - 1e-12


@pytest.mark.parametrize("d", VARIANTS, ids=lambda d: type(d).__name__)
def test_mgf_convex_on_grid(d):
    pts = _domain_points(d)
    vals = [mgf(d, s) for s in pts]
    for i in range(1, len(pts) - 1):
        chord = 0.5 * (vals[i - 1] + vals[i + 1])
        assert vals[i] <= chord + 1e-12 * abs(chord)


@pytest.mark.parametrize("d", VARIANTS, ids=lambda d: type(d).__name__)
def test_mgf_deriv_matches_central_difference(d):
    h = 1e-6
    for s in _domain_points(d):
        numeric = (mgf(d, s + h) - mgf(d, s - h)) / (2 * h)
        assert mgf_deriv(d, s) == pytest.approx(numeric, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("d", VARIANTS, ids=lambda d: type(d).__name__)
def test_moments_match_mgf_derivative_at_zero(d):
    mean, var = moments(d)
    assert mgf_deriv(d, 0.0) == pytest.approx(mean, rel=1e-12, abs=1e-12)
    h = 1e-5
    second = (mgf(d, h) - 2.0 + mgf(d, -h)) / h**2
    assert second == pytest.approx(var + mean * mean, rel=1e-4, abs=1e-6)


def test_mgf_domain_boundaries():
    assert support(Exponential(0.7))[2] == 0.7
    assert math.isinf(support(Deterministic(2.0))[2])
    assert math.isinf(support(ConditionedBelow(Exponential(1.0), 2.0))[2])
    mix = FiniteMixture(((0.5, Exponential(1.0)), (0.5, Erlang(2, 3.0))))
    assert support(mix)[2] == 1.0
    with pytest.raises(OutOfDomainError):
        mgf(Exponential(0.7), 0.7)
    with pytest.raises(OutOfDomainError):
        mgf(Exponential(0.7), 1.0)


@pytest.mark.parametrize("d", VARIANTS, ids=lambda d: type(d).__name__)
def test_inverse_mgf_neg_round_trip(d):
    for x in np.linspace(0.0, 50.0, 11):
        value = mgf(d, -x)
        assert inverse_mgf_neg(d, value) == pytest.approx(x, rel=1e-10, abs=1e-10)


def test_inverse_mgf_neg_edge_cases():
    assert inverse_mgf_neg(Exponential(1.0), 1.0) == 0.0
    with pytest.raises(OutOfRangeError):
        inverse_mgf_neg(Exponential(1.0), 1.5)
    with pytest.raises(OutOfRangeError):
        inverse_mgf_neg(Exponential(1.0), 0.0)
    # a zero atom bounds the reachable values from below
    mix = FiniteMixture(((0.25, Deterministic(0.0)), (0.75, Exponential(1.0))))
    with pytest.raises(OutOfRangeError):
        inverse_mgf_neg(mix, 0.25)
    assert inverse_mgf_neg(mix, 0.2500001) > 0


def test_support_and_atoms():
    assert support(Deterministic(2.0))[1] == 2.0
    assert support(Deterministic(2.0))[0] == 2.0
    assert masses(Deterministic(2.0), 2.0)[1] == 1.0
    assert math.isinf(support(Exponential(1.0))[1])
    assert support(UniformInterval(0.5, 1.5))[0] == 0.5
    mix = FiniteMixture(((0.4, Deterministic(1.0)), (0.6, UniformInterval(0.0, 1.0))))
    assert support(mix)[1] == 1.0
    below, at, _ = masses(mix, 1.0)
    assert at == pytest.approx(0.4)
    assert below == pytest.approx(0.6)


def test_support_of_a_nested_mixture():
    inner = FiniteMixture(((0.5, UniformInterval(0.75, 3.0)),
                           (0.5, Erlang(2, 2.5))))
    outer = FiniteMixture(((0.2, Deterministic(0.5)), (0.3, inner),
                           (0.5, ConditionedBelow(Exponential(1.5), 2.0))))
    assert support(inner) == (0.0, math.inf, 2.5)
    assert support(outer) == (0.0, math.inf, 2.5)
    bounded = FiniteMixture(((0.6, FiniteMixture(((0.5, Deterministic(0.5)),
                                                   (0.5, UniformInterval(0.75, 3.0))))),
                             (0.4, Deterministic(4.0))))
    # the min of the infs, the max of the sups and the min of the abscissas
    assert support(bounded) == (0.5, 4.0, math.inf)
    mixed = FiniteMixture(((0.5, bounded),
                           (0.5, ConditionedBelow(Erlang(3, 0.25), 5.0))))
    assert support(mixed) == (0.0, 5.0, math.inf)


def _cdf(d, x):
    below, at, _ = masses(d, x)
    return below + at


def test_cdf_basics():
    assert _cdf(Exponential(2.0), 1.0) == pytest.approx(1 - math.exp(-2.0))
    assert _cdf(Deterministic(1.0), 0.999) == 0.0
    assert _cdf(Deterministic(1.0), 1.0) == 1.0
    assert _cdf(UniformInterval(0.0, 2.0), 0.5) == pytest.approx(0.25)
    cb = ConditionedBelow(Exponential(1.0), 2.0)
    assert _cdf(cb, 2.0) == pytest.approx(1.0)
    assert _cdf(cb, 1.0) == pytest.approx((1 - math.exp(-1.0)) / (1 - math.exp(-2.0)))


def test_truncate_below_structure_and_mass():
    d = Exponential(1.0)
    t = truncate_below(d, 1.5)
    assert isinstance(t, FiniteMixture)
    assert masses(t, 0.0)[1] == pytest.approx(math.exp(-1.5))
    mean_t, _ = moments(t)
    mean, _ = moments(d)
    assert mean_t < mean
    # cutoff above the support leaves the law unchanged
    u = UniformInterval(0.0, 1.0)
    assert truncate_below(u, 2.0) == u
    # cutoff at or below the lower endpoint kills everything
    dead = truncate_below(Deterministic(1.0), 1.0)
    assert support(dead)[1] == 0.0 and masses(dead, 0.0)[1] == 1.0


def test_truncation_mean_monotone_in_cutoff():
    d = FiniteMixture(((0.5, Exponential(1.0)), (0.5, UniformInterval(0.0, 3.0))))
    means = [moments(truncate_below(d, y))[0] for y in (0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


def test_truncated_mgf_matches_direct_expectation():
    d = Erlang(2, 1.5)
    y = 1.2
    t = truncate_below(d, y)
    # Monte Carlo against the analytic truncated transform
    rng = stream(99, 0)
    x = sample_array(d, rng, 400_000)
    x = np.where(x < y, x, 0.0)
    for s in (-1.0, 0.4, 1.0):
        mc = np.exp(s * x).mean()
        assert mgf(t, s) == pytest.approx(mc, rel=5e-3)


def test_split_endpoint_atom_remix_identity():
    d = FiniteMixture(((0.5, UniformInterval(0.0, 0.5)), (0.5, Deterministic(1.0))))
    q, x_b, rest = split_endpoint_atom(d)
    assert q == pytest.approx(0.5)
    assert x_b == 1.0
    for s in np.linspace(-2.0, 2.0, 9):
        remix = q * math.exp(s * x_b) + (1 - q) * mgf(rest, s)
        assert remix == pytest.approx(mgf(d, s), rel=1e-10)


def test_split_endpoint_atom_edge_cases():
    q, x_b, rest = split_endpoint_atom(Exponential(1.0))
    assert q == 0.0 and math.isinf(x_b) and rest is None
    q, x_b, rest = split_endpoint_atom(Deterministic(2.0))
    assert q == 1.0 and x_b == 2.0 and rest is None


def _ks_statistic(x, cdf_func):
    x = np.sort(x)
    n = x.size
    f = np.array([cdf_func(v) for v in x])
    upper = np.abs(f - np.arange(1, n + 1) / n)
    lower = np.abs(f - np.arange(0, n) / n)
    return max(upper.max(), lower.max())


@pytest.mark.parametrize("d", [v for v in VARIANTS
                               if not isinstance(v, Deterministic)],
                         ids=lambda d: type(d).__name__)
def test_sampling_ks(d):
    n = 10_000
    x = sample_array(d, stream(7, 0), n)
    assert x.min() >= 0
    ks = _ks_statistic(x, lambda v: masses(d, v)[0])
    assert ks <= 1.95 / math.sqrt(n)


def test_sampling_deterministic_consumes_no_randomness():
    rng1 = stream(5, 0)
    rng2 = stream(5, 0)
    x = sample_array(Deterministic(1.5), rng1, 100)
    assert np.all(x == 1.5)
    assert rng1.random() == rng2.random()


def test_sampling_mixture_stream_discipline():
    # selector uniforms first, then component blocks in declaration order
    mix = FiniteMixture(((0.5, Deterministic(1.0)), (0.5, Exponential(2.0))))
    n = 1000
    got = sample_array(mix, stream(11, 0), n)
    rng = stream(11, 0)
    u = rng.random(n)
    pick2 = u >= 0.5
    expect = np.empty(n)
    expect[~pick2] = 1.0
    expect[pick2] = -np.log1p(-rng.random(int(pick2.sum()))) / 2.0
    assert np.array_equal(got, expect)


def test_conditioned_exponential_draws_are_the_closed_form_inverse():
    d = ConditionedBelow(Exponential(1.5), 2.0)
    got = sample_array(d, stream(17, 0), 50_000)
    u = stream(17, 0).random(50_000)
    expect = -np.log1p(u * np.expm1(-1.5 * 2.0)) / 1.5
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def test_erlang_sampling_in_blocks_equals_one_draw():
    # 40 000 rows of 64 uniforms span three blocks of 2^20 uniforms
    d = Erlang(64, 2.0)
    n = 40_000
    rng = stream(13, 0)
    got = sample_array(d, rng, n)
    one = stream(13, 0)
    expect = -np.log1p(-one.random((n, 64))).sum(axis=1) / 2.0
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    assert rng.random() == one.random()
    # a shape above the block size draws one row at a time
    big = Erlang((1 << 20) + 1, 1.0)
    got = sample_array(big, stream(13, 1), 2)
    expect = -np.log1p(-stream(13, 1).random((2, big.shape))).sum(axis=1)
    assert np.array_equal(got, expect)
    assert len(sample_array(d, stream(13, 2), 0)) == 0


def test_erlang_of_shape_one_draws_as_the_exponential():
    # Erlang(1, r) takes the exponential's sampler; a one-column block sums
    # to its one element, so the draws are the block form's bit for bit
    n = 50_000
    got = sample_array(Erlang(1, 2.5), stream(19, 0), n)
    block = -np.log1p(-stream(19, 0).random((n, 1))).sum(axis=1) / 2.5
    assert np.array_equal(got.view(np.int64), block.view(np.int64))
    plain = sample_array(Exponential(2.5), stream(19, 0), n)
    assert np.array_equal(got.view(np.int64), plain.view(np.int64))


def test_tilted_sampler_is_the_law_at_the_shifted_rate():
    for d, shifted in ((Exponential(2.0), Exponential(1.25)),
                       (Erlang(3, 2.0), Erlang(3, 1.25)),
                       (ConditionedBelow(Erlang(3, 2.0), 1.5),
                        ConditionedBelow(Erlang(3, 1.25), 1.5))):
        got = _sampler(d, 0.75)(stream(23, 0), 10_000)
        want = sample_array(shifted, stream(23, 0), 10_000)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        with pytest.raises(OutOfDomainError):
            _sampler(d, 2.0)
    # below a cutoff an exponential tilts past its rate: the density rises
    assert _sampler(ConditionedBelow(Exponential(1.0), 3.0), 2.0)(
        stream(23, 1), 1000).max() < 3.0

def test_stream_reproducible_and_indexed():
    a = stream(42, 0).random(5)
    b = stream(42, 0).random(5)
    c = stream(42, 1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _first_draws(rng):
    # 64-bit doubles, an odd count of 32-bit floats (which leaves half a word
    # buffered in the bit generator), then bounded integers
    return (rng.random(3).tobytes() + rng.random(3, dtype=np.float32).tobytes()
            + rng.integers(0, 10**9, 2).tobytes())


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**40, 2**130 + 5])
def test_stream_run_is_the_named_streams(seed):
    # index 0, neighbours, and both sides of the first batch boundary
    read = {0, 1, 2, _KEYS - 1, _KEYS, _KEYS + 1}
    count = 0
    for i, rng in enumerate(_stream_run(seed, _KEYS + 2)):
        if i in read:
            assert _first_draws(rng) == _first_draws(stream(seed, i)), i
        count += 1
    assert count == _KEYS + 2
    assert list(_stream_run(seed, 0)) == []


def test_passages_cross_a_block_boundary_bitwise():
    # two-step chunks of a walk with drift 0.5 against a level of 1.0, so
    # that some walks in each block pass within their first chunk and some
    # walk on alone
    draw = _sampler(Exponential(1.0), 0.0)
    count = _KEYS + 1
    want = [_first_passage(draw, stream(6, i), 1.0, 2) for i in range(count)]
    got = _passages(draw, 6, count, 1.0, 2)
    assert got.tobytes() == np.array([total for _, total in want]).tobytes()
    walked_on = [len(steps) > 2 for steps, _ in want]
    assert 0 < sum(walked_on[:_KEYS]) < _KEYS and walked_on[-1]


class _Uniforms:
    # a generator whose uniforms are given
    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == self.u.size
        return self.u


@pytest.mark.parametrize("weights", [
    [0.3, 0.7], [0.1] * 10, [0.05] * 20, [0.7, 0.2, 0.1], [1.0],
    [0.5, 1e-300, 0.5 - 1e-300]],
    ids=["two", "sum-below-one", "sum-above-one", "decreasing", "one", "tiny"])
def test_mixture_selector_is_searchsorted(weights):
    # each component draws its own index, so the output is the selector
    cum = np.cumsum(weights)
    u = np.concatenate([stream(8, 0).random(10_000), cum,
                        np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    draws = [lambda rng, n, j=j: np.full(n, float(j)) for j in range(len(weights))]
    got = _mixture_draw(weights, draws, _Uniforms(u), u.size)
    want = np.minimum(np.searchsorted(cum, u, side="right"), len(weights) - 1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d", VARIANTS, ids=lambda d: type(d).__name__)
def test_json_round_trip(d):
    obj = to_json(d)
    text = json.dumps(obj)
    back = from_json(json.loads(text))
    assert back == d
    for s in (-1.0, 0.5):
        try:
            assert mgf(back, s) == mgf(d, s)
        except OutOfDomainError:
            pass


def _nested(levels):
    obj = {"type": "exponential", "rate": 1.0}
    for _ in range(levels - 1):
        obj = {"type": "mixture", "components": [{"weight": 1.0, "dist": obj}]}
    return obj


def test_from_json_nests_at_most_a_hundred_levels():
    assert to_json(from_json(_nested(100))) == _nested(100)
    with pytest.raises(ValueError, match="more than 100 levels"):
        from_json(_nested(101))
    with pytest.raises(ValueError, match="more than 100 levels"):
        from_json({"type": "conditioned_below", "cutoff": 1.0,
                   "base": _nested(100)})


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json({"type": "cauchy"})
    with pytest.raises(ValueError):
        from_json({"rate": 1.0})
    with pytest.raises(ValueError):
        from_json({"type": "conditioned_below",
                   "base": {"type": "uniform", "lo": 0, "hi": 1},
                   "cutoff": 0.5})


@pytest.mark.parametrize("obj, message", [
    # a tag that cannot be a dict key still reads as an unknown tag
    ({"type": [1], "rate": 1.0}, "unknown distribution type [1]"),
    ({"type": None, "rate": 1.0}, "unknown distribution type None"),
    ({"type": "erlang", "rate": 1.0},
     "malformed 'erlang' distribution: KeyError('shape')"),
    ({"type": "erlang", "shape": 2.5, "rate": 1.0}, "shape must be a positive integer"),
    ({"type": "exponential", "rate": True}, "rate must be a finite number, got True"),
    ({"type": "uniform", "lo": False, "hi": 1.0},
     "lo must be a finite number, got False"),
    ({"type": "uniform", "lo": 0.0}, "malformed 'uniform' distribution: KeyError('hi')"),
    ({"type": "cauchy"}, "unknown distribution type 'cauchy'"),
    ({"type": "conditioned_below", "base": {"type": "uniform", "lo": 0, "hi": 1},
      "cutoff": 0.5}, "base must be Exponential or Erlang"),
])
def test_from_json_error_texts(obj, message):
    with pytest.raises(ValueError) as info:
        from_json(obj)
    assert str(info.value) == message


@pytest.mark.parametrize("d, keys", [
    (Exponential(0.7), ["type", "rate"]),
    (Deterministic(1.3), ["type", "value"]),
    (UniformInterval(0.25, 2.0), ["type", "lo", "hi"]),
    (Erlang(3, 2.0), ["type", "shape", "rate"]),
    (ConditionedBelow(Erlang(2, 1.5), 1.0), ["type", "base", "cutoff"]),
    (VARIANTS[4], ["type", "components"]),
], ids=["exponential", "deterministic", "uniform", "erlang", "conditioned_below",
        "mixture"])
def test_to_json_key_order(d, keys):
    assert list(to_json(d)) == keys


def test_the_readme_tag_table_is_the_code_table():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("| tag | fields |")
    table = text[start:text.index("\n\n", start)]
    rows = [(tag, re.findall(r"`([A-Za-z_]\w*)`", fields))
            for tag, fields in re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M)]
    assert rows == [(tag, list(fields)) for tag, fields in _LEAVES.values()] + [
        ("conditioned_below", ["base", "cutoff"]), ("mixture", ["components"])]


def test_constructor_validation():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        UniformInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        Erlang(0, 1.0)
    with pytest.raises(ValueError):
        FiniteMixture(((0.5, Exponential(1.0)), (0.6, Exponential(2.0))))
    with pytest.raises(ValueError):
        Deterministic(-1.0)


def test_an_erlang_shape_reads_as_an_int():
    # a float or NumPy integer shape is stored as the int it equals, so
    # every map that takes it as a count, and JSON, accept the law
    from queuedecay.ratecalc import gamma_p_trunc, y_star
    from queuedecay.simqueue import Discipline, run
    from queuedecay.tailest import is_workload_tail
    for shape in (2.0, np.int64(2)):
        d = Erlang(shape, 4.0)
        assert type(d.shape) is int and d == Erlang(2, 4.0)
        assert json.dumps(to_json(d)) == '{"type": "erlang", "shape": 2, "rate": 4.0}'
        got = sample_array(d, stream(5, 0), 1000)
        assert np.array_equal(got, sample_array(Erlang(2, 4.0), stream(5, 0), 1000))
        model = QueueModel(Erlang(shape, 2.0), d)
        ints = QueueModel(Erlang(2, 2.0), Erlang(2, 4.0))
        assert gamma_p_trunc(model, 1.0) == gamma_p_trunc(ints, 1.0)
        assert y_star(model) == y_star(ints)
        assert np.array_equal(run(model, Discipline.SRPT_PR, 500, 7).departure_time,
                              run(ints, Discipline.SRPT_PR, 500, 7).departure_time)
        assert is_workload_tail(model, 2.0, 50, 3) == is_workload_tail(ints, 2.0, 50, 3)
    with pytest.raises(ValueError, match="shape must be a positive integer"):
        Erlang(2.5, 1.0)
    # judged as given: through a float this shape would read 2**53
    assert Erlang(2 ** 53 + 1, 1.0).shape == 2 ** 53 + 1


@pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
def test_exponential_is_the_shape_one_erlang(r):
    e, one = Exponential(r), Erlang(1, r)
    assert isinstance(e, Erlang) and e != one and repr(e) == f"Exponential(rate={r!r})"
    assert to_json(e) == {"type": "exponential", "rate": r}
    back = from_json(to_json(e))
    assert type(back) is Exponential and back == e
    assert support(e) == support(one) and moments(e) == moments(one)
    for s in (-3.0, -0.5, 0.0, 0.25 * r, 0.9 * r):
        assert mgf(e, s) == mgf(one, s)
        # the exponential's own derivative, which shape one's formula rounds apart from
        assert mgf_deriv(e, s) == r / (r - s) ** 2
    for x in (1e-3, 0.5, 2.0, 40.0):
        # its own lower mass, which gammainc(1, .) rounds apart from
        assert masses(e, x) == (-math.expm1(-r * x), 0.0, masses(one, x)[2])
    for theta in (0.0, 0.5 * r, -r):    # at 0.0 these are sample_array's draws
        got = _sampler(e, theta)(stream(29, 0), 2000)
        want = _sampler(one, theta)(stream(29, 0), 2000)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("rate", [0.0, math.inf, math.nan])
def test_exponential_rejects_a_rate_as_erlang_does(rate):
    with pytest.raises(ValueError, match="rate must be positive and finite"):
        Exponential(rate)


@pytest.mark.parametrize("build", [
    lambda: Exponential(math.inf),
    lambda: Deterministic(math.inf),
    lambda: UniformInterval(0.0, math.inf),
    lambda: Erlang(math.inf, 1.0),
    lambda: Erlang(2, math.inf),
    lambda: ConditionedBelow(Exponential(1.0), math.inf),
], ids=["exponential", "deterministic", "uniform", "erlang-shape",
        "erlang-rate", "conditioned-below"])
def test_constructors_reject_infinite_fields(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("doc", [
    lambda f: to_json(Exponential(f(2.0))),
    lambda f: to_json(Deterministic(f(1.5))),
    lambda f: to_json(UniformInterval(f(0.25), f(2.0))),
    lambda f: to_json(Erlang(3, f(2.0))),
    lambda f: to_json(ConditionedBelow(Exponential(1.0), f(0.5))),
    lambda f: to_json(FiniteMixture(((f(0.5), Exponential(1.0)),
                                     (f(0.5), Deterministic(1.0))))),
    lambda f: model_to_json(QueueModel(Exponential(1.0), split=Split(
        f(0.5), Exponential(4.0), Exponential(4.0)))),
], ids=["exponential", "deterministic", "uniform", "erlang", "conditioned-below",
        "mixture-weight", "split-p"])
def test_numpy_float_fields_are_stored_as_floats(doc):
    assert json.dumps(doc(np.float32)) == json.dumps(doc(float))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Exponential(True), ValueError, "rate must be a finite number, got True"),
    (lambda: Erlang(True, 1.0), ValueError, "shape must be a finite number, got True"),
    (lambda: Deterministic("1"), ValueError, "value must be a finite number, got '1'"),
    (lambda: UniformInterval(0, 10 ** 400), ValueError,
     "hi must be a finite number, got 1000"),
    (lambda: ConditionedBelow(Exponential(1.0), True), ValueError,
     "cutoff must be a finite number, got True"),
    (lambda: FiniteMixture((("0.5", Exponential(1.0)), (0.5, Exponential(2.0)))),
     ValueError, "weight must be a finite number, got '0.5'"),
    (lambda: Split("0.5", Exponential(1.0), Exponential(2.0)), ValueError,
     "p must be a finite number, got '0.5'"),
    (lambda: FiniteMixture(()), ValueError, "at least one component"),
    (lambda: FiniteMixture(((0.0, Exponential(1.0)), (1.0, Exponential(2.0)))),
     ValueError, r"weights must lie in \(0, 1\]"),
    (lambda: ConditionedBelow(UniformInterval(0.0, 1.0), 0.5), ValueError,
     "base must be Exponential or Erlang"),
    (lambda: FiniteMixture(((1.0, "x"),)), ValueError,
     "component must be a distribution, got 'x'"),
    (lambda: mgf_deriv(Exponential(1.0), 1.0), OutOfDomainError, "abscissa"),
    (lambda: inverse_mgf_neg(Exponential(1.0), 1e-320), OutOfRangeError,
     "too close to the infimum"),
], ids=["bool-rate", "bool-shape", "string-value", "int-beyond-floats",
        "bool-cutoff", "string-weight", "string-split-p", "empty-mixture",
        "zero-weight", "conditioned-uniform", "string-component",
        "mgf-deriv-at-the-abscissa", "inverse-below-the-infimum"])
def test_input_checks_raise_their_messages(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_sf_is_the_complement_of_cdf():
    for d in VARIANTS:
        for x in (-1.0, 0.0, 0.3, 0.9, 1.3, 1.99, 2.0, 5.0):
            assert masses(d, x)[2] == pytest.approx(1.0 - _cdf(d, x), abs=1e-14)


def test_sf_keeps_tiny_tails():
    # 1 - cdf rounds these to 0; the upper mass keeps their digits
    assert masses(Exponential(1.0), 50.0)[2] == pytest.approx(
        math.exp(-50.0), rel=1e-14, abs=0.0)
    erlang = Erlang(3, 1.0)
    x = 60.0
    tail = math.exp(-x) * (1.0 + x + x * x / 2.0)
    assert 1.0 - _cdf(erlang, x) == 0.0
    assert masses(erlang, x)[2] == pytest.approx(tail, rel=1e-12, abs=0.0)
    mix = FiniteMixture(((0.5, Exponential(1.0)), (0.5, Deterministic(1.0))))
    assert masses(mix, 50.0)[2] == pytest.approx(0.5 * math.exp(-50.0),
                                                 rel=1e-14, abs=0.0)
    cond = ConditionedBelow(Exponential(1.0), 60.0)
    x = 40.0
    want = (math.exp(-x) - math.exp(-60.0)) / -math.expm1(-60.0)
    assert masses(cond, x)[2] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_conditioned_large_shape_stays_finite():
    # rate**k alone overflows for Erlang(2000, 2000); the mgf does not
    d = ConditionedBelow(Erlang(2000, 2000.0), 1.05)
    m1, var = moments(d)
    assert 0.99 < m1 < 1.0 and 0.0 < var < 1e-3
    for s in (0.5, 1.0, 2.0):
        h = 1e-6
        fd = (mgf(d, s + h) - mgf(d, s - h)) / (2 * h)
        assert math.isfinite(mgf(d, s))
        assert mgf_deriv(d, s) == pytest.approx(fd, rel=1e-6, abs=0.0)


def test_conditioned_mgf_agrees_across_the_rate():
    # theta = rate - s changes sign at s = rate: the closed form on one side
    # and the series on the other meet there
    d = ConditionedBelow(Erlang(2, 1.5), 1.0)
    for f in (mgf, mgf_deriv):
        below, above = f(d, 1.5 - 1e-9), f(d, 1.5 + 1e-9)
        assert below == pytest.approx(above, rel=1e-7, abs=0.0)
        assert f(d, 1.5) == pytest.approx(below, rel=1e-7, abs=0.0)


def test_find_root_fails_fast_on_nan():
    calls = []
    with pytest.raises(NumericalFailure, match="NaN"):
        find_root(_nan_right_of_one, (calls,), 0.0, -1.0, (1.0, 2.0, 4.0))
    assert calls == [1.0, 2.0]


def test_find_root_rejects_a_nan_left_end():
    with pytest.raises(NumericalFailure, match="NaN"):
        find_root(_nan_right_of_one, ([],), 2.0, math.nan, (4.0,))


def _nan_right_of_one(x, calls):
    calls.append(x)
    return -1.0 if x <= 1.0 else math.nan


def test_find_root_turns_overflow_into_numerical_failure():
    with pytest.raises(NumericalFailure, match="overflow"):
        find_root(_overflows, (), 0.0, -1.0, (1.0,))


def _overflows(x):
    return 10.0 ** 400 if x > 0 else -1.0


def test_find_root_steps_in_from_an_infinite_end():
    # f = -inf on (0, 0.5] and +inf past 3: the bracket shrinks to finite ends
    root = find_root(_finite_on_middle, (), 0.0, -math.inf, (1.0, 2.0, 4.0))
    assert root == pytest.approx(1.5, rel=1e-15, abs=0.0)
    assert find_root(_finite_on_middle, (), 0.0, -math.inf, (1.0,)) is None


def _finite_on_middle(x):
    if x <= 0.5:
        return -math.inf
    return x - 1.5 if x < 3.0 else math.inf


def _recorded(f, seen):
    def recorded(x, *args):
        seen.append(x)
        return f(x, *args)
    recorded.__name__ = f.__name__
    return recorded


def _held_bracket(f, args, lo, f_lo, points):
    # the bracket find_root hands to Brent's method: the first point where
    # f > 0, then the bisection in from an infinite end
    for x in points:
        f_x = f(x, *args)
        if f_x > 0:
            hi, f_hi = x, f_x
            break
        lo, f_lo = x, f_x
    while math.isinf(f_lo) or math.isinf(f_hi):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid, *args)
        if f_mid > 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return lo, hi


def _assert_brentq_parity(f, args, lo, f_lo, points):
    # find_root against scipy's brentq on the same bracket: equal bits, and
    # brentq's evaluations after its two ends are find_root's after the
    # bracket search
    ours, theirs, held, points = [], [], [], list(points)
    root = find_root(_recorded(f, ours), args, lo, f_lo, points)
    a, b = _held_bracket(_recorded(f, held), args, lo, f_lo, points)
    want = brentq(_recorded(f, theirs), a, b, args=args, xtol=5e-324,
                  rtol=4 * sys.float_info.epsilon)
    assert root.hex() == want.hex()
    assert ours == held + theirs[2:]
    return root


PARITY_MODELS = {
    "mm1": QueueModel(Exponential(0.5), Exponential(1.0)),
    "conditioned-erlang": QueueModel(Erlang(2, 1.2),
                                     ConditionedBelow(Erlang(3, 2.0), 1.8)),
    "split": QueueModel(UniformInterval(0.2, 1.8), split=Split(
        0.35, Erlang(2, 5.0), FiniteMixture(((0.5, Deterministic(0.9)),
                                             (0.5, Exponential(1.2)))))),
    "atom": QueueModel(Exponential(1.0), FiniteMixture(
        ((0.5, UniformInterval(0.0, 0.5)), (0.5, Deterministic(1.0))))),
}


@pytest.mark.parametrize("name", PARITY_MODELS)
def test_find_root_is_brentq_on_the_model_maps(name):
    model = PARITY_MODELS[name]
    pair = (model.arrival, model.service)
    _assert_brentq_parity(_lundberg, pair, 2.0 ** -10, _lundberg(2.0 ** -10, *pair),
                          _doublings())
    args = pair + ({},)
    s_opt = _assert_brentq_parity(_slope_excess, args, 0.0, _slope_excess(0.0, *args),
                                  _doublings())
    for v in (0.999, 0.5, 1.0 / mgf(model.service, s_opt)):
        _assert_brentq_parity(_mgf_gap, (model.arrival, v), 0.0, v - 1.0, _doublings())


def _steep(x):
    return math.expm1(40.0 * x) - 3.0


def _flat(x):
    # slopes near 1e-200, whose products underflow to 0 in the extrapolation
    return 1e-200 * (x - 0.3) ** 3 + 1e-210 * (x - 0.3)


def _linear(x):
    return x - 0.5


def _log_plus_one(x):
    return math.log(x) + 1.0 if x > 0 else -math.inf


@pytest.mark.parametrize("f,lo,f_lo,points", [
    (_steep, 0.0, -3.0, (0.5, 1.0)),
    (_flat, 0.0, _flat(0.0), (1.0, 2.0)),
    (_linear, 0.0, -0.5, (1.0,)),             # the first step meets the root
    (_linear, 0.5, 0.0, (1.0, 2.0)),          # f_lo == 0: lo is the root
    (_log_plus_one, 0.0, -math.inf, (4.0,)),  # bisection in from -inf
], ids=["steep", "flat", "exact-root", "zero-left-end", "from-minus-inf"])
def test_find_root_is_brentq_on_shaped_maps(f, lo, f_lo, points):
    _assert_brentq_parity(f, (), lo, f_lo, points)


def _step(x):
    return -1.0 if x < 0.0 else 1.0


def test_find_root_fails_as_brentq_does_after_100_iterations():
    ours, theirs = [], []
    with pytest.raises(RuntimeError) as failed:
        brentq(_recorded(_step, theirs), -1.0, 1.0, xtol=5e-324,
               rtol=4 * sys.float_info.epsilon)
    with pytest.raises(NumericalFailure) as failure:
        find_root(_recorded(_step, ours), (), -1.0, -1.0, (1.0,))
    assert str(failed.value) == "Failed to converge after 100 iterations."
    assert str(failure.value) == str(failed.value)
    assert ours == theirs[1:] and len(ours) == 101


def test_inverse_mgf_neg_is_exact_to_rounding():
    d = Exponential(2.0)
    for u in (1e-4, 0.3, 7.0, 1e6):
        v = 2.0 / (2.0 + u)
        assert inverse_mgf_neg(d, v) == pytest.approx(u, rel=1e-9, abs=0.0)
