"""Distribution algebra for nonnegative light-tailed laws.

Declarative specs (deterministic, uniform interval, Erlang, whose shape
one is the exponential, finite mixture) closed under the transforms a
single-server queue analysis needs: truncation B*1(B<y), conditioning on
{B < y} and endpoint-atom removal.  Every moment generating function is
closed form; no quadrature anywhere.  ``masses`` gives the mass below, at
and above a point, which those transforms and the endpoint-atom dispatch
read; ``support`` gives the essential infimum and supremum and the mgf
abscissa, which bound every search.  Sampling is inverse transform driven
by ``rng.random()`` so streams are reproducible bit for bit from a seed; a
run of substreams of one seed is seeded in batches, bitwise as one by one.
Every draw, plain or reweighted by exp(theta x), comes from one sampler
per law, and every first-passage walk from one chunked loop; a run of
walks reads its first chunks as blocks.  One table gives each leaf law's
JSON tag and fields, read and written.  Every root is found by
``find_root``: Brent's method, a bitwise port of SciPy's ``brentq`` run on
the bracket ends the search already holds.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.special import gammainc, gammaincc, gammaincinv


class OutOfDomainError(ValueError):
    """Evaluation point at or beyond an abscissa of convergence."""


class OutOfRangeError(ValueError):
    """Target value outside the invertible range of a transform."""


class NumericalFailure(RuntimeError):
    """A search ran out of budget, or met a NaN or an overflow."""


def _real(name: str, value) -> float:
    """A number field as a Python float; a bool, a value that is not a
    number (numpy scalars are) or an int beyond the float range is a
    ValueError.  inf and NaN pass, for the caller's range check."""
    if type(value) is float:
        return value
    if (isinstance(value, bool)
            or not isinstance(value, (float, int, np.floating, np.integer))):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a finite number, got {value!r}") from None


@dataclass(frozen=True)
class Deterministic:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _real("value", self.value))
        if not 0 <= self.value < math.inf:
            raise ValueError("value must be nonnegative and finite")


@dataclass(frozen=True)
class UniformInterval:
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", _real("lo", self.lo))
        object.__setattr__(self, "hi", _real("hi", self.hi))
        if not (0 <= self.lo < self.hi < math.inf):
            raise ValueError("need 0 <= lo < hi < inf")


@dataclass(frozen=True)
class Erlang:
    shape: int
    rate: float

    def __post_init__(self):
        # integral as given: through a float, 2**53 + 1 would read 2**53
        if (not 1 <= _real("shape", self.shape) < math.inf
                or self.shape != int(self.shape)):
            raise ValueError("shape must be a positive integer")
        object.__setattr__(self, "rate", _real("rate", self.rate))
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")
        object.__setattr__(self, "shape", int(self.shape))


@dataclass(frozen=True)
class Exponential(Erlang):
    """The Erlang law of shape one, under its own name and JSON tag."""

    shape: int = field(default=1, init=False, repr=False)


@dataclass(frozen=True)
class FiniteMixture:
    components: Tuple[Tuple[float, "DistributionSpec"], ...]

    def __post_init__(self):
        comps = tuple((_real("weight", w), d) for w, d in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        for w, d in comps:
            if not (0 < w <= 1):
                raise ValueError("weights must lie in (0, 1]")
            if not isinstance(d, DistributionSpec):
                raise ValueError(f"component must be a distribution, got {d!r}")
        if abs(math.fsum(w for w, _ in comps) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class ConditionedBelow:
    """Law of ``base`` given {base < cutoff}.

    Derived variant produced by :func:`truncate_below` and
    :func:`split_endpoint_atom`; base must be Erlang, the exponential
    (shape one) included; the other variants condition structurally.
    """

    base: Erlang
    cutoff: float

    def __post_init__(self):
        if not isinstance(self.base, Erlang):
            raise ValueError("base must be Exponential or Erlang")
        object.__setattr__(self, "cutoff", _real("cutoff", self.cutoff))
        if not 0 < self.cutoff < math.inf:
            raise ValueError("cutoff must be positive and finite")


# a PEP 604 union: typing.Union caches its aliases process-wide, which
# would keep the classes of every earlier import of this module alive
DistributionSpec = (Deterministic | UniformInterval | Erlang | FiniteMixture
                    | ConditionedBelow)


def _per_spec(compute):
    # memoise a constant of a frozen spec on the instance, outside its
    # fields, so that equality and hashing are unchanged
    name = "_" + compute.__name__

    @functools.wraps(compute)
    def cached(d):
        try:
            return d.__dict__[name]
        except KeyError:
            value = d.__dict__[name] = compute(d)
            return value
    return cached


@_per_spec
def _cond_parts(d: ConditionedBelow) -> Tuple[int, float, float]:
    k, rate = d.base.shape, d.base.rate
    return k, rate, float(gammainc(k, rate * d.cutoff))


def _cond_moment(d: ConditionedBelow, j: int, s: float) -> float:
    """E[X^j exp(s X)] of the Erlang(k, rate) law conditioned below the cutoff.

    For theta = rate - s > 0 it is (rate/theta)^k k (k+1) ... (k+j-1)
    P(k+j, theta*cutoff) / (theta^j den), which forms no rate^k or (k-1)!
    on its own; otherwise an all-positive series, cut short at overflow."""
    k, rate, den = _cond_parts(d)
    theta = rate - s
    if theta > 0:
        rising = math.prod(range(k, k + j))
        return ((rate / theta) ** k * float(gammainc(k + j, theta * d.cutoff))
                * rising / theta ** j / den)
    # rate^k / (k-1)! * integral of x^m e^{a x} over [0, y], m = k-1+j, a = -theta
    m, a, y = k - 1 + j, -theta, d.cutoff
    p = y ** (m + 1)
    total = 0.0
    for i in range(100000):
        term = p / (m + i + 1)
        total += term
        if term < total * 1e-18 or math.isinf(total):
            break
        p *= a * y / (i + 1)
    return rate ** k / math.factorial(k - 1) * total / den


@_per_spec
def support(d: DistributionSpec) -> Tuple[float, float, float]:
    """(ess inf, ess sup, abscissa of convergence of the mgf), the variant
    dispatched once; the abscissa is +inf for bounded support.  A mixture
    takes the min, the max and the min over its components."""
    if isinstance(d, Erlang):
        return 0.0, math.inf, d.rate
    if isinstance(d, Deterministic):
        return d.value, d.value, math.inf
    if isinstance(d, UniformInterval):
        return d.lo, d.hi, math.inf
    if isinstance(d, ConditionedBelow):
        return 0.0, d.cutoff, math.inf
    infs, sups, abscissas = zip(*(support(c) for _, c in d.components))
    return min(infs), max(sups), min(abscissas)


def mgf(d: DistributionSpec, s: float) -> float:
    """E[exp(s X)], exact per-variant closed form.

    Raises OutOfDomainError when s >= s_max(d).
    """
    if s >= support(d)[2]:
        raise OutOfDomainError(f"s={s} at or beyond abscissa of convergence")
    return _mgf(d, s)


def _mgf(d, s):
    if isinstance(d, Exponential):   # the hottest kernel: no pow for shape one
        return d.rate / (d.rate - s)
    if isinstance(d, Deterministic):
        return math.exp(s * d.value)
    if isinstance(d, UniformInterval):
        if s == 0.0:
            return 1.0
        x = s * (d.hi - d.lo)
        return math.exp(s * d.lo) * math.expm1(x) / x
    if isinstance(d, Erlang):
        return (d.rate / (d.rate - s)) ** d.shape
    if isinstance(d, ConditionedBelow):
        return _cond_moment(d, 0, s)
    return math.fsum(w * _mgf(c, s) for w, c in d.components)


def mgf_deriv(d: DistributionSpec, s: float) -> float:
    """E[X exp(s X)], the derivative of the mgf."""
    if s >= support(d)[2]:
        raise OutOfDomainError(f"s={s} at or beyond abscissa of convergence")
    return _mgf_deriv(d, s)


def _uniform_slope(x: float) -> float:
    # d/dx of expm1(x)/x; series near 0 avoids cancellation
    if abs(x) < 1e-4:
        return 0.5 + x / 3.0 + x * x / 8.0 + x ** 3 / 30.0
    return ((x - 1.0) * math.exp(x) + 1.0) / (x * x)


def _mgf_deriv(d, s):
    if isinstance(d, Exponential):   # rounds apart from the shape-one Erlang form
        return d.rate / (d.rate - s) ** 2
    if isinstance(d, Deterministic):
        return d.value * math.exp(s * d.value)
    if isinstance(d, UniformInterval):
        h = d.hi - d.lo
        x = s * h
        if s == 0.0:
            return 0.5 * (d.lo + d.hi)
        g = math.expm1(x) / x
        return math.exp(s * d.lo) * (d.lo * g + h * _uniform_slope(x))
    if isinstance(d, Erlang):
        return d.shape / (d.rate - s) * (d.rate / (d.rate - s)) ** d.shape
    if isinstance(d, ConditionedBelow):
        return _cond_moment(d, 1, s)
    return math.fsum(w * _mgf_deriv(c, s) for w, c in d.components)


def moments(d: DistributionSpec) -> Tuple[float, float]:
    """(mean, variance) in closed form."""
    if isinstance(d, Deterministic):
        return d.value, 0.0
    if isinstance(d, UniformInterval):
        return 0.5 * (d.lo + d.hi), (d.hi - d.lo) ** 2 / 12.0
    if isinstance(d, Erlang):
        return d.shape / d.rate, d.shape / d.rate ** 2
    if isinstance(d, ConditionedBelow):
        m1 = _cond_moment(d, 1, 0.0)
        return m1, _cond_moment(d, 2, 0.0) - m1 * m1
    parts = [(w,) + moments(c) for w, c in d.components]
    mean = math.fsum(w * m for w, m, _ in parts)
    msq = math.fsum(w * (v + m * m) for w, m, v in parts)
    return mean, msq - mean * mean


def masses(d: DistributionSpec, x: float) -> Tuple[float, float, float]:
    """(P(X < x), P(X = x), P(X > x)), the variant dispatched once.

    Each side is computed from its own end of the law, so a tiny lower
    or upper mass keeps its digits instead of rounding to 0 as one minus
    the other side would.  Only Deterministic leaves carry atoms; a
    mixture sums P(X <= x), the atom and the upper mass over its
    components, then takes the atom off the first."""
    if isinstance(d, Deterministic):
        return float(x > d.value), float(x == d.value), float(x < d.value)
    if isinstance(d, UniformInterval):
        width = d.hi - d.lo
        return (min(1.0, max(0.0, (x - d.lo) / width)), 0.0,
                min(1.0, max(0.0, (d.hi - x) / width)))
    if isinstance(d, FiniteMixture):
        parts = [(w, masses(c, x)) for w, c in d.components]
        at = math.fsum(w * a for w, (_, a, _) in parts)
        return (math.fsum(w * (b + a) for w, (b, a, _) in parts) - at, at,
                math.fsum(w * c for w, (_, _, c) in parts))
    if isinstance(d, ConditionedBelow):
        if x <= 0:
            return 0.0, 0.0, 1.0
        if x >= d.cutoff:
            return 1.0, 0.0, 0.0
        k, rate, den = _cond_parts(d)
        below = float(gammainc(k, rate * x))
        # P(x < base < cutoff) from whichever side of the base law is small
        if den < 0.5:
            return below / den, 0.0, (den - below) / den
        return below / den, 0.0, (float(gammaincc(k, rate * x))
                                  - float(gammaincc(k, rate * d.cutoff))) / den
    if not x > 0:
        return 0.0, 0.0, 1.0
    # an exponential keeps expm1's rounding, which gammainc(1, .) does not share
    if isinstance(d, Exponential):
        below = -math.expm1(-d.rate * x)
    else:
        below = float(gammainc(d.shape, d.rate * x))
    return below, 0.0, float(gammaincc(d.shape, d.rate * x))


_RTOL = 4 * sys.float_info.epsilon


def _value(x: float, f, *args) -> float:
    try:
        fx = f(x, *args)
    except ArithmeticError as exc:
        raise NumericalFailure(
            f"{f.__name__} overflows or divides by zero at {x!r}") from exc
    if math.isnan(fx):
        raise NumericalFailure(f"{f.__name__} is NaN at {x!r}")
    return fx


def find_root(f, args: tuple, lo: float, f_lo: float, points) -> Optional[float]:
    """The root of ``f(x, *args)``, which is ``f_lo`` <= 0 at ``lo`` and rises
    through zero once to its right; the first of the increasing ``points``
    where f > 0 closes the bracket, and None means there is none.

    An infinite end (a domain edge, an overflow) moves inward by bisection,
    then Brent's method (Brent 1973) solves to 4 machine epsilons relative
    from the two ends held, step for step as SciPy 1.17's ``brentq``
    (``brentq.c``), so a root keeps brentq's bits without its evaluations
    of the ends.  A NaN, an overflow f lets escape, or no convergence in
    100 iterations raises NumericalFailure."""
    if math.isnan(f_lo):
        raise NumericalFailure(f"{f.__name__} is NaN at {lo!r}")
    for x in points:
        f_x = _value(x, f, *args)
        if f_x > 0:
            hi, f_hi = x, f_x
            break
        lo, f_lo = x, f_x
    else:
        return None
    while math.isinf(f_lo) or math.isinf(f_hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise NumericalFailure(f"{f.__name__} has no finite bracket near {mid!r}")
        f_mid = _value(mid, f, *args)
        if f_mid > 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    if f_lo == 0:
        return lo
    # brentq.c's names: xcur is the best point, xblk the far end of the
    # bracket, xpre the previous point.  f is never NaN, and fpre never 0;
    # a zero fcur returns before the block is read, so brentq's test of
    # signbit on two nonzero values is (f < 0)
    xpre, fpre, xcur, fcur = lo, f_lo, hi, f_hi
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # xtol = 5e-324, no absolute floor; rtol = 4 eps, the least brentq takes
        delta = (5e-324 + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf     # a bisection, unless a short step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:               # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass                # C's inf or NaN, which bisects
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(xcur, f, *args)
    raise NumericalFailure("Failed to converge after 100 iterations.")


def _doublings():
    # the right ends every bracket search tries: 1, 2, 4, ..., 2**1023
    return (2.0 ** k for k in range(1024))


def _mgf_gap(u: float, d, v: float) -> float:
    return v - _mgf(d, -u)


@_per_spec
def _atom_at_zero(d: DistributionSpec) -> float:
    return masses(d, 0.0)[1]


def inverse_mgf_neg(d: DistributionSpec, v: float) -> float:
    """The unique u >= 0 with mgf(d, -u) = v.

    The map u -> mgf(d, -u) decreases continuously from 1 toward P(X=0),
    so v must lie in (P(X=0), 1].  The bracket doubles from [0, 1], then
    :func:`find_root` solves to machine precision relative in u.
    """
    if v > 1.0:
        raise OutOfRangeError(f"v={v} exceeds mgf(d, 0) = 1")
    floor = _atom_at_zero(d)
    if v <= floor:
        raise OutOfRangeError(f"v={v} at or below inf mgf(d, -u) = {floor}")
    if v == 1.0:
        return 0.0
    u = find_root(_mgf_gap, (d, v), 0.0, v - 1.0, _doublings())
    if u is None:
        raise OutOfRangeError(f"v={v} too close to the infimum to bracket")
    return u


def _condition_below(d: DistributionSpec, y: float) -> DistributionSpec:
    # law of X given {X < y}; caller guarantees P(X < y) > 0
    if isinstance(d, Erlang):
        return ConditionedBelow(d, y)
    if isinstance(d, Deterministic):
        return d
    if isinstance(d, UniformInterval):
        return d if y >= d.hi else UniformInterval(d.lo, y)
    if isinstance(d, ConditionedBelow):
        return d if y >= d.cutoff else ConditionedBelow(d.base, y)
    parts = [(w * masses(c, y)[0], c) for w, c in d.components]
    total = math.fsum(p for p, _ in parts)
    kept = [(p / total, _condition_below(c, y)) for p, c in parts if p > 0]
    if len(kept) == 1:
        return kept[0][1]
    return FiniteMixture(tuple(kept))


def truncate_below(d: DistributionSpec, y: float) -> DistributionSpec:
    """Law of X*1(X < y): mass P(X >= y) relocated to an atom at 0."""
    if not y > 0:
        raise ValueError("y must be positive")
    below, at, above = masses(d, y)
    # P(X >= y) from the upper side, so that a tiny tail keeps its mass
    above += at
    if above == 0.0:
        return d
    if below == 0.0:
        return Deterministic(0.0)
    return FiniteMixture(((above, Deterministic(0.0)),
                          (below, _condition_below(d, y))))


def split_endpoint_atom(
    d: DistributionSpec,
) -> Tuple[float, float, Optional[DistributionSpec]]:
    """(q, x_B, B1): endpoint atom mass, essential sup, and the law of
    X given {X < x_B} when 0 < q < 1 (None when q is 0 or 1)."""
    x_b = support(d)[1]
    if math.isinf(x_b):
        return 0.0, math.inf, None
    q = masses(d, x_b)[1]
    if q == 0.0:
        return 0.0, x_b, None
    if q >= 1.0:
        return 1.0, x_b, None
    return q, x_b, _condition_below(d, x_b)


def stream(seed: int, index: int) -> np.random.Generator:
    """Named substream: generator index of the family rooted at seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# SeedSequence's hash constants and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_MULT, _M128 = (2549297995355413924 << 64) + 4865540595714422341, (1 << 128) - 1
_KEYS = 4096    # spawn keys hashed at a time


def _stream_run(seed: int, count: int):
    """``stream(seed, i)`` for i < count < 2**32, bitwise, as one generator
    whose PCG64 state is reset for each i, so read each before the next.
    SeedSequence's algorithm (stable under NEP 19) mixes each key last into
    the seed's pool, after 4 hashes per seed word (at least 16), in uint32
    batches; PCG64's two seeding steps run on Python ints."""
    pool = np.random.SeedSequence(seed).pool.tolist()
    calls = 4 * max(4, -(-int(seed).bit_length() // 32))
    hk = [_INIT_A * pow(_MULT_A, calls + i, 1 << 32) & _M32 for i in range(5)]
    hb = [_INIT_B * pow(_MULT_B, i, 1 << 32) & _M32 for i in range(9)]
    rng = np.random.Generator(np.random.PCG64())
    for lo in range(0, count, _KEYS):
        key = np.arange(lo, min(count, lo + _KEYS), dtype=np.uint32)
        with np.errstate(over="ignore"):
            h = [(key ^ hk[j]) * hk[j + 1] for j in range(4)]
            m = [(_MIX_L * p & _M32) - _MIX_R * (x ^ x >> 16) for p, x in zip(pool, h)]
            w = [(m[i % 4] ^ m[i % 4] >> 16 ^ hb[i]) * hb[i + 1] for i in range(8)]
        w = [(x ^ x >> 16).astype(np.uint64) for x in w]
        for s_hi, s_lo, i_hi, i_lo in zip(*[(w[j] | w[j + 1] << 32).tolist()
                                            for j in (0, 2, 4, 6)]):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
            rng.bit_generator.state = dict(bit_generator="PCG64", has_uint32=0,
                                           uinteger=0, state=dict(state=state, inc=inc))
            yield rng


_BLOCK = 1 << 20    # uniforms per draw of an Erlang sample


def sample_array(d: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n inverse-transform draws as a float64 array.

    Mixture draws consume the selector uniforms first, then one block of
    uniforms per component in declaration order, so a (seed, n) pair
    fixes the output exactly.
    """
    return _sampler(d, 0.0)(rng, n)


def _sampler(d: DistributionSpec, theta: float):
    """draw(rng, n) for the law of d reweighted by exp(theta * x), the
    variant dispatched once, here.  An exponential or Erlang law becomes
    the same law at rate - theta; tilting it to or past that rate raises
    OutOfDomainError, unless it is an exponential conditioned below a
    cutoff, whose density then rises.  At theta = 0 a mixture keeps its
    raw weights."""
    if isinstance(d, Deterministic):
        return lambda rng, n: np.full(n, d.value, dtype=np.float64)
    if isinstance(d, UniformInterval):
        return functools.partial(_window_draw, d.lo, d.hi - d.lo, theta)
    if isinstance(d, FiniteMixture):
        weights = [w * mgf(c, theta) if theta else w for w, c in d.components]
        total = math.fsum(weights) if theta else 1.0
        return functools.partial(_mixture_draw, [w / total for w in weights],
                                 [_sampler(c, theta) for _, c in d.components])
    base = d.base if isinstance(d, ConditionedBelow) else d
    k, rate = base.shape, base.rate
    cutoff = support(d)[1]
    if k == 1 and cutoff < math.inf:
        return functools.partial(_window_draw, 0.0, cutoff, theta - rate)
    if not theta < rate:
        raise OutOfDomainError(f"tilt {theta} reaches the rate of {base}")
    rate -= theta
    if cutoff < math.inf:
        top = gammainc(k, rate * cutoff)
        return lambda rng, n: gammaincinv(k, rng.random(n) * top) / rate
    if k == 1:
        return lambda rng, n: -np.log1p(-rng.random(n)) / rate

    def erlang(rng, n):
        # rows of k uniforms, drawn in blocks of at most _BLOCK of them (one
        # row if k is larger); the generator fills in order, so the draws
        # equal one (n, k) block
        rows = max(1, _BLOCK // k)
        out = np.empty(n, dtype=np.float64)
        for lo in range(0, n, rows):
            u = rng.random((min(rows, n - lo), k))
            out[lo:lo + len(u)] = -np.log1p(-u).sum(axis=1) / rate
        return out
    return erlang


def _window_draw(lo: float, width: float, slope: float,
                 rng: np.random.Generator, n: int) -> np.ndarray:
    """n inverse-transform draws from the density proportional to
    exp(slope * x) on [lo, lo + width), one uniform each."""
    u = rng.random(n)
    t = slope * width
    if t == 0.0:
        return lo + u * width
    return lo + np.log1p(u * np.expm1(t)) / slope


def _mixture_draw(weights, draws, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of a mixture: the selector uniforms first, then one block
    ``draws[j](rng, count)`` per component j in order."""
    u = rng.random(n)
    # searchsorted(cumsum, u, side="right") clamped to the last component
    idx = np.zeros(n, dtype=np.intp)
    for c in np.cumsum(weights)[:-1].tolist():
        idx += u >= c
    out = np.empty(n, dtype=np.float64)
    for j, draw in enumerate(draws):
        mask = idx == j
        cnt = int(mask.sum())
        if cnt:
            out[mask] = draw(rng, cnt)
    return out


def _first_passage(draw, rng: np.random.Generator, level: float,
                   chunk: int) -> Tuple[np.ndarray, float]:
    """The steps of a walk from 0, drawn ``draw(rng, chunk)`` at a time, up
    to and including the first whose partial sum exceeds ``level``, and
    that sum.  Whole chunks are drawn, so the draws depend on rng alone."""
    parts = []
    total = 0.0
    while True:
        steps = draw(rng, chunk)
        path = total + np.cumsum(steps)
        over = np.flatnonzero(path > level)
        if over.size:
            k = int(over[0])
            parts.append(steps[:k + 1])
            return np.concatenate(parts), float(path[k])
        parts.append(steps)
        total = float(path[-1])


def _passages(draw, seed: int, count: int, level: float, chunk: int) -> np.ndarray:
    """``_first_passage(draw, stream(seed, i), level, chunk)[1]`` for i < count,
    bitwise.  One cumulative sum over a block of _KEYS first chunks finds
    every passage they hold; a walk whose first chunk stays at or below
    the level is walked on alone, from its stream drawn again."""
    sums = np.empty(count, dtype=np.float64)
    runs = _stream_run(seed, count)
    for lo in range(0, count, _KEYS):
        path = np.cumsum([draw(rng, chunk) for rng in itertools.islice(runs, _KEYS)],
                         axis=1)
        over = path > level
        rows, first = np.arange(len(path)), over.argmax(axis=1)
        sums[lo:lo + len(path)] = path[rows, first]
        for r in np.flatnonzero(~over[rows, first]).tolist():
            sums[lo + r] = _first_passage(draw, stream(seed, lo + r), level, chunk)[1]
    return sums


# each leaf law's JSON tag and fields, in the order to_json writes them
_LEAVES = {
    Exponential: ("exponential", ("rate",)),
    Deterministic: ("deterministic", ("value",)),
    UniformInterval: ("uniform", ("lo", "hi")),
    Erlang: ("erlang", ("shape", "rate")),
}


def to_json(d: DistributionSpec) -> dict:
    if type(d) in _LEAVES:
        tag, fields = _LEAVES[type(d)]
        return {"type": tag, **{f: getattr(d, f) for f in fields}}
    if isinstance(d, ConditionedBelow):
        return {"type": "conditioned_below", "base": to_json(d.base),
                "cutoff": d.cutoff}
    return {"type": "mixture",
            "components": [{"weight": w, "dist": to_json(c)}
                           for w, c in d.components]}


def _count(name: str, value, least: int) -> int:
    """A count argument as an int; a bool, a value that is not an integer
    (numpy integers are) or one below ``least`` is a ValueError."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"not {value!r}")
    return int(value)


_MAX_NESTING = 100


def from_json(obj: dict) -> DistributionSpec:
    """Parse the JSON object form; raises ValueError on malformed input,
    including a law nested more than _MAX_NESTING levels deep.  Only the
    structure is read here; each constructor checks its own fields."""
    return _from_json(obj, _MAX_NESTING)


def _from_json(obj, levels: int) -> DistributionSpec:
    if levels == 0:
        raise ValueError(f"distribution nests more than {_MAX_NESTING} levels")
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("distribution JSON must be an object with a 'type'")
    t = obj["type"]
    try:
        # compared, not looked up: a tag such as [1] is no dict key
        for cls, (tag, fields) in _LEAVES.items():
            if t == tag:
                return cls(*(obj[f] for f in fields))
        if t == "conditioned_below":
            return ConditionedBelow(_from_json(obj["base"], levels - 1), obj["cutoff"])
        if t == "mixture":
            return FiniteMixture(tuple((c["weight"], _from_json(c["dist"], levels - 1))
                                       for c in obj["components"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {t!r} distribution: {exc!r}") from exc
    raise ValueError(f"unknown distribution type {t!r}")
