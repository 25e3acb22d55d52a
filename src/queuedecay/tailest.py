"""Tail decay estimation and rare-event cross-validation.

``fit_decay`` returns minus the least-squares slope of the log empirical
ccdf between the 0.99 sample quantile and the tenth-largest sample.  It
partitions the samples at the lower window end and sorts and counts only
the top 1 - lo_quantile share, which holds every sample the fit reads;
a bootstrap resample passes on only its picks above a threshold that
holds that share, bar a rare fallback to the whole resample.
``is_workload_tail`` estimates P(W > x) by importance sampling: the
increment walk is tilted at gamma_w, where psi(gamma_w) = gamma_w and
psi' > 1, so it drifts upward and first passage is certain.  The tilted
laws come from ``dist._sampler`` and the walks from ``dist._passages``,
which reads the replications' first chunks in blocks and walks on alone
only a replication whose first chunk does not pass; levels with
gamma_w * x above about 354 are refused, because the squared weights the
relative error needs underflow there.

The bootstrap interval resamples at the customer level and ignores the
dependence between successive waits, so it is optimistic, and the
regression stderr understates error because ccdf points are dependent;
``fits_agree`` therefore compares two fits through intervals of
half-width max(4 * stderr, 0.02 * rate).
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .dist import OutOfDomainError, _count, _passages, _real, _sampler, stream
from .ratecalc import QueueModel, _psi_slope, gamma_w_detail


class DegenerateTailError(ValueError):
    """Too few distinct values in the fitting window to estimate a slope."""


class TiltUnavailableError(ValueError):
    """No upward-drifting exponential change of measure exists here."""


@dataclass(frozen=True)
class TailFit:
    rate: float
    stderr: float
    window: Tuple[float, float]
    points_used: int
    bootstrap_ci: Optional[Tuple[float, float]] = None

    def to_json(self) -> dict:
        ci = None if self.bootstrap_ci is None else [self.bootstrap_ci[0],
                                                     self.bootstrap_ci[1]]
        return {"rate": self.rate, "stderr": self.stderr,
                "window": [self.window[0], self.window[1]],
                "points": self.points_used, "ci": ci}


_DROP_TOP = 10


def _window_ends(n: int, lo_quantile: float) -> Tuple[int, int]:
    # order-statistic indices of the window's ends among n samples
    return int(np.ceil(lo_quantile * n)) - 1, n - _DROP_TOP


def _ccdf_slope(v: np.ndarray, n: int, lo_quantile: float, min_points: int):
    # Only the n - k samples at or above the k-th order statistic, the
    # lower window end, enter the fit, and every sample above such a value
    # lies among them, so sorting that top share alone gives the full
    # sort's counts.  v is any part of the n samples that holds that share.
    i_lo, i_hi = _window_ends(n, lo_quantile)
    k = min(i_lo, i_hi)
    j = v.size - (n - k)
    top = np.sort(np.partition(v, j)[j:])
    x_lo, x_hi = top[i_lo - k], top[i_hi - k]
    vals, counts = np.unique(top, return_counts=True)
    tail = top.size - np.cumsum(counts)   # count strictly greater than vals[i]
    m = (vals >= x_lo) & (vals <= x_hi) & (tail > 0)
    if int(m.sum()) < min_points:
        raise DegenerateTailError(
            f"only {int(m.sum())} distinct values in the window "
            f"[{x_lo}, {x_hi}]; need {min_points}")
    xs = vals[m]
    ys = np.log(tail[m] / n)
    xbar = xs.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * ys).sum()) / sxx
    resid = ys - ys.mean() - slope * (xs - xbar)
    se = math.sqrt(float((resid ** 2).sum()) / (len(xs) - 2) / sxx)
    return -slope, se, (float(x_lo), float(x_hi)), len(xs)


def fit_decay(samples, lo_quantile: float = 0.99, min_points: int = 500,
              bootstrap: int = 0, seed: int = 0) -> TailFit:
    """Least-squares slope of the log empirical ccdf over the window
    between the lo_quantile sample and the tenth-largest sample; the
    decay rate estimate is minus that slope.

    bootstrap > 0 adds a percentile confidence interval from that many
    customer-level resamples.
    """
    min_points = _count("min_points", min_points, 3)
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        x = x.ravel()
    # the window's order statistics exist from min_points + _DROP_TOP on
    if x.size < min_points + _DROP_TOP:
        raise ValueError(f"need at least {min_points + _DROP_TOP} samples, "
                         f"got {x.size}")
    if np.any(x < 0):
        raise ValueError("samples must be nonnegative")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    lo_quantile = _real("lo_quantile", lo_quantile)
    if not 0.0 < lo_quantile < 1.0:
        raise ValueError("lo_quantile must lie in (0, 1)")
    bootstrap = _count("bootstrap", bootstrap, 0)
    n = x.size
    rate, se, window, pts = _ccdf_slope(x, n, lo_quantile, min_points)
    ci = None
    if bootstrap > 0:
        # a resample's top share, the need values its fit reads, is its picks
        # of at least the (n - 2 need)-th order statistic if need or more
        need = n - min(_window_ends(n, lo_quantile))
        cut = n - 2 * need
        keep = x >= np.partition(x, cut)[cut] if cut > 0 else None
        rng = stream(seed, 0)
        rates: List[float] = []
        for _ in range(bootstrap):
            pick = rng.integers(0, n, n)
            if keep is not None:
                high = pick[keep[pick]]
                pick = high if high.size >= need else pick
            try:
                r, _, _, _ = _ccdf_slope(x[pick], n, lo_quantile, min_points)
            except DegenerateTailError:
                continue
            rates.append(r)
        if len(rates) >= 2:
            lo, hi = np.percentile(rates, [2.5, 97.5])
            ci = (float(lo), float(hi))
    return TailFit(rate=rate, stderr=se, window=window, points_used=pts,
                   bootstrap_ci=ci)


@dataclass(frozen=True)
class RateComparison:
    analytic: float
    fitted: float
    stderr: float
    rel_error: float
    z_score: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def compare_rates(analytic: float, fitted: TailFit,
                  tolerance: float = 0.1) -> RateComparison:
    """Relative error and z-score of a fitted rate against an analytic one;
    passes when |relative error| <= tolerance."""
    diff = fitted.rate - analytic
    if analytic != 0.0:
        rel = diff / analytic
    else:
        rel = 0.0 if diff == 0.0 else math.inf
    if fitted.stderr > 0.0:
        z = diff / fitted.stderr
    else:
        z = 0.0 if diff == 0.0 else math.inf
    return RateComparison(analytic=analytic, fitted=fitted.rate,
                          stderr=fitted.stderr, rel_error=rel, z_score=z,
                          tolerance=tolerance, passed=abs(rel) <= tolerance)


def fits_agree(first: TailFit, second: TailFit) -> bool:
    """Joint-interval agreement: each rate gets the interval
    rate +- max(4 * stderr, 0.02 * rate); the fits agree when the
    intervals overlap.  The relative floor covers the downward bias of
    the regression stderr on dependent ccdf points."""
    h1 = max(4.0 * first.stderr, 0.02 * abs(first.rate))
    h2 = max(4.0 * second.stderr, 0.02 * abs(second.rate))
    return (first.rate - h1 <= second.rate + h2
            and second.rate - h2 <= first.rate + h1)


@dataclass(frozen=True)
class TiltedMeasure:
    nu: float
    arrival: Callable[[np.random.Generator, int], np.ndarray]
    service: Callable[[np.random.Generator, int], np.ndarray]


def tilt_measure(model: QueueModel) -> TiltedMeasure:
    """Exponential change of measure at the workload decay rate nu:
    services reweighted by exp(nu * b), inter-arrivals by exp(-psi(nu) * a).
    There psi(nu) = nu, and the tilted walk drifts upward exactly when
    psi'(nu) > 1.  ``arrival(rng, n)`` and ``service(rng, n)`` draw from
    the tilted laws; a tilt with no law in dist is TiltUnavailableError."""
    nu, boundary = gamma_w_detail(model)
    if boundary:
        raise TiltUnavailableError(
            "the decay rate lies within the search margin of the service "
            "MGF abscissa, where the tilted service law does not exist")
    try:
        slope = _psi_slope(model.arrival, model.service, nu, nu)
    except ArithmeticError:     # read as +inf, as the program searches do
        slope = math.inf
    if not slope > 1.0:
        raise TiltUnavailableError(
            f"psi'(nu) = {slope} <= 1 at nu={nu}: the tilted walk does not rise")
    try:
        arrival, service = _sampler(model.arrival, -nu), _sampler(model.service, nu)
    except OutOfDomainError as exc:
        raise TiltUnavailableError(str(exc)) from exc
    return TiltedMeasure(nu=nu, arrival=arrival, service=service)


def is_workload_tail(model: QueueModel, x: float, replications: int,
                     seed: int) -> Tuple[float, float]:
    """Unbiased importance-sampling estimate of P(W > x) with its relative
    standard error.

    Each replication simulates the random walk S_k = sum(B_i - A_i) under
    the measure tilted at the workload decay rate until first passage over
    x, then weighs the path by exp(-gamma_w * S_tau).  A level where
    exp(-2 gamma_w x) is below the smallest normal float is a ValueError."""
    x = _real("x", x)
    if not 0 <= x < math.inf:
        raise ValueError("x must be finite and nonnegative")
    replications = _count("replications", replications, 2)
    measure = tilt_measure(model)
    nu = measure.nu
    if math.exp(-2.0 * nu * x) < sys.float_info.min:
        raise ValueError(f"gamma_w * x = {nu * x:.6g} is too large: the "
                         "squared weights exp(-2 gamma_w S) underflow")

    def step(rng, n):
        return measure.service(rng, n) - measure.arrival(rng, n)

    # math.exp, not NumPy's, which differs from it in the last bit
    estimates = np.array([math.exp(-nu * total) for total in
                          _passages(step, seed, replications, x, 64).tolist()])
    mean = float(estimates.mean())
    se = float(estimates.std(ddof=1)) / math.sqrt(replications)
    return mean, se / mean
