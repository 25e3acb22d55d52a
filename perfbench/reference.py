"""Reference values computed apart from queuedecay.

Each function takes plain parameters, never a queuedecay object, and
uses its own closed-form moment generating functions with scipy's
``brentq``.  The benchmark checks the program's outputs against these.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq


def mgf_uniform(s: float, lo: float, hi: float) -> float:
    if s == 0.0:
        return 1.0
    x = s * (hi - lo)
    return math.exp(s * lo) * math.expm1(x) / x


def mgf_uniform_deriv(s: float, lo: float, hi: float) -> float:
    # E[X exp(sX)] for X ~ Uniform(lo, hi), by integration by parts
    if s == 0.0:
        return 0.5 * (lo + hi)
    return ((hi * math.exp(s * hi) - lo * math.exp(s * lo)) / s
            - (math.exp(s * hi) - math.exp(s * lo)) / (s * s)) / (hi - lo)


def positive_root(h) -> float:
    """The root s > 0 of a convex h with h(0) = 0 and h'(0) < 0."""
    hi = 1.0
    while h(hi) <= 0.0:
        hi *= 2.0
    lo = hi
    while h(lo) >= 0.0:
        lo *= 0.5
    return brentq(h, lo, hi, xtol=1e-15, rtol=1e-15)


def mm1(lam: float, mu: float) -> dict:
    """M/M/1 rates: workload mu - lam and busy period (sqrt mu - sqrt lam)^2."""
    return {"gamma_w": mu - lam,
            "gamma_p": (math.sqrt(mu) - math.sqrt(lam)) ** 2}


def md1_gamma_w(lam: float, d: float) -> float:
    """Root s > 0 of lam (exp(s d) - 1) = s."""
    return positive_root(lambda s: lam * math.expm1(s * d) - s)


def atom_rates(lam: float, q: float, lo: float, hi: float, x_b: float) -> dict:
    """Poisson(lam) arrivals, service (1-q) Uniform(lo, hi) + q Det(x_b).

    gamma_w solves lam (Phi_B(s) - 1) = s; gamma_p is the maximum of the
    concave s - lam (Phi_B(s) - 1), where lam Phi_B'(s) = 1; the paper's
    atom formula gamma_v = lam q (exp(x_b gamma_w) - 1) holds when the
    guard lam (1-q) Phi_B1'(gamma_w) < 1 does.
    """
    def phi(s):
        return (1.0 - q) * mgf_uniform(s, lo, hi) + q * math.exp(s * x_b)

    def phi_deriv(s):
        return ((1.0 - q) * mgf_uniform_deriv(s, lo, hi)
                + q * x_b * math.exp(s * x_b))

    gw = positive_root(lambda s: lam * (phi(s) - 1.0) - s)
    s_opt = brentq(lambda s: lam * phi_deriv(s) - 1.0, 0.0, gw,
                   xtol=1e-15, rtol=1e-15)
    gp = s_opt - lam * (phi(s_opt) - 1.0)
    guard = lam * (1.0 - q) * mgf_uniform_deriv(gw, lo, hi) < 1.0
    gv = lam * q * math.expm1(x_b * gw) if guard else None
    return {"gamma_w": gw, "gamma_p": gp, "gamma_v": gv}


def pollaczek_khinchine(lam: float, mean_b2: float, rho: float) -> float:
    """Mean FIFO wait of the M/G/1 queue."""
    return lam * mean_b2 / (2.0 * (1.0 - rho))


def cobham(lam: float, mean_b2: float, rho1: float, rho: float):
    """Mean waits of classes 1 and 2 under non-preemptive priority."""
    w0 = 0.5 * lam * mean_b2
    return w0 / (1.0 - rho1), w0 / ((1.0 - rho1) * (1.0 - rho))


def mm1_workload_tail(lam: float, mu: float, x: float) -> float:
    """P(W > x) = rho exp(-(mu - lam) x) for the M/M/1 queue."""
    return lam / mu * math.exp(-(mu - lam) * x)


def mm1_psi(lam: float, mu: float, s: float) -> float:
    """psi(s) = lam s / (mu - s) for Poisson(lam) input of Exp(mu) work."""
    return lam * s / (mu - s)


def erlang_uniform_psi(k: int, rate: float, lo: float, hi: float,
                       s: float) -> float:
    """The root u >= 0 of Phi_A(-u) Phi_B(s) = 1 for Erlang(k, rate)
    inter-arrivals and Uniform(lo, hi) services."""
    def excess(u):
        return k * math.log(rate / (rate + u)) + math.log(mgf_uniform(s, lo, hi))

    hi_u = 1.0
    while excess(hi_u) > 0.0:
        hi_u *= 2.0
    return brentq(excess, 0.0, hi_u, xtol=1e-15, rtol=1e-15)
