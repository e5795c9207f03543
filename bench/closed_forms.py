"""Closed forms the benchmark checks the program's outputs against.

Stdlib only: the harness must not share numerics with the code it checks.
Every radial catalog pair attains equality in the growth bound, so
v(R) = M(R) exp(-I(r0, R)) equals m(r0) along the whole ladder.
"""

from __future__ import annotations

import math

E_2 = math.exp(math.e)  # the loglog seam e^e


def ln_k(k: int, r: float) -> float:
    """k-fold natural logarithm."""
    for _ in range(k):
        r = math.log(r)
    return r


def log_product_integral(alpha: float, depth: int, r0: float, R: float) -> float:
    """I for kappa = alpha ln r ln ln r ... ln_depth r: (1/alpha) ln(ln_depth R / ln_depth r0)."""
    return math.log(ln_k(depth, R) / ln_k(depth, r0)) / alpha


def loglog_kappa(alpha: float, r: float) -> float:
    """Circle mean of |K|^2 for the doubly-logarithmic pair: 1 inside e^e."""
    return 1.0 if r < E_2 else alpha * math.log(r) * math.log(math.log(r))


def loglog_integral(alpha: float, r0: float, R: float) -> float:
    """I for the piecewise loglog profile (1 below e^e, alpha ln r ln ln r above)."""
    inner = math.log(min(R, E_2) / r0) if r0 < E_2 else 0.0
    outer = log_product_integral(alpha, 2, max(r0, E_2), R) if R > E_2 else 0.0
    return inner + outer


def loglog_modulus(alpha: float, r: float) -> float:
    """|f| on |z| = r for the doubly-logarithmic map."""
    return r * math.exp(-math.e) if r < E_2 else math.log(math.log(r)) ** (1.0 / alpha)


def linear_moduli(a: complex, b: complex, r: float):
    """(M, m) of |a conj z + b z| on |z| = r."""
    return (abs(a) + abs(b)) * r, abs(abs(b) - abs(a)) * r


def linear_kappa(a: complex, b: complex) -> float:
    """Circle mean of |K|^2 for the linear pair (constant in r)."""
    return (abs(a) ** 2 + abs(b) ** 2) / (abs(b) ** 2 - abs(a) ** 2)


def table_integral(radii, values, r0: float, R: float) -> float:
    """I for kappa tabulated log-log linearly: on each knot interval
    kappa = v_i e^{p_i (t - t_i)} in t = ln r, integrated exactly."""
    total = 0.0
    for (ra, va), (rb, vb) in zip(zip(radii, values), zip(radii[1:], values[1:])):
        lo, hi = max(ra, r0), min(rb, R)
        if hi <= lo:
            continue
        ta = math.log(ra)
        p = math.log(vb / va) / (math.log(rb) - ta)
        u, w = math.log(lo) - ta, math.log(hi) - ta
        if p == 0.0:
            total += (w - u) / va
        else:
            total += (math.exp(-p * u) - math.exp(-p * w)) / (p * va)
    return total


def grid_integral(mean_g: float, a: float, b: float, r0: float, R: float) -> float:
    """I for kappa(r) = mean_g (a + b ln r), the circle mean of a grid |K|^2
    that is linear in ln r and piecewise linear in theta."""
    return math.log((a + b * math.log(R)) / (a + b * math.log(r0))) / (b * mean_g)


def close(value: float, expected: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - expected) <= max(
        rel * abs(expected), abs_tol
    )
