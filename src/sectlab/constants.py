"""Exact log-domain evaluation of the special constants of section geometry.

Everything here is a closed-form function of small integers, but the
quantities themselves (`p(n, s)`, `gamma^{-n}`) overflow double precision
long before n reaches 100, so every function returns the natural
logarithm of its constant as a plain float, and its name says so with a
``log_`` prefix.  ``math.lgamma`` is the only special function needed.
"""

from __future__ import annotations

import math

__all__ = [
    "log_ball_volume",
    "log_gamma_nk",
    "gamma_within_bounds",
    "log_bp_constant",
    "growth_ratio",
]


def log_ball_volume(n: int) -> float:
    """log omega_n, the log volume of the unit Euclidean ball in R^n.

    omega_n = pi^(n/2) / Gamma(n/2 + 1).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


def _check_codim(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise ValueError(f"codimension k must satisfy 1 <= k <= n-1, got n={n}, k={k}")


def log_gamma_nk(n: int, k: int) -> float:
    """log gamma_{n,k}, the log of the section constant omega_n^((n-k)/n) / omega_{n-k}.

    Equals the reciprocal of the (n-k)-volume of any central section of
    the volume-one Euclidean ball; always strictly between e^(-k/2) and 1.
    """
    _check_codim(n, k)
    return (n - k) / n * log_ball_volume(n) - log_ball_volume(n - k)


def gamma_within_bounds(n: int, k: int) -> bool:
    """Check e^(-k/2) < gamma_{n,k} < 1 in log domain."""
    return -0.5 * k < log_gamma_nk(n, k) < 0.0


def log_bp_constant(n: int, s: int) -> float:
    """log p(n, s), the log of the Blaschke-Petkantschin constant.

    p(n, s) = (s!)^(n-s) * prod_{j=n-s+1..n} (j omega_j)
                         / prod_{j=1..s}     (j omega_j)

    All factors are accumulated as log sums; p(n, n-k) exceeds the double
    range already for moderate n.
    """
    if not 1 <= s <= n - 1:
        raise ValueError(f"subspace dimension must satisfy 1 <= s <= n-1, got n={n}, s={s}")
    total = (n - s) * math.lgamma(s + 1.0)
    for j in range(n - s + 1, n + 1):
        total += math.log(j) + log_ball_volume(j)
    for j in range(1, s + 1):
        total -= math.log(j) + log_ball_volume(j)
    return total


def growth_ratio(n: int, k: int) -> float:
    """Normalized growth of the combined section-inequality constant.

    Returns [gamma_{n,k}^(-n) p(n, n-k)]^(1/(k(n-k))) / sqrt(n-k), fully
    in log domain.  The bracket grows like sqrt(n-k) to the k(n-k) power,
    so the ratio stays in an O(1) band; [0.3, 5] is asserted as a
    regression bound for n <= 60.
    """
    _check_codim(n, k)
    log_bracket = -n * log_gamma_nk(n, k) + log_bp_constant(n, n - k)
    return math.exp(log_bracket / (k * (n - k))) / math.sqrt(n - k)
