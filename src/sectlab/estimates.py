"""Monte Carlo estimates with standard errors, and structured check reports.

An :class:`Estimate` is a value with a standard error and a sample count.
When ``log_domain`` is set, ``value`` and ``std_error`` live on the log
scale (the std error of a log is the relative std error of the linear
quantity).  Heavy-tailed means of n-th powers are always accumulated via
log-sum-exp and kept in log domain.  The log-sum-exp is :func:`_logsumexp`,
a numpy port of ``scipy.special.logsumexp`` that reproduces its bits, so
importing this package loads no ``scipy`` module.

A :class:`CheckReport` records the outcome of comparing two sides of an
identity ("=") or inequality ("<=") under the fixed tolerance policy:

  "=" : pass iff |lhs - rhs| <= 3 * combined std error AND the relative
        gap is at most 2%.
  "<=": pass iff lhs <= rhs * (1 + 3 * combined relative std error + 1e-9);
        the tiny additive floor absorbs quadrature/rounding error when
        both sides are exact and sit at equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

__all__ = [
    "Estimate",
    "CheckReport",
    "mean_estimate",
    "log_mean_estimate",
    "exact_estimate",
    "exact_log_estimate",
    "equality_report",
    "inequality_report",
]

REL_GAP_TOL = 0.02
SE_MULTIPLIER = 3.0
EXACT_FLOOR = 1e-9


@dataclass(frozen=True)
class Estimate:
    """A scalar estimate with standard error and sample count.

    ``std_error`` follows the plain sample-mean rule for direct means and
    the delta method for powers and ratios. ``log_domain=True`` means
    ``value`` is the natural log of the estimated quantity and
    ``std_error`` is the std error of that log.  ``n_samples`` is 1 for an
    exact value and at least 2 for a sampled one.
    """

    value: float
    std_error: float
    n_samples: int
    log_domain: bool = False

    def to_log(self) -> "Estimate":
        if self.log_domain:
            return self
        if self.value <= 0:
            raise ValueError(f"cannot move non-positive estimate {self.value!r} to log domain")
        return Estimate(math.log(self.value), self.std_error / self.value,
                        self.n_samples, log_domain=True)

    def to_linear(self) -> "Estimate":
        if not self.log_domain:
            return self
        v = math.exp(self.value)
        return Estimate(v, self.std_error * v, self.n_samples, log_domain=False)

    def powered(self, exponent: float) -> "Estimate":
        """Delta-method power: carried out in log domain."""
        e = self.to_log()
        return Estimate(exponent * e.value, abs(exponent) * e.std_error,
                        e.n_samples, log_domain=True)

    def times(self, other: "Estimate") -> "Estimate":
        """Product of independent estimates (errors add in quadrature on logs);
        an exact factor (one sample) keeps the other factor's count."""
        a, b = self.to_log(), other.to_log()
        counts = (a.n_samples, b.n_samples)
        return Estimate(a.value + b.value, math.hypot(a.std_error, b.std_error),
                        max(counts) if 1 in counts else min(counts), log_domain=True)

    def divided_by(self, other: "Estimate") -> "Estimate":
        return self.times(other.powered(-1.0))

    def scaled(self, factor: float) -> "Estimate":
        if self.log_domain:
            if factor <= 0:
                raise ValueError("log-domain estimates only scale by positive factors")
            return Estimate(self.value + math.log(factor), self.std_error,
                            self.n_samples, log_domain=True)
        return Estimate(self.value * factor, self.std_error * abs(factor),
                        self.n_samples, log_domain=False)

    def as_dict(self) -> dict:
        lin = self.to_linear() if self.log_domain and abs(self.value) < 700 else None
        return {
            "value": lin.value if lin is not None else self.value,
            "log": self.to_log().value if (self.log_domain or self.value > 0) else None,
            "se": lin.std_error if lin is not None else self.std_error,
            "log_domain": self.log_domain,
            "n_samples": self.n_samples,
        }


def _mean_and_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and its std error along the last axis, one pair per row."""
    n = values.shape[-1]
    return values.mean(axis=-1), values.std(axis=-1, ddof=1) / math.sqrt(n)


def mean_estimate(values: np.ndarray, factor: float = 1.0) -> Estimate:
    """Plain Monte Carlo mean with std error, optionally scaled."""
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    if n < 2:
        raise ValueError("need at least 2 samples for a standard error")
    m, se = _mean_and_se(values)
    return Estimate(factor * float(m), abs(factor) * float(se), n)


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) over every entry: ``scipy.special.logsumexp(a)``, bit for bit.

    The same steps as scipy's: the m entries equal to the maximum leave the
    shifted sum s, which gives log1p(s / m) + log(m) + max, and a result
    that is not finite falls back to log(sum(exp(a))).
    """
    a = np.ravel(np.asarray(a, dtype=float))
    a_max = a.max()
    ties = a == a_max
    m = float(np.count_nonzero(ties))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(ties, -np.inf, a) - a_max))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def log_mean_estimate(log_values: np.ndarray) -> Estimate:
    """Log-domain mean of exp(log_values), with relative std error.

    Uses the max-shifted log-sum-exp reduction; never leaves log scale.
    The std error of the returned log equals the relative std error of
    the linear mean:  sqrt((N e^D - 1)/(N - 1)) / sqrt(N) * sqrt(N)
    with D = lse(2 v) - 2 lse(v).
    """
    lv = np.asarray(log_values, dtype=float)
    n = lv.size
    if n < 2:
        raise ValueError("need at least 2 samples for a standard error")
    lse1 = _logsumexp(lv)
    lse2 = _logsumexp(2.0 * lv)
    log_mean = lse1 - math.log(n)
    # relative variance of the sample: s^2/m^2 = N (N e^D - 1)/(N-1)
    d = lse2 - 2.0 * lse1
    rel_var_mean = max(n * math.exp(d) - 1.0, 0.0) / (n - 1)
    return Estimate(log_mean, math.sqrt(rel_var_mean), n, log_domain=True)


def _log(values) -> np.ndarray:
    """math.log of each entry, and -inf for an entry <= 0.

    numpy's vectorised log picks a SIMD kernel by CPU and can differ from
    the C library's in the last bit, so report bytes would depend on the
    machine; math.log does not.
    """
    flat = [-math.inf if v <= 0 else math.log(v) for v in np.ravel(values).tolist()]
    return np.reshape(flat, np.shape(values))


def log_power_product(values: np.ndarray, power: int) -> float | np.ndarray:
    """log of the product of ``power`` disjoint group means, one per row of (..., m) values.

    E[prod of independent group means] = (E[value])^power exactly, unlike
    mean(values)^power whose upward bias grows with the power; per-frame
    n-th powers of section volumes use this estimator.  A row with a group
    mean <= 0 gives -inf.  1-D values give a float.
    """
    values = np.asarray(values, dtype=float)
    if power < 1:
        raise ValueError(f"power must be a positive integer, got {power}")
    if values.shape[-1] < 2 * power:
        raise ValueError(f"need at least {2 * power} values for {power} groups")
    # the groups of np.array_split, whose first m % power hold one value more;
    # sum / size is the bits of each group's .mean()
    size, extra = divmod(values.shape[-1], power)
    means, stop = [], 0
    for group in range(power):
        start, stop = stop, stop + size + (group < extra)
        means.append(np.add.reduce(values[..., start:stop], axis=-1) / (stop - start))
    means = np.array(means)
    logs = _log(means)
    total = np.zeros(values.shape[:-1])
    for row in logs:                      # group by group, in order
        total = total + row
    total = np.where((means <= 0).any(axis=0), -math.inf, total)
    return float(total) if total.ndim == 0 else total


def exact_estimate(value: float) -> Estimate:
    return Estimate(float(value), 0.0, 1)


def exact_log_estimate(log_value: float) -> Estimate:
    return Estimate(float(log_value), 0.0, 1, log_domain=True)


@dataclass
class CheckReport:
    """Pass/fail record for one identity or inequality check."""

    check_name: str
    n: int
    k: int
    lhs: Estimate
    rhs: Estimate
    relation: str               # "=" or "<="
    margin: float               # SE units for "<=", relative gap for "="
    passed: bool
    tolerance_rule: str
    inputs: dict = field(default_factory=dict)
    seed: int = 0
    note: str = ""

    def as_dict(self) -> dict:
        d = asdict(self)
        d["lhs"] = self.lhs.as_dict()
        d["rhs"] = self.rhs.as_dict()
        d["pass"] = d.pop("passed")
        return d


def _combined_log_se(lhs: Estimate, rhs: Estimate) -> float:
    return math.hypot(lhs.to_log().std_error, rhs.to_log().std_error)


def equality_report(check_name: str, n: int, k: int, lhs: Estimate, rhs: Estimate,
                    inputs: dict | None = None, seed: int = 0, note: str = "") -> CheckReport:
    """Two-sided comparison: within 3 combined SEs and 2% relative gap."""
    a, b = lhs.to_log(), rhs.to_log()
    gap = abs(a.value - b.value)          # |log ratio| ~ relative gap
    rel_gap = abs(math.expm1(a.value - b.value))
    sigma = _combined_log_se(lhs, rhs)
    within_se = gap <= SE_MULTIPLIER * sigma + EXACT_FLOOR
    within_gap = rel_gap <= REL_GAP_TOL
    rule = (f"|log lhs - log rhs| <= {SE_MULTIPLIER}*combined log SE ({sigma:.3e}) "
            f"and relative gap <= {REL_GAP_TOL:.0%}")
    return CheckReport(check_name, n, k, lhs, rhs, "=", rel_gap,
                       bool(within_se and within_gap), rule,
                       inputs or {}, seed, note)


def inequality_report(check_name: str, n: int, k: int, lhs: Estimate, rhs: Estimate,
                      inputs: dict | None = None, seed: int = 0, note: str = "") -> CheckReport:
    """One-sided comparison lhs <= rhs up to Monte Carlo noise.

    The rule lhs <= rhs*(1 + 3 relSE) never excuses a genuine violation
    beyond sampling noise; margin is the log slack in combined-SE units,
    with the SE floored at the rule's additive floor so that two exact
    sides still give a finite margin.  ``inputs["log_slack"]`` records the
    slack itself, log rhs - log lhs, which stays comparable when that floor
    sets the margin.
    """
    a, b = lhs.to_log(), rhs.to_log()
    sigma = _combined_log_se(lhs, rhs)
    slack = b.value - a.value             # positive = strictly below
    passed = slack >= -(SE_MULTIPLIER * sigma + EXACT_FLOOR)
    margin = slack / max(sigma, EXACT_FLOOR)
    rule = (f"log lhs <= log rhs + {SE_MULTIPLIER}*combined log SE ({sigma:.3e}) + {EXACT_FLOOR}")
    return CheckReport(check_name, n, k, lhs, rhs, "<=", margin, bool(passed), rule,
                       {**(inputs or {}), "log_slack": slack}, seed, note)
