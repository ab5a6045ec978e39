"""Monte Carlo estimates with standard errors, and structured check reports.

An :class:`Estimate` is the natural log of a positive quantity, the
standard error of that log (the relative standard error of the quantity)
and a sample count.  Every side of every check is a positive product of
powers, so estimates combine only by :meth:`Estimate.powered`,
:meth:`Estimate.times` and :meth:`Estimate.divided_by`; with the reports'
combined SE below, these are the only places where log-SEs combine.  A
linear sample mean becomes an estimate through
:meth:`Estimate.of_mean`; heavy-tailed means of n-th powers are
accumulated in log domain (:func:`log_mean_estimate`) and never leave
the log scale; its exponentials, like :func:`_log`'s logs, are ``math``
calls, so their bits do not depend on numpy's SIMD level.

A :class:`CheckReport` records the outcome of comparing two sides of an
identity ("=") or inequality ("<=") under the fixed tolerance policy:

  "=" : pass iff |log lhs - log rhs| <= 3 * combined log SE AND the
        relative gap is at most 2%.
  "<=": pass iff log lhs <= log rhs + 3 * combined log SE + 1e-9;
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
    "log_mean_estimate",
    "exact_log_estimate",
    "equality_report",
    "inequality_report",
]

REL_GAP_TOL = 0.02
SE_MULTIPLIER = 3.0
EXACT_FLOOR = 1e-9


@dataclass(frozen=True)
class Estimate:
    """log of a positive quantity, the SE of that log, and the sample count.

    ``value`` is the natural log of the estimated quantity and
    ``std_error`` the std error of that log, which is the relative std
    error of the quantity: the plain sample-mean rule through
    :meth:`of_mean` or :func:`log_mean_estimate`, then the delta method
    for powers, products and ratios.  ``n_samples`` is 1 for an exact
    value and at least 2 for a sampled one.
    """

    value: float
    std_error: float
    n_samples: int

    @classmethod
    def of_mean(cls, mean: float, se: float, n: int) -> "Estimate":
        """The log of a linear sample mean with std error ``se`` over ``n`` samples."""
        if mean <= 0:
            raise ValueError(f"cannot take the log of non-positive estimate {mean!r}")
        return cls(math.log(mean), se / mean, n)

    def to_log(self) -> "Estimate":
        # every estimate is a log; perfbench/worker.py reads report sides through this
        return self

    def powered(self, exponent: float) -> "Estimate":
        """Delta-method power."""
        return Estimate(exponent * self.value, abs(exponent) * self.std_error, self.n_samples)

    def times(self, other: "Estimate") -> "Estimate":
        """Product of independent estimates (errors add in quadrature on logs);
        an exact factor (one sample) keeps the other factor's count."""
        counts = (self.n_samples, other.n_samples)
        return Estimate(self.value + other.value, math.hypot(self.std_error, other.std_error),
                        max(counts) if 1 in counts else min(counts))

    def divided_by(self, other: "Estimate") -> "Estimate":
        return self.times(other.powered(-1.0))

    def as_dict(self) -> dict:
        """``value`` and ``se`` on the linear scale, ``log`` and ``n_samples``; at
        |log| >= 700 the linear fields are null rather than overflowing."""
        linear = abs(self.value) < 700          # exp overflows at 709.8
        value = math.exp(self.value) if linear else None
        return {
            "value": value,
            "log": self.value,
            "se": self.std_error * value if linear else None,
            "n_samples": self.n_samples,
        }


def _mean_and_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and its std error along the last axis, one pair per row."""
    n = values.shape[-1]
    return values.mean(axis=-1), values.std(axis=-1, ddof=1) / math.sqrt(n)


def log_mean_estimate(log_values: np.ndarray) -> Estimate:
    """Log-domain mean of exp(log_values), with relative std error.

    One mean of the shifted values math.exp(v - top), top = max v, gives the log,
    top + log(mean), and the std error, that mean's relative std error taken in two
    passes, so equal values give an SE of exactly 0.
    """
    lv = np.ravel(np.asarray(log_values, dtype=float))
    n = lv.size
    if n < 2:
        raise ValueError("need at least 2 samples for a standard error")
    top = float(lv.max())
    mean, se = _mean_and_se(np.array([math.exp(v - top) for v in lv.tolist()]))
    return Estimate(top + math.log(mean), float(se / mean), n)


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
    mean <= 0 gives -inf.  1-D values give a float.  It is
    :func:`_log_product` of :func:`_group_means`; the frame designs take the
    two steps apart, so that one log pass serves all frames.
    """
    total = _log_product(_group_means(values, power))
    return float(total) if total.ndim == 0 else total


def _group_means(values: np.ndarray, power: int) -> np.ndarray:
    """The ``power`` group means of each row of (..., m) values, as (..., power)."""
    values = np.asarray(values, dtype=float)
    if power < 1:
        raise ValueError(f"power must be a positive integer, got {power}")
    if values.shape[-1] < 2 * power:
        raise ValueError(f"need at least {2 * power} values for {power} groups")
    # np.array_split's groups, the first m % power one longer; sum / size is .mean()'s bits
    size, extra = divmod(values.shape[-1], power)
    means, stop = [], 0
    for group in range(power):
        start, stop = stop, stop + size + (group < extra)
        means.append(np.add.reduce(values[..., start:stop], axis=-1) / (stop - start))
    return np.stack(means, axis=-1)


def _log_product(means: np.ndarray) -> np.ndarray:
    """Sum of the logs of the group means (..., groups), in group order; -inf where one is <= 0.

    Each entry's log and the in-order sum do not depend on how the rows
    are stacked, so a call over all frames gives the bits of per-block calls.
    """
    logs = _log(means)
    total = np.zeros(means.shape[:-1])
    for group in range(means.shape[-1]):
        total = total + logs[..., group]
    return np.where((means <= 0).any(axis=-1), -math.inf, total)


def exact_log_estimate(log_value: float) -> Estimate:
    return Estimate(float(log_value), 0.0, 1)


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
    seed: int
    inputs: dict = field(default_factory=dict)
    note: str = ""

    def as_dict(self) -> dict:
        d = asdict(self)
        d["lhs"] = self.lhs.as_dict()
        d["rhs"] = self.rhs.as_dict()
        d["pass"] = d.pop("passed")
        return d


def equality_report(check_name: str, n: int, k: int, lhs: Estimate, rhs: Estimate,
                    inputs: dict | None = None, *, seed: int, note: str = "") -> CheckReport:
    """Two-sided comparison: within 3 combined SEs and 2% relative gap."""
    gap = abs(lhs.value - rhs.value)      # |log ratio| ~ relative gap
    rel_gap = abs(math.expm1(lhs.value - rhs.value))
    sigma = math.hypot(lhs.std_error, rhs.std_error)
    within_se = gap <= SE_MULTIPLIER * sigma + EXACT_FLOOR
    within_gap = rel_gap <= REL_GAP_TOL
    rule = (f"|log lhs - log rhs| <= {SE_MULTIPLIER}*combined log SE ({sigma:.3e}) "
            f"and relative gap <= {REL_GAP_TOL:.0%}")
    return CheckReport(check_name, n, k, lhs, rhs, "=", rel_gap,
                       bool(within_se and within_gap), rule, seed,
                       inputs or {}, note)


def inequality_report(check_name: str, n: int, k: int, lhs: Estimate, rhs: Estimate,
                      inputs: dict | None = None, *, seed: int, note: str = "") -> CheckReport:
    """One-sided comparison lhs <= rhs up to Monte Carlo noise.

    The rule lhs <= rhs*(1 + 3 relSE) never excuses a genuine violation
    beyond sampling noise; margin is the log slack in combined-SE units,
    with the SE floored at the rule's additive floor so that two exact
    sides still give a finite margin.  ``inputs["log_slack"]`` records the
    slack itself, log rhs - log lhs, which stays comparable when that floor
    sets the margin.
    """
    sigma = math.hypot(lhs.std_error, rhs.std_error)
    slack = rhs.value - lhs.value         # positive = strictly below
    passed = slack >= -(SE_MULTIPLIER * sigma + EXACT_FLOOR)
    margin = slack / max(sigma, EXACT_FLOOR)
    rule = (f"log lhs <= log rhs + {SE_MULTIPLIER}*combined log SE ({sigma:.3e}) + {EXACT_FLOOR}")
    return CheckReport(check_name, n, k, lhs, rhs, "<=", margin, bool(passed), rule, seed,
                       {**(inputs or {}), "log_slack": slack}, note)
