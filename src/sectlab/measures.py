"""Density oracles and the polar measure kernels of bodies and their sections.

A measure mu(B) = integral of a pointwise-evaluable density g over B is
estimated in polar form, mu(B) = n omega_n E_theta[ m(theta) ], where the
ray mass m(theta) = integral_0^rho(theta) r^(n-1) g(r theta) dr comes from
:meth:`DensityOracle.ray_mass`.  A central section K cap F of dimension s
takes the same form inside F at power s (:func:`_section_measure_values`,
the one section kernel); volume is the case g == 1, :class:`LebesgueDensity`.
The power is a positive integer: n for mu(K), s for a section, s + k in
the identity checks.  The built-in kinds (Lebesgue, Gaussian, radial
exponential) evaluate the ray mass in closed form; any other density
falls back to adaptive Gauss-Legendre refinement to relative 1e-9,
which needs the integer power to keep the integrand smooth at r = 0.
Either way the spherical average, done by Monte Carlo with a
reported standard error, dominates the error, except on lines (s = 1):
their sphere is the two points +-u, which the frame design takes whole,
so the average over it is exact and the error is the frames'.

The Gaussian and radial exponential closed forms are Gamma(a) P(a, x) at
a = power/2 or a = power, with P the regularised lower incomplete gamma
function.  :func:`_log_gammainc` evaluates log P in numpy alone: the power
series below x = a + 1 and Legendre's continued fraction for 1 - P above
(Numerical Recipes 6.2; DiDonato & Morris, ACM TOMS 12, 1986), each cut
where its remainder falls below 2^-53.  It agrees with
``scipy.special.gammainc`` to relative 1e-12 for a in {1/2, 1, ..., 8} and
x in [0, 50], and this module imports no ``scipy``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bodies import StarBody, _read_spec
from .constants import log_ball_volume
from .estimates import Estimate, _mean_and_se
from .grassmann import Frame
from .sampler import _quadratic_form, _row_norms, as_generator, sphere_directions

__all__ = [
    "DensityOracle",
    "LebesgueDensity",
    "GaussianDensity",
    "RadialExpDensity",
    "measure_of_body",
    "section_measure_values",
    "density_from_spec",
    "density_from_json",
    "QuadratureError",
]

_REL_TOL = 1e-9
_MAX_PANELS = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_MIN_SPHERE_SAMPLES = 100


class QuadratureError(RuntimeError):
    """Radial quadrature failed to converge; carries the offending direction."""

    def __init__(self, message: str, direction: np.ndarray | None = None):
        super().__init__(message)
        self.direction = direction


class DensityOracle:
    """Pointwise-evaluable nonnegative density on R^dim.

    ``sup_on`` gives sup_K g exactly, or raises: the upper-bound checks and
    the restricted sampler take it as a bound, and an understated one would
    bias them without a sign.  ``radially_nonincreasing`` marks kinds whose
    supremum over any body containing the origin is g(0); every built-in
    kind sets it.  Any other kind must override ``sup_on``.
    """

    dim: int
    radially_nonincreasing: bool = False

    def __init__(self, dim: int):
        self.dim = int(dim)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sup_on(self, body: StarBody) -> float:
        if not self.radially_nonincreasing:
            raise ValueError(f"{type(self).__name__} is not radially nonincreasing, so its "
                             f"supremum on a body is not known exactly; override sup_on")
        return float(self(np.zeros(self.dim)))

    def ray_mass(self, dirs: np.ndarray, upper: np.ndarray, power: float) -> np.ndarray:
        """integral_0^upper r^(power-1) g(r * dir) dr for each row of ``dirs``.

        ``power`` is a positive integer.  Kinds with a closed form override
        this; the generic path is adaptive Gauss-Legendre quadrature along
        each ray and raises ``ValueError`` on any other power, whose weight
        r^(power-1) is not smooth at r = 0.
        """
        if not (power >= 1 and float(power).is_integer()):
            raise ValueError(f"ray mass quadrature needs a positive integer power, got {power}")
        return _radial_integrals(self, dirs, upper, power)


_ROUNDOFF = 2.0 ** -53
_MAX_FRACTION_DEPTH = 10_000


@functools.lru_cache(maxsize=64)
def _gammainc_rule(a: float) -> tuple[tuple[float, ...], int]:
    """Series coefficients and continued-fraction depth that settle P(a, x) to 2^-53.

    The coefficients are 1 / ((a+1)...(a+n)) for n = 0, 1, ...  Both parts
    converge slowest at the switch point x = a + 1: the series terms grow
    with x, and Legendre's fraction settles faster as x grows.  So both
    lengths are set there, once per a, and every x gets the same arithmetic
    whatever block it comes in.  The series stops once its geometric tail,
    ratio x / (a+n+1), is below 2^-53 of a sum that is at least 1; the depth
    is where the modified Lentz iteration (Numerical Recipes 6.2) stops
    moving.  At an integer a the fraction ends at depth a, where it is the
    finite sum e^-x sum_{j<a} x^j / j!.
    """
    x = a + 1.0
    coeffs = [1.0]
    while True:
        coeffs.append(coeffs[-1] / (a + len(coeffs)))
        ratio = x / (a + len(coeffs))
        if coeffs[-1] * x ** (len(coeffs) - 1) * ratio <= _ROUNDOFF * (1.0 - ratio):
            break
    b = x + 1.0 - a
    c, d = 1e300, 1.0 / b
    for depth in range(1, _MAX_FRACTION_DEPTH):
        an = -depth * (depth - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        if abs(c * d - 1.0) <= _ROUNDOFF:
            return tuple(coeffs), depth
    raise ValueError(f"continued fraction for Q({a}, {x}) did not settle")


def _log_gammainc(a: float, x: np.ndarray) -> np.ndarray:
    """log P(a, x), the regularised lower incomplete gamma function, elementwise.

    Below x = a + 1, P = x^a e^-x / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n)),
    a polynomial summed by Horner's rule; from x = a + 1 on, 1 - P is
    x^a e^-x / Gamma(a) over Legendre's continued fraction, evaluated from
    its tail.  Both have a fixed length per a (:func:`_gammainc_rule`), so
    no loop tests convergence per entry and an entry's bits do not depend
    on the rest of its block.  log P(a, 0) is -inf, without a warning.
    """
    x = np.asarray(x, dtype=float)
    coeffs, depth = _gammainc_rule(a)
    low = x < a + 1.0
    xl = x if low.all() else x[low]
    total = np.full(xl.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        total *= xl
        total += c
    with np.errstate(divide="ignore"):
        log_p = a * np.log(xl) - xl - math.lgamma(a + 1.0) + np.log(total)
    if xl is x:
        return log_p
    out = np.full(x.shape, np.nan)
    out[low] = log_p
    high = x >= a + 1.0
    xh = x[high]
    tail = np.zeros_like(xh)
    for n in range(depth, 0, -1):
        tail += xh
        tail += 2 * n + 1 - a
        np.divide(n * (a - n), tail, out=tail)
    out[high] = np.log1p(-np.exp(a * np.log(xh) - xh - math.lgamma(a)) / (xh + (1.0 - a) + tail))
    return out


def _gamma_ray_mass(a: float, log_scale: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(log_scale) * Gamma(a) * P(a, x), combined in log space so no factor overflows.

    P comes from :func:`_log_gammainc`, within relative 1e-12 of
    ``scipy.special.gammainc``; x = 0 gives 0.
    """
    return np.exp(log_scale + math.lgamma(a) + _log_gammainc(a, x))


class LebesgueDensity(DensityOracle):
    """g == 1; the measure is volume."""

    radially_nonincreasing = True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

    def ray_mass(self, dirs: np.ndarray, upper: np.ndarray, power: float) -> np.ndarray:
        return np.asarray(upper, dtype=float) ** power / power


class GaussianDensity(DensityOracle):
    """g(x) = exp(-x^T P x / 2); P = I/sigma^2 (sigma 1 by default), or ``precision``."""

    radially_nonincreasing = True

    def __init__(self, dim: int, sigma: float | None = None, precision: np.ndarray | None = None):
        super().__init__(dim)
        if precision is not None:
            if sigma is not None:
                raise ValueError("give sigma or precision, not both")
            p = np.asarray(precision, dtype=float)
            if p.shape != (dim, dim):
                raise ValueError(f"precision shape {p.shape} does not match dim {dim}")
            # the closed-form ray mass needs dir^T P dir > 0 for every direction
            if not (np.allclose(p, p.T, atol=1e-12 * max(1.0, np.abs(p).max()))
                    and np.linalg.eigvalsh(p).min() > 0):
                raise ValueError("precision must be symmetric positive definite")
            self.precision = p
        else:
            sigma = 1.0 if sigma is None else sigma
            if sigma <= 0:
                raise ValueError(f"sigma must be positive, got {sigma}")
            self.precision = np.eye(dim) / sigma ** 2
        self.sigma = sigma

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * _quadratic_form(x, self.precision))

    def ray_mass(self, dirs: np.ndarray, upper: np.ndarray, power: float) -> np.ndarray:
        # t = q r^2 / 2 gives (1/2) (2/q)^(p/2) Gamma(p/2) P(p/2, q upper^2 / 2)
        dirs = np.asarray(dirs, dtype=float)
        q = _quadratic_form(dirs, self.precision)
        half = 0.5 * power
        return _gamma_ray_mass(half, math.log(0.5) + half * np.log(2.0 / q),
                               0.5 * q * np.asarray(upper, dtype=float) ** 2)


class RadialExpDensity(DensityOracle):
    """g(x) = exp(-rate * ||x||_2)."""

    radially_nonincreasing = True

    def __init__(self, dim: int, rate: float = 1.0):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        super().__init__(dim)
        self.rate = float(rate)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-self.rate * _row_norms(x))

    def ray_mass(self, dirs: np.ndarray, upper: np.ndarray, power: float) -> np.ndarray:
        # t = c r with c = rate ||dir||: c^(-p) Gamma(p) P(p, c upper)
        c = self.rate * _row_norms(np.asarray(dirs, dtype=float))
        return _gamma_ray_mass(power, -power * np.log(c), c * np.asarray(upper, dtype=float))


def _radial_integrals(density: DensityOracle, dirs: np.ndarray, upper: np.ndarray,
                      power: float) -> np.ndarray:
    """integral_0^upper r^(power-1) g(r * theta) dr per direction, vectorized.

    ``dirs`` has shape (..., n) and ``upper`` its leading shape, so a block
    of frames (B, count, n) works as well as one frame; the leading axes are
    flattened, and a block gives the same values as its flattened call.
    Panels of 15-point Gauss-Legendre; the panel count doubles until
    consecutive refinements agree to relative 1e-9 on every direction.  The
    integrand must be smooth on [0, upper], which holds for the integer
    powers of the polar volume weights.
    """
    dirs = np.asarray(dirs, dtype=float)
    shape = dirs.shape[:-1]
    dirs = dirs.reshape(-1, dirs.shape[-1])
    upper = np.asarray(upper, dtype=float).reshape(-1)
    prev = None
    panels = 1
    while panels <= _MAX_PANELS:
        edges = np.arange(panels) / panels
        t = edges[:, None] + (0.5 + 0.5 * _GL_NODES[None, :]) / panels   # (P, 15)
        r = upper[:, None, None] * t[None, :, :]                         # (D, P, 15)
        pts = r[..., None] * dirs[:, None, None, :]
        vals = density(pts)
        if power != 1.0:
            vals = vals * r ** (power - 1.0)
        integral = upper * np.einsum("dpk,k->d", vals, _GL_WEIGHTS) / (2.0 * panels)
        if prev is not None:
            err = np.abs(integral - prev)
            tol = _REL_TOL * np.maximum(np.abs(integral), 1e-300)
            if np.all(err <= tol):
                return integral.reshape(shape)
        prev = integral
        panels *= 2
    worst = int(np.argmax(np.abs(integral - prev)))
    raise QuadratureError(
        f"radial quadrature did not converge at {_MAX_PANELS} panels", dirs[worst])


def measure_of_body(density: DensityOracle, body: StarBody, sphere_samples: int,
                    rng) -> Estimate:
    """log mu(K), mu(K) = n omega_n E_theta[ integral_0^rho r^(n-1) g(r theta) dr ]."""
    if sphere_samples < _MIN_SPHERE_SAMPLES:
        raise ValueError(f"need at least {_MIN_SPHERE_SAMPLES} sphere samples, "
                         f"got {sphere_samples}")
    if body.dim != density.dim:
        raise ValueError(f"density dimension {density.dim} != body dimension {body.dim}")
    gen = as_generator(rng)
    theta = sphere_directions(gen, sphere_samples, body.dim)
    inner = density.ray_mass(theta, body.radial(theta), float(body.dim))
    factor = body.dim * math.exp(log_ball_volume(body.dim))
    mean, se = _mean_and_se(inner)
    return Estimate.of_mean(factor * float(mean), factor * float(se), sphere_samples)


def _section_measure_values(density: DensityOracle, body: StarBody, dirs: np.ndarray,
                            s: int) -> np.ndarray:
    """s omega_s times the ray mass at power s of each embedded direction of a section.

    The mean over uniform directions of one frame estimates mu(K cap F);
    with :class:`LebesgueDensity` the values are omega_s rho^s and the mean
    estimates |K cap F|.  ``dirs`` may stack several frames' directions.
    """
    rho = body.radial(dirs)
    inner = density.ray_mass(dirs, rho, float(s))
    return s * math.exp(log_ball_volume(s)) * inner


def section_measure_values(density: DensityOracle, body: StarBody, frame: Frame,
                           sphere_samples: int, rng) -> np.ndarray:
    """Per-direction polar values of one frame whose mean estimates mu(K cap F).

    The checks evaluate :func:`_section_measure_values` on blocks of frames;
    this one-frame form stays for ``perfbench``'s tracer, which binds it.
    """
    theta = sphere_directions(as_generator(rng), sphere_samples, frame.s)
    return _section_measure_values(density, body, frame.embed(theta), frame.s)


def density_from_spec(spec: dict, dim: int) -> DensityOracle:
    """Build a density from its JSON description, bound to a dimension.

    Kinds: lebesgue {}, gaussian {sigma}, radial_exp {rate}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("density spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "lebesgue":
        return LebesgueDensity(dim)
    if kind == "gaussian":
        return GaussianDensity(dim, float(spec.get("sigma", 1.0)))
    if kind == "radial_exp":
        return RadialExpDensity(dim, float(spec.get("rate", 1.0)))
    raise ValueError(f"unknown density kind {kind!r}")


def density_from_json(text_or_path: str, dim: int) -> DensityOracle:
    return density_from_spec(_read_spec(text_or_path), dim)
