"""Exact central sections of polytopes, the references for the section estimators.

A polytope {x : c_j . x <= 1} cut by the plane with orthonormal basis B
(n, 2) is the polygon {y : a_j . y <= 1}, a_j = B^T c_j.  Its area is
sum_j h_j L_j / 2: h_j = 1 / |a_j| is line j's distance to 0, and L_j is the
length of the polygon's edge on line j, the interval of that line that the
other lines cut off.  This is exact for a plane in general position, where
no a_j vanishes and no two lines coincide; a randomly rotated set of
normals gives such planes with probability 1.

The average over G(3,2) runs on a spherical Fibonacci set of normals under
one random rotation: it converges far faster than the Monte Carlo under
test, about 1e-6 relative at 20 000 normals.
"""

from __future__ import annotations

import math

import numpy as np


def polygon_areas(facets: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Areas of the sections of {x : facets @ x <= 1} by the planes of bases (P, n, 2), (P,)."""
    a = np.asarray(facets, dtype=float) @ bases                   # (P, J, 2)
    norm = np.sqrt((a * a).sum(axis=-1))
    # line j is a_j / |a_j|^2 + t e_j with e_j = (-a_j2, a_j1) / |a_j|; line i bounds t
    # by slope[i, j] t <= room[i, j].  slope is a 2 x 2 determinant written out, so it is
    # exactly 0 where i = j or a_i = -a_j, and no rounding of those lines enters
    ai, aj = a[..., :, None, :], a[..., None, :, :]
    slope = (ai[..., 1] * aj[..., 0] - ai[..., 0] * aj[..., 1]) / norm[..., None, :]
    room = 1.0 - (ai * aj).sum(axis=-1) / (norm * norm)[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = room / slope
    upper = np.where(slope > 0, t, np.inf).min(axis=-2)
    lower = np.where(slope < 0, t, -np.inf).max(axis=-2)
    lengths = np.clip(upper - lower, 0.0, None)
    return 0.5 * (lengths / norm).sum(axis=-1)


def _fibonacci_normals(count: int) -> np.ndarray:
    """The spherical Fibonacci set of count points on S^2, (count, 3)."""
    i = np.arange(count)
    z = 1.0 - (2 * i + 1) / count
    r = np.sqrt(1.0 - z * z)
    angle = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(angle), r * np.sin(angle), z])


def plane_bases(normals: np.ndarray) -> np.ndarray:
    """Orthonormal bases (P, 3, 2) of the planes perpendicular to unit normals (P, 3)."""
    helper = np.eye(3)[np.argmin(np.abs(normals), axis=1)]
    first = np.cross(normals, helper)
    first /= np.linalg.norm(first, axis=1, keepdims=True)
    return np.stack([first, np.cross(normals, first)], axis=-1)


def log_phi_k1(facets: np.ndarray, volume: float, normals: int = 20_000,
               seed: int = 0) -> float:
    """log (E_F |K1 cap F|^3)^(1/3) over F in G(3,2), K1 = K / |K|^(1/3), for the
    polytope {x : facets @ x <= 1} in R^3 of volume ``volume``."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    rotation = q * np.sign(np.diag(r))
    areas = polygon_areas(facets, plane_bases(_fibonacci_normals(normals) @ rotation.T))
    return math.log(np.mean(areas ** 3)) / 3.0 - 2.0 * math.log(volume) / 3.0
