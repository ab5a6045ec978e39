"""Haar-distributed subspaces, represented by orthonormal frames.

A frame is an n x s matrix with orthonormal columns spanning a subspace
F of R^n.  Haar sampling is Gaussian + QR with the R-diagonal sign fix
(plain QR of common linear-algebra routines is not Haar on the frame,
although the column span alone would be).  Subspace-valued integrals
elsewhere in the package are Monte Carlo averages over these draws.
"""

from __future__ import annotations

import numpy as np

from .sampler import as_generator

__all__ = ["Frame", "sample_haar"]

_ORTHO_TOL = 1e-12


def _require_orthonormal(bases: np.ndarray) -> None:
    """Raise unless every basis of a stack (..., n, s) has orthonormal columns."""
    eye = np.eye(bases.shape[-1])
    # np.allclose(G, I, atol=1e-10) written out: its set-up costs several times the test
    if not (np.abs(bases.swapaxes(-1, -2) @ bases - eye) <= 1e-10 + 1e-5 * eye).all():
        raise ValueError("basis columns are not orthonormal")


class Frame:
    """Orthonormal basis of an s-dimensional subspace of R^n."""

    __slots__ = ("basis",)

    def __init__(self, basis: np.ndarray):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] < basis.shape[1]:
            raise ValueError(f"expected an n x s basis with s <= n, got shape {basis.shape}")
        _require_orthonormal(basis)
        self.basis = basis

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def s(self) -> int:
        return self.basis.shape[1]

    def embed(self, u: np.ndarray) -> np.ndarray:
        """Isometric embedding of subspace coordinates (..., s) -> ambient (..., n)."""
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.s:
            raise ValueError(f"expected trailing dimension {self.s}, got {u.shape[-1]}")
        return u @ self.basis.T

    def __repr__(self) -> str:
        return f"Frame(n={self.n}, s={self.s})"


def _haar_bases(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of a stack (..., n, s) of Gaussian matrices, by one QR.

    Column signs make the R diagonal positive.  The second result flags the
    numerically rank-deficient matrices, whose bases are not to be used.
    """
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    deficient = np.abs(diag).min(axis=-1) <= _ORTHO_TOL * max(g.shape[-2:])
    return q * np.sign(diag)[..., None, :], deficient


def sample_haar(n: int, s: int, rng) -> Frame:
    """Draw a Haar-distributed frame on the Grassmannian of s-planes in R^n.

    QR of an n x s standard Gaussian matrix, with column signs fixed so
    the R diagonal is positive; the resulting frame distribution is
    invariant under rotations.  A numerically rank-deficient draw (an
    event of probability ~0) is retried at most 3 times.
    """
    if not 1 <= s <= n - 1:
        raise ValueError(f"need 1 <= s <= n-1, got n={n}, s={s}")
    gen = as_generator(rng)
    for _ in range(4):
        basis, deficient = _haar_bases(gen.standard_normal((n, s)))
        if not deficient:
            return Frame(basis)
    raise RuntimeError(f"rank-deficient Gaussian draws for a {n} x {s} frame, 4 attempts")

