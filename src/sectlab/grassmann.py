"""Haar-distributed subspaces, represented by orthonormal frames.

A frame is an n x s matrix with orthonormal columns spanning a subspace
F of R^n.  A Haar frame is the Gram-Schmidt of an n x s Gaussian matrix
(:func:`~sectlab.sampler._haar_columns`).  Subspace-valued integrals
elsewhere in the package are Monte Carlo averages over these draws.
"""

from __future__ import annotations

import numpy as np

from .sampler import _haar_columns, as_generator

__all__ = ["Frame", "sample_haar"]


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


def sample_haar(n: int, s: int, rng) -> Frame:
    """Draw a Haar-distributed frame on the Grassmannian of s-planes in R^n.

    Gram-Schmidt of an n x s standard Gaussian matrix
    (:func:`~sectlab.sampler._haar_columns`), the Q of its QR with a positive
    R diagonal, so the frame distribution is invariant under rotations.  A
    numerically dependent draw (an event of probability ~0) raises
    ValueError.
    """
    if not 1 <= s <= n - 1:
        raise ValueError(f"need 1 <= s <= n-1, got n={n}, s={s}")
    return Frame(_haar_columns(as_generator(rng).standard_normal((n, s))))
