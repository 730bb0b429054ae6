"""Dense complex linear algebra helpers used throughout the package.

Everything works on plain numpy arrays. Matrices are complex ``(n, n)``
ndarrays; g-tuples of Hermitian matrices are stacked as ``(g, n, n)`` arrays.
Rank decisions use the scale-invariant cutoff ``s <= tol * max(1, s_max)``
so that tolerances behave sensibly for both tiny and large matrices.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError

#: default tolerance for rank / kernel / positivity decisions
TOL = 1e-8

#: relative tolerance beyond which a matrix is rejected as not Hermitian
HERM_TOL = 1e-10


class EigDecomp(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``w`` are eigenvalues in ascending order, ``v`` has the matching
    orthonormal eigenvectors as columns, so ``a = v @ diag(w) @ v*``.
    """

    w: np.ndarray
    v: np.ndarray


def hermitian_part(a) -> np.ndarray:
    """Return ``(a + a*) / 2`` as a complex array."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().T) / 2


def herm_defect(a) -> float:
    """Relative deviation of ``a`` from being Hermitian."""
    a = np.asarray(a, dtype=complex)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    return float(np.abs(a - a.conj().T).max(initial=0.0)) / scale


def check_hermitian(a, tol: float = HERM_TOL, what: str = "matrix") -> np.ndarray:
    """Validate hermiticity up to a relative tolerance and return the
    symmetrized matrix.

    Raises
    ------
    InputError
        If the defect exceeds ``tol`` or the matrix is not square.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{what} must be square, got shape {a.shape}")
    defect = herm_defect(a)
    if defect > tol:
        raise InputError(
            f"{what} is not Hermitian (relative defect {defect:.3e} > {tol:.1e})"
        )
    return hermitian_part(a)


def eigh(a) -> EigDecomp:
    """Hermitian eigendecomposition with ascending eigenvalues.

    The input is symmetrized first; LAPACK failures are reported as
    ``NumericalError``.
    """
    a = hermitian_part(a)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalError(f"eigh did not converge: {exc}") from exc
    return EigDecomp(w, v)


def min_eig(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(eigh(a).w[0])


def null_space(a, tol: float = TOL) -> np.ndarray:
    """Orthonormal basis of the kernel of ``a`` as columns.

    Uses the SVD with the cutoff ``s <= tol * max(1, s_max)``; returns an
    ``(n, k)`` array (``k`` may be 0). Only a wide matrix needs the full
    ``V``; a tall one gets the thin SVD and never builds its ``m x m`` ``U``.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.eye(a.shape[1] if a.ndim == 2 else 0, dtype=complex)
    try:
        _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"svd did not converge: {exc}") from exc
    cutoff = tol * max(1.0, s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def pinv(a, tol: float = TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package's rank cutoff."""
    a = np.asarray(a, dtype=complex)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"svd did not converge: {exc}") from exc
    cutoff = tol * max(1.0, s[0] if s.size else 0.0)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return vh.conj().T @ (inv[:, None] * u.conj().T)


# ---------------------------------------------------------------------------
# realified coordinates for Hermitian matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _triu(n: int):
    """Strict upper-triangle index pair of an ``n x n`` matrix, built once
    per ``n`` and read-only, so no caller can corrupt the cache."""
    iu = np.triu_indices(n, k=1)
    for idx in iu:
        idx.flags.writeable = False
    return iu


@lru_cache(maxsize=None)
def _entry_weights(n: int) -> np.ndarray:
    """Weights of ``|Re|`` and ``|Im|`` of each entry (interleaved, row-major)
    in the realified coordinates: ``sqrt(2)`` off the diagonal, ``1`` for the
    real diagonal, ``0`` for the imaginary diagonal. Read-only."""
    w = np.full((n, n, 2), np.sqrt(2.0))
    w[np.arange(n), np.arange(n)] = (1.0, 0.0)
    w = w.reshape(-1)
    w.flags.writeable = False
    return w


def herm_to_vec(a) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix.

    Layout: diagonal entries, then sqrt(2)*Re of the strict upper triangle,
    then sqrt(2)*Im of it; the Frobenius norm equals the 2-norm of the vector.
    A stack ``(..., n, n)`` maps to a stack of vectors ``(..., n*n)``.
    """
    a = np.asarray(a, dtype=complex)
    rows, cols = _triu(a.shape[-1])
    upper = a[..., rows, cols]
    return np.concatenate(
        [np.diagonal(a, axis1=-2, axis2=-1).real, np.sqrt(2.0) * upper.real,
         np.sqrt(2.0) * upper.imag],
        axis=-1,
    )


def vec_to_herm(x, n: int) -> np.ndarray:
    """Inverse of :func:`herm_to_vec` for ``n x n`` Hermitian matrices
    (a stack of vectors ``(..., n*n)`` gives a stack ``(..., n, n)``)."""
    x = np.asarray(x, dtype=float)
    m = n * (n - 1) // 2
    a = np.zeros(x.shape[:-1] + (n, n), dtype=complex)
    rows, cols = _triu(n)
    diag = np.arange(n)
    a[..., diag, diag] = x[..., :n]
    upper = (x[..., n:n + m] + 1j * x[..., n + m:n + 2 * m]) / np.sqrt(2.0)
    a[..., rows, cols] = upper
    a[..., cols, rows] = upper.conj()
    return a


def herm_abs_max(a: np.ndarray) -> float:
    """``max |herm_to_vec(a)|`` of a Hermitian matrix, read off its entries.

    ``a`` must be a C-contiguous complex ``(n, n)`` array; nothing is
    converted, and the result equals the max over the coordinates bitwise.
    """
    n = a.shape[-1]
    return float((np.abs(a.reshape(-1).view(float)) * _entry_weights(n)).max(initial=0.0))


def herm_basis(n: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of Hermitian ``n x n`` matrices.

    Returns an ``(n*n, n, n)`` stack: the ``n`` diagonal units first, then the
    symmetrized and antisymmetrized off-diagonal pairs scaled by 1/sqrt(2).
    """
    out = np.zeros((n * n, n, n), dtype=complex)
    k = 0
    for i in range(n):
        out[k, i, i] = 1.0
        k += 1
    for i in range(n):
        for j in range(i + 1, n):
            out[k, i, j] = out[k, j, i] = 1.0 / np.sqrt(2.0)
            k += 1
            out[k, i, j] = 1j / np.sqrt(2.0)
            out[k, j, i] = -1j / np.sqrt(2.0)
            k += 1
    return out


# ---------------------------------------------------------------------------
# random ensembles (seeded, deterministic)
# ---------------------------------------------------------------------------

def default_rng(seed) -> np.random.Generator:
    """Resolve ``seed`` (int, Generator or None) into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_herm(n: int, rng, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with independent Gaussian entries (GUE-like)."""
    rng = default_rng(rng)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * hermitian_part(a) / np.sqrt(2.0)


def random_herm_tuple(g: int, n: int, rng, scale: float = 1.0) -> np.ndarray:
    """Stack of ``g`` independent random Hermitian matrices, shape (g, n, n)."""
    rng = default_rng(rng)
    return np.stack([random_herm(n, rng, scale) for _ in range(g)])


def random_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    rng = default_rng(rng)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = r.diagonal().copy()
    ph = ph / np.abs(ph)
    return q * ph


def random_isometry(n: int, m: int, rng) -> np.ndarray:
    """Random isometry ``V`` of shape ``(m, n)`` with ``V* V = I_n`` (m >= n)."""
    if m < n:
        raise InputError(f"isometry needs m >= n, got m={m}, n={n}")
    rng = default_rng(rng)
    return random_unitary(m, rng)[:, :n]
