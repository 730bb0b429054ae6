"""Seeded input generation for the benchmark, with numpy alone.

Nothing here calls freespec, so the inputs stay the same when the program's
own helpers (``pencil.bounded``, ``pencil.scale_to_boundary``, the random
ensembles in ``freespec.linalg``) change. Tuples are ``(g, n, n)`` complex
arrays, pencils ``(g, d, d)``.
"""

from __future__ import annotations

import numpy as np


def herm(n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def herm_tuple(g: int, n: int, rng) -> np.ndarray:
    return np.stack([herm(n, rng) for _ in range(g)])


def traceless_pencil(g: int, d: int, rng) -> np.ndarray:
    """Random traceless Hermitian g-tuple of size d.

    ``tr Lam_A(Y) = sum_j tr(A_j) tr(Y_j) = 0`` for every Y, so a nonzero
    ``Lam_A(Y)`` always has a positive eigenvalue: the spectrahedron has no
    recession direction and is bounded at every level.
    """
    a = herm_tuple(g, d, rng)
    return a - (np.trace(a, axis1=1, axis2=2)[:, None, None] / d) * np.eye(d)


def unitary(n: int, rng) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = r.diagonal() / np.abs(r.diagonal())
    return q * ph


def isometry(n: int, m: int, rng) -> np.ndarray:
    """Random ``(m, n)`` isometry ``V`` with ``V* V = I_n``."""
    return unitary(m, rng)[:, :n]


def hom(a, x) -> np.ndarray:
    """``sum_j A_j ⊗ X_j`` as a ``(d*n, d*n)`` matrix."""
    a = np.asarray(a, dtype=complex)
    x = np.asarray(x, dtype=complex)
    d, n = a.shape[1], x.shape[1]
    return np.einsum("jab,jrs->arbs", a, x).reshape(d * n, d * n)


def to_boundary(a, h) -> np.ndarray:
    """Scale the direction ``h`` onto the boundary: ``h / lambda_max(Lam_A(h))``."""
    top = np.linalg.eigvalsh(hom(a, h))[-1]
    if top <= 0:
        raise ValueError("direction never leaves the spectrahedron")
    return h / top


def boundary_point(a, n: int, rng) -> np.ndarray:
    return to_boundary(a, herm_tuple(a.shape[0], n, rng))


def direct_sum(x, y) -> np.ndarray:
    g, n, m = x.shape[0], x.shape[1], y.shape[1]
    out = np.zeros((g, n + m, n + m), dtype=complex)
    out[:, :n, :n] = x
    out[:, n:, n:] = y
    return out


def compress(omega, v, copies: int = 1) -> np.ndarray:
    """``V* (I_copies ⊗ Omega_j) V`` for each j: a member of ``mco({Omega})``."""
    eye = np.eye(copies)
    return np.stack([v.conj().T @ np.kron(eye, oj) @ v for oj in omega])


def symmetry_tuple(g: int, n: int, rng) -> np.ndarray:
    """Hermitian unitaries ``U diag(±1) U*``: the Arveson boundary of the cube."""
    out = []
    for _ in range(g):
        u = unitary(n, rng)
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        s = (u * signs) @ u.conj().T
        out.append((s + s.conj().T) / 2)
    return np.stack(out)


def circle_pair(n: int, rng) -> np.ndarray:
    """Commuting pair ``(diag cos t, diag sin t)`` on the unit circle."""
    t = rng.uniform(0.0, 2 * np.pi, size=n)
    return np.stack([np.diag(np.cos(t)), np.diag(np.sin(t))]).astype(complex)


def tuple_json(x) -> dict:
    """The freespec tuple schema ``{"g", "n", "matrices": [[[re, im], ...]]}``."""
    x = np.asarray(x, dtype=complex)
    mats = [[[[float(e.real), float(e.imag)] for e in row] for row in m] for m in x]
    return {"g": int(x.shape[0]), "n": int(x.shape[1]), "matrices": mats}
