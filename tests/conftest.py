"""Shared generators for the test suite.

Everything here is seeded: tests must be reproducible run to run.
"""
import numpy as np
import pytest

from freespec import linalg, pencil
import oracles


def random_bounded_pencil(rng, g, d, tries=60):
    """Rejection-sample a Hermitian tuple whose spectrahedron is bounded."""
    for _ in range(tries):
        a = linalg.random_herm_tuple(g, d, rng)
        rep = oracles.bounded(a, trials=16, seed=int(rng.integers(2**31)))
        if rep.verdict == oracles.BOUNDED:
            return a
    raise RuntimeError(f"no bounded pencil found in {tries} tries (g={g}, d={d})")


def boundary_point(a, n, rng, tries=40):
    """Random boundary point of the spectrahedron at level n."""
    for _ in range(tries):
        h = linalg.random_herm_tuple(a.shape[0], n, rng)
        hit = pencil.scale_to_boundary(a, h)
        if hit is not None:
            return hit[1]
    raise RuntimeError("no boundary point found; is the pencil bounded?")


def interior_point(a, n, rng, shrink=0.5, tries=40):
    """Random interior point: a boundary point pulled toward the origin."""
    return shrink * boundary_point(a, n, rng, tries=tries)


def wild_corank1_pair(rng, n=2):
    """Boundary pair of the wild disk with I - X^2 - Y^2 of corank one.

    Scaling any pair by 1/sqrt(lambda_max(X0^2 + Y0^2)) puts the top
    eigenvalue of X^2 + Y^2 exactly at 1; for generic draws that eigenvalue
    is simple, so the defect matrix has a one-dimensional kernel.
    """
    while True:
        x0 = linalg.random_herm(n, rng)
        y0 = linalg.random_herm(n, rng)
        w = np.linalg.eigvalsh(x0 @ x0 + y0 @ y0)
        if w[-1] < 1e-10 or (n > 1 and w[-1] - w[-2] < 1e-6 * w[-1]):
            continue
        t = 1.0 / np.sqrt(w[-1])
        x, y = t * x0, t * y0
        p = np.eye(n) - x @ x - y @ y
        wp = np.linalg.eigvalsh(p)
        if abs(wp[0]) < 1e-10 and (n == 1 or wp[1] > 1e-8):
            return x.astype(complex), y.astype(complex)


def separator_holds(omega, x, h):
    """Re-check a separating pencil ``h = (H_0, ..., H_g)`` of ``X`` from
    ``mco({Omega})`` with ``np.kron`` and ``eigvalsh`` only."""
    d = omega.shape[1]
    s = np.kron(np.eye(d), h[0])
    for oj, hj in zip(omega, h[1:]):
        s = s + np.kron(oj.T, hj)
    value = np.trace(h[0]).real + sum(np.trace(hj @ xj).real for hj, xj in zip(h[1:], x))
    return np.linalg.eigvalsh(s)[0] >= 0 and value < 0


def complex_draw(rng, shape, sparse=False):
    """Gaussian complex array; a sparse draw sets about half of the real and
    of the imaginary parts to zero, a third of those to negative zero."""
    parts = [rng.standard_normal(shape) for _ in range(2)]
    if sparse:
        for part in parts:
            zero = rng.random(shape) < 0.5
            part[zero] = np.where(rng.random(shape) < 1 / 3, -0.0, 0.0)[zero]
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts
    return out


def bits(z):
    """The 64-bit patterns of a complex array's parts, for bitwise equality
    that tells negative zero from zero."""
    return np.ascontiguousarray(z).view(np.uint64)


#: (g, d, n) shapes for the bitwise tests of the broadcast builders: d = n = 1
#: with g >= 4, where numpy's pairwise sum over the variables can round
#: differently from the loop, then random g, d, n in 1..6
BUILDER_SHAPES = [(g, 1, 1) for g in (4, 5, 6)] * 10 + [
    tuple(int(v) for v in row) for row in np.random.default_rng(77).integers(1, 7, (60, 3))
]


@pytest.fixture(scope="session")
def pencil_pool():
    """Bounded pencils across the (g, d) range used by the random batteries."""
    rng = linalg.default_rng(20240901)
    pool = []
    for g in (2, 3):
        for d in (2, 3, 4):
            pool.append(random_bounded_pencil(rng, g, d))
    return pool
