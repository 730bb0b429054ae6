"""Linear-algebra helper tests: coordinates, kernels, randomness."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freespec import linalg
from freespec.errors import InputError


# ---------------------------------------------------------------------------
# Hermitian coordinates
# ---------------------------------------------------------------------------

@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_herm_vec_roundtrip_and_isometry(n, seed):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(n * n)
    mat = linalg.vec_to_herm(vec, n)
    assert np.abs(mat - mat.conj().T).max() < 1e-14
    back = linalg.herm_to_vec(mat)
    assert np.abs(back - vec).max() < 1e-12
    # the coordinate map preserves the Frobenius inner product
    assert abs(np.linalg.norm(vec) - np.linalg.norm(mat, "fro")) < 1e-12


@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_herm_vec_inner_products(n, seed):
    rng = np.random.default_rng(seed)
    a = linalg.random_herm(n, rng)
    b = linalg.random_herm(n, rng)
    va, vb = linalg.herm_to_vec(a), linalg.herm_to_vec(b)
    assert abs(float(va @ vb) - np.trace(a @ b).real) < 1e-10


@pytest.mark.parametrize("n", range(1, 8))
def test_herm_vec_roundtrip_single_and_stacked(n):
    rng = np.random.default_rng(n)
    stack = np.stack([np.stack([linalg.random_herm(n, rng) for _ in range(3)])
                      for _ in range(2)])
    vecs = linalg.herm_to_vec(stack)
    assert vecs.shape == (2, 3, n * n)
    back = linalg.vec_to_herm(vecs, n)
    assert np.abs(back - stack).max() < 1e-14
    for i in range(2):
        for j in range(3):
            assert np.array_equal(linalg.herm_to_vec(stack[i, j]), vecs[i, j])
            assert np.array_equal(linalg.vec_to_herm(vecs[i, j], n), back[i, j])
    x = rng.standard_normal((4, n * n))
    assert np.abs(linalg.herm_to_vec(linalg.vec_to_herm(x, n)) - x).max() < 1e-14


@pytest.mark.parametrize("n", range(1, 8))
def test_cached_index_maps_are_read_only(n):
    rows, cols = linalg._triu(n)
    assert linalg._triu(n)[0] is rows
    weights = linalg._entry_weights(n)
    for arr in (rows, cols, weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_herm_basis_is_orthonormal(n):
    basis = linalg.herm_basis(n)
    assert basis.shape == (n * n, n, n)
    # tr(A* B) = tr(A B) for Hermitian A
    gram = np.einsum("aij,bji->ab", basis, basis).real
    assert np.abs(gram - np.eye(n * n)).max() < 1e-12
    for b in basis:
        assert np.abs(b - b.conj().T).max() < 1e-14


# ---------------------------------------------------------------------------
# eigen machinery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_eigh_reconstructs(seed):
    rng = np.random.default_rng(seed)
    a = linalg.random_herm(5, rng)
    w, v = linalg.eigh(a)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.abs(v @ np.diag(w) @ v.conj().T - a).max() < 1e-9
    assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-10


def test_min_eig_examples():
    assert abs(linalg.min_eig(np.diag([3.0, -2.0, 5.0])) + 2.0) < 1e-12
    assert abs(linalg.min_eig(np.eye(3)) - 1.0) < 1e-12


def test_null_space_known_kernels():
    k = linalg.null_space(np.diag([1.0, 0.0, 2.0]))
    assert k.shape == (3, 1)
    assert abs(abs(k[1, 0]) - 1.0) < 1e-10
    k2 = linalg.null_space(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert k2.shape == (2, 1)
    assert np.abs(np.array([[1.0, 1.0], [1.0, 1.0]]) @ k2).max() < 1e-10
    # full-rank matrix has no kernel
    assert linalg.null_space(np.eye(2)).shape == (2, 0)


@pytest.mark.parametrize("seed", range(4))
def test_null_space_random_wide(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    k = linalg.null_space(m)
    assert k.shape[1] >= 3
    assert np.abs(m @ k).max() < 10 * linalg.TOL * np.abs(m).max()
    assert np.abs(k.conj().T @ k - np.eye(k.shape[1])).max() < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_null_space_random_tall(seed):
    # a rank-2 complex 9x4 matrix: the kernel comes from the thin SVD
    rng = np.random.default_rng(seed)
    m = (rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))) @ (
        rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    k = linalg.null_space(m)
    assert k.shape == (4, 2)
    assert np.abs(m @ k).max() < 10 * linalg.TOL * np.abs(m).max()
    assert np.abs(k.conj().T @ k - np.eye(2)).max() < 1e-10


def test_pinv_examples():
    assert np.abs(linalg.pinv(np.diag([2.0, 0.0])) - np.diag([0.5, 0.0])).max() < 1e-12
    assert np.abs(linalg.pinv(np.eye(3)) - np.eye(3)).max() < 1e-12
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    proj = np.outer(u, u)
    assert np.abs(linalg.pinv(proj) - proj).max() < 1e-10


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

def test_random_unitary_properties():
    rng = linalg.default_rng(3)
    u = linalg.random_unitary(4, rng)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10
    u2 = linalg.random_unitary(4, linalg.default_rng(3))
    assert np.abs(u - u2).max() == 0.0


def test_random_isometry_properties():
    rng = linalg.default_rng(5)
    v = linalg.random_isometry(2, 6, rng)
    assert v.shape == (6, 2)
    assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-10
    with pytest.raises(InputError):
        linalg.random_isometry(6, 2, rng)


def test_random_herm_tuple_shape_and_determinism():
    a = linalg.random_herm_tuple(3, 4, linalg.default_rng(11))
    b = linalg.random_herm_tuple(3, 4, linalg.default_rng(11))
    assert a.shape == (3, 4, 4)
    assert np.abs(a - b).max() == 0.0
    for m in a:
        assert np.abs(m - m.conj().T).max() < 1e-12


# ---------------------------------------------------------------------------
# hermiticity guards
# ---------------------------------------------------------------------------

def test_check_hermitian_accepts_and_rejects():
    good = np.array([[1.0, 2.0], [2.0, -1.0]])
    out = linalg.check_hermitian(good)
    assert np.abs(out - good).max() < 1e-14
    with pytest.raises(InputError):
        linalg.check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_part_and_defect():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    h = linalg.hermitian_part(m)
    assert np.abs(h - np.array([[1.0, 0.5], [0.5, 1.0]])).max() < 1e-14
    assert linalg.herm_defect(m) > 0.4
    assert linalg.herm_defect(h) < 1e-15
