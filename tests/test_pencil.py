"""Pencil evaluation, membership, boundedness, JSON round-trips."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freespec import gallery, linalg, pencil
from freespec.errors import InputError
from conftest import BUILDER_SHAPES, bits, complex_draw, random_bounded_pencil
import oracles


INTERVAL = gallery.interval().pencil          # A = diag(1, -1), D_A = [-1, 1]
SPIN = gallery.spin_disk().pencil             # A = (-sz, -sx)
HALF_LINE = np.array([[[1.0]]])               # L(x) = 1 - x, D_A = (-inf, 1]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_monic_at_zero_is_identity():
    x = np.zeros((2, 3, 3))
    out = pencil.eval_monic(SPIN, x)
    assert np.abs(out - np.eye(6)).max() < 1e-15


def test_eval_monic_interval():
    x = np.array([[[0.5]]])
    out = pencil.eval_monic(INTERVAL, x)
    assert np.abs(out - np.diag([0.5, 1.5])).max() < 1e-15


def test_eval_monic_spin_scalar_point():
    # by hand: L(1, 0) = I - A_1 = I + sigma_z = diag(2, 0)
    out = pencil.eval_monic(SPIN, np.array([[[1.0]], [[0.0]]]))
    assert np.abs(out - np.diag([2.0, 0.0])).max() < 1e-14


@pytest.mark.parametrize("seed", range(3))
def test_eval_monic_vs_direct_formula(seed):
    rng = linalg.default_rng(seed)
    a = linalg.random_herm_tuple(2, 3, rng)
    x = linalg.random_herm_tuple(2, 2, rng)
    direct = np.eye(6, dtype=complex)
    for aj, xj in zip(a, x):
        direct -= np.kron(aj, xj)
    assert np.abs(pencil.eval_monic(a, x) - direct).max() < 1e-13
    assert np.abs(pencil.eval_hom(a, x) - (np.eye(6) - direct)).max() < 1e-13


def test_eval_hom_col_matches_rank_one_point():
    rng = linalg.default_rng(1)
    a = linalg.random_herm_tuple(2, 3, rng)
    alpha = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    col = pencil.eval_hom_col(a, alpha)
    assert col.shape == (12, 3)
    # column evaluation is the hom evaluation against alpha e_0^* blocks
    direct = sum(np.kron(aj, alj.reshape(-1, 1)) for aj, alj in zip(a, alpha))
    assert np.abs(col - direct).max() < 1e-13


def kron_loop_hom(a, x):
    d, n = a.shape[1], x.shape[1]
    out = np.zeros((d * n, d * n), dtype=complex)
    for aj, xj in zip(a, x):
        out += np.kron(aj, xj)
    return out


def kron_loop_col(a, alpha):
    return sum(np.kron(aj, alj.reshape(-1, 1)) for aj, alj in zip(a, alpha))


@pytest.mark.parametrize("sparse", [False, True])
def test_broadcast_evaluation_matches_kron_loops_bitwise(sparse):
    rng = linalg.default_rng(78 + sparse)
    for g, d, n in BUILDER_SHAPES:
        a = complex_draw(rng, (g, d, d), sparse)
        x = complex_draw(rng, (g, n, n), sparse)
        alpha = complex_draw(rng, (g, n), sparse)
        assert np.array_equal(bits(pencil.eval_hom(a, x)), bits(kron_loop_hom(a, x))), (g, d, n)
        assert np.array_equal(bits(pencil.eval_hom_col(a, alpha)),
                              bits(kron_loop_col(a, alpha))), (g, d, n)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_membership_interior():
    rep = pencil.membership(INTERVAL, np.array([[[0.5]]]))
    assert rep.status == pencil.INTERIOR
    assert abs(rep.min_eig - 0.5) < 1e-12
    assert rep.kernel.shape[1] == 0


def test_membership_outside():
    x = np.array([[[0.0, 2.0], [2.0, 0.0]]])
    rep = pencil.membership(INTERVAL, x)
    assert rep.status == pencil.OUTSIDE
    assert abs(rep.min_eig + 1.0) < 1e-12


def test_membership_boundary_kernel():
    rep = pencil.membership(SPIN, np.array([[[1.0]], [[0.0]]]))
    assert rep.status == pencil.BOUNDARY
    assert rep.kernel.shape[1] == 1


@pytest.mark.parametrize("seed", range(4))
def test_membership_unitary_invariance(seed):
    rng = linalg.default_rng(seed)
    a = random_bounded_pencil(rng, 2, 3)
    x = linalg.random_herm_tuple(2, 3, rng, scale=0.3)
    u = linalg.random_unitary(3, rng)
    xu = np.stack([u.conj().T @ xj @ u for xj in x])
    r1, r2 = pencil.membership(a, x), pencil.membership(a, xu)
    assert r1.status == r2.status
    assert abs(r1.min_eig - r2.min_eig) < 1e-9


def test_membership_direct_sum_eigenvalues_union():
    x = np.array([[[0.3]]])
    y = np.array([[[-0.8]]])
    both = pencil.direct_sum([x, y])
    w_x = np.linalg.eigvalsh(pencil.eval_monic(INTERVAL, x))
    w_y = np.linalg.eigvalsh(pencil.eval_monic(INTERVAL, y))
    w_both = np.linalg.eigvalsh(pencil.eval_monic(INTERVAL, both))
    assert np.abs(np.sort(np.concatenate([w_x, w_y])) - np.sort(w_both)).max() < 1e-12


def canonical_shuffle(d: int, n: int) -> np.ndarray:
    """Permutation matrix ``P`` of size ``d*n`` with ``P (A⊗X) P* = X⊗A``.

    ``P`` maps the basis vector ``e_k ⊗ e_l`` (k < d, l < n) to
    ``e_l ⊗ e_k``; its transpose is ``canonical_shuffle(n, d)``.
    """
    p = np.zeros((d * n, d * n))
    for k in range(d):
        for l in range(n):
            p[l * d + k, k * n + l] = 1.0
    return p


def shuffle_oracle(d, n):
    """Index-permutation construction of the shuffle: e_i⊗e_k -> e_k⊗e_i."""
    p = np.zeros((d * n, d * n))
    for i in range(d):
        for k in range(n):
            p[k * d + i, i * n + k] = 1.0
    return p


@pytest.mark.parametrize("d,n", [(1, 1), (2, 2), (2, 3), (3, 2), (4, 3)])
def test_canonical_shuffle_swaps_factors(d, n):
    p = canonical_shuffle(d, n)
    assert np.abs(p - shuffle_oracle(d, n)).max() < 1e-14
    rng = np.random.default_rng(7)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.abs(p @ np.kron(a, x) @ p.conj().T - np.kron(x, a)).max() < 1e-12
    # the inverse shuffle swaps the roles of d and n
    assert np.abs(p.conj().T - canonical_shuffle(n, d)).max() < 1e-14


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
def test_shuffle_identity(d, n):
    # swapping the roles of coefficients and point conjugates the pencil value
    rng = linalg.default_rng(d * 10 + n)
    a = linalg.random_herm_tuple(2, d, rng)
    x = linalg.random_herm_tuple(2, n, rng)
    p = canonical_shuffle(d, n)
    lhs = p @ pencil.eval_monic(a, x) @ p.conj().T
    rhs = pencil.eval_monic(x, a)
    assert np.abs(lhs - rhs).max() < 1e-9


# ---------------------------------------------------------------------------
# boundary scaling
# ---------------------------------------------------------------------------

def test_scale_to_boundary_interval():
    hit = pencil.scale_to_boundary(INTERVAL, np.array([[[1.0]]]))
    assert hit is not None
    t, x = hit
    assert abs(t - 1.0) < 1e-9
    assert pencil.membership(INTERVAL, x).status == pencil.BOUNDARY


def test_scale_to_boundary_zero_direction():
    assert pencil.scale_to_boundary(INTERVAL, np.zeros((1, 1, 1))) is None


def test_scale_to_boundary_unbounded_direction():
    # the half line 1 - x >= 0 never exits in the -1 direction
    assert pencil.scale_to_boundary(HALF_LINE, np.array([[[-1.0]]])) is None


@pytest.mark.parametrize("seed", range(3))
def test_scale_to_boundary_random(seed):
    rng = linalg.default_rng(seed)
    a = random_bounded_pencil(rng, 2, 3)
    h = linalg.random_herm_tuple(2, 2, rng)
    hit = pencil.scale_to_boundary(a, h)
    assert hit is not None
    t, x = hit
    assert t > 0
    rep = pencil.membership(a, x)
    assert rep.status == pencil.BOUNDARY


# ---------------------------------------------------------------------------
# boundedness
# ---------------------------------------------------------------------------

def test_bounded_interval_and_simplex():
    assert oracles.bounded(INTERVAL).verdict == oracles.BOUNDED
    assert oracles.bounded(gallery.build("naimark").pencil).verdict == oracles.BOUNDED


def test_unbounded_half_line_with_witness():
    rep = oracles.bounded(HALF_LINE)
    assert rep.verdict == oracles.UNBOUNDED
    assert rep.witness is not None
    # the witness direction keeps the homogeneous part NSD: the ray stays inside
    lam = pencil.eval_hom(HALF_LINE, rep.witness)
    assert linalg.min_eig(-lam) >= -1e-8


def test_unbounded_coordinate_free_direction():
    # g=2 but the second variable never appears: that direction is free
    a = np.stack([np.diag([1.0, -1.0]), np.zeros((2, 2))])
    rep = oracles.bounded(a)
    assert rep.verdict == oracles.UNBOUNDED


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip_exact(tmp_path):
    rng = linalg.default_rng(9)
    a = linalg.random_herm_tuple(3, 4, rng)
    path = tmp_path / "tuple.json"
    pencil.write_tuple(path, a)
    b = pencil.read_tuple(path)
    assert np.abs(a - b).max() < 1e-15
    obj = json.loads(path.read_text())
    assert obj["g"] == 3 and obj["n"] == 4


def test_json_gallery_wrapper_unwraps(tmp_path):
    entry = gallery.spin_disk()
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(entry.to_json()))
    a = pencil.read_tuple(path)
    assert np.abs(a - entry.pencil).max() < 1e-15


@pytest.mark.parametrize("obj", [
    {"n": 2, "matrices": []},                                      # missing g
    {"g": 1, "n": 2, "matrices": [[[[1, 0], [0, 0]]]]},            # ragged row
    {"g": 1, "n": 1, "matrices": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]]},  # wrong n
    {"g": 1, "n": -1, "matrices": [[]]},                           # negative n
    {"g": 1, "n": 0, "matrices": [[]]},                            # empty point
    {"g": "two", "n": 1, "matrices": [[[[0, 0]]], [[[0, 0]]]]},    # g not a number
    {"g": 1.5, "n": 1, "matrices": [[[[0, 0]]]]},                  # g not an integer
    {"g": 1, "n": 1, "matrices": [[[["x", 0]]]]},                  # entry not a number
    {"g": 1, "n": 1, "matrices": [[[[float("nan"), 0]]]]},         # entry not finite
    {"g": 1, "n": 1, "matrices": 5},                               # matrices not a list
    {"g": 1, "n": 1, "matrices": [5]},                             # matrix not a list
])
def test_json_malformed_rejected(obj):
    with pytest.raises(InputError):
        pencil.tuple_from_json(obj)


def test_json_integral_float_sizes_accepted():
    a = pencil.tuple_from_json({"g": 1.0, "n": 1, "matrices": [[[[2, 0]]]]})
    assert a.shape == (1, 1, 1) and a[0, 0, 0] == 2


def test_non_hermitian_rejected():
    with pytest.raises(InputError):
        pencil.as_tuple(np.array([[[0.0, 1.0], [0.0, 0.0]]]))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_json_roundtrip_property(g, n, seed):
    a = linalg.random_herm_tuple(g, n, linalg.default_rng(seed))
    b = pencil.tuple_from_json(pencil.tuple_to_json(a))
    assert np.abs(a - b).max() < 1e-15
