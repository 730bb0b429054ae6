"""Commutants, irreducible decompositions, equivalence, free simplices."""
import numpy as np
import pytest

from freespec import extreme, gallery, linalg, pencil, structure
from freespec import feasibility as F
from freespec.errors import InputError, NumericalError
from conftest import BUILDER_SHAPES, bits, complex_draw
import oracles
from oracles import normal_form_mismatches

PAULI = np.stack([np.diag([1.0, -1.0]),
                  np.array([[0.0, 1.0], [1.0, 0.0]])]).astype(complex)
NAIMARK = structure.reference_simplex(2)


def conj_tuple(u, x):
    return np.stack([u.conj().T @ xj @ u for xj in x])


def as_set(points, digits=6):
    return {tuple(np.round(p.real, digits)) for p in points}


# ---------------------------------------------------------------------------
# commutants
# ---------------------------------------------------------------------------

def test_commutant_dims():
    assert structure.commutant_dim(PAULI) == 1
    assert structure.commutant_dim(np.eye(2, dtype=complex)[None]) == 4
    assert structure.commutant_dim(np.diag([1.0, 2.0]).astype(complex)[None]) == 2


def test_commutant_of_doubled_irreducible():
    doubled = pencil.direct_sum([PAULI, PAULI])
    assert structure.commutant_dim(doubled) == 4


def test_commutant_elements_commute():
    x = np.diag([1.0, 2.0]).astype(complex)[None]
    basis = structure.commutant(x)
    for b in basis:
        assert np.abs(b @ x[0] - x[0] @ b).max() < 1e-8


@pytest.mark.parametrize("sparse", [False, True])
def test_commutant_rows_match_kron_loop_bitwise(monkeypatch, sparse):
    rng = linalg.default_rng(90 + sparse)
    seen = []
    null_space = linalg.null_space
    monkeypatch.setattr(linalg, "null_space",
                        lambda rows, tol: seen.append(rows) or null_space(rows, tol))
    for g, _, n in BUILDER_SHAPES:
        z = complex_draw(rng, (g, n, n), sparse)
        x = pencil.as_tuple((z + z.conj().transpose(0, 2, 1)) / 2)
        structure.commutant(x)
        eye = np.eye(n)
        loop = np.vstack([np.kron(xj, eye) - np.kron(eye, xj.T) for xj in x])
        assert np.array_equal(bits(seen.pop()), bits(loop)), (g, n)
        z = complex_draw(rng, (g, n, n), sparse)
        y = pencil.as_tuple((z + z.conj().transpose(0, 2, 1)) / 2)
        structure.intertwiners(x, y)
        loop = np.vstack([np.kron(yj, eye) - np.kron(eye, xj.T) for xj, yj in zip(x, y)])
        assert np.array_equal(bits(seen.pop()), bits(loop)), (g, n)


# ---------------------------------------------------------------------------
# irreducible decomposition
# ---------------------------------------------------------------------------

def test_decompose_irreducible_is_single_class():
    dec = structure.decompose_irreducibles(PAULI)
    assert dec.n_classes == 1
    assert dec.multiplicities == [1]
    assert dec.block_sizes == [2]


def test_decompose_doubled_block():
    dec = structure.decompose_irreducibles(pencil.direct_sum([PAULI, PAULI]))
    assert dec.n_classes == 1
    assert dec.multiplicities == [2]


def test_decompose_scrambled_mixture():
    scalar = np.array([[[0.3]], [[0.7]]])
    mix = pencil.direct_sum([PAULI, scalar, PAULI])
    u = linalg.random_unitary(5, linalg.default_rng(4))
    dec = structure.decompose_irreducibles(conj_tuple(u, mix))
    assert sorted(zip(dec.block_sizes, dec.multiplicities)) == [(1, 1), (2, 2)]


def test_splits_draw_nothing_at_random(monkeypatch):
    scalar = np.array([[[0.3]], [[0.7]]])
    mix = pencil.direct_sum([PAULI, scalar, PAULI])
    u = linalg.random_unitary(5, linalg.default_rng(4))
    x = conj_tuple(u, mix)
    y = conj_tuple(linalg.random_unitary(5, linalg.default_rng(5)), mix)

    def no_rng(*args, **kwargs):
        raise AssertionError("random generator requested")

    monkeypatch.setattr(linalg, "default_rng", no_rng)
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    first = structure.decompose_irreducibles(x)
    again = structure.decompose_irreducibles(x)
    assert sorted(zip(first.block_sizes, first.multiplicities)) == [(1, 1), (2, 2)]
    for b, c in zip(first.blocks + [first.unitary], again.blocks + [again.unitary]):
        assert np.array_equal(bits(b), bits(c))
    flag, w = structure.unitarily_equivalent(x, y)
    assert flag and np.abs(conj_tuple(w, x) - y).max() < 1e-7
    verdict = extreme.is_irreducible(x)
    assert not verdict.irreducible and verdict.commutant_dim == 5
    p = verdict.projection
    assert np.abs(p @ p - p).max() < 1e-10
    assert max(np.abs(p @ xj - xj @ p).max() for xj in x) < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_decompose_reassembles(seed):
    rng = linalg.default_rng(seed)
    parts = [linalg.random_herm_tuple(2, 1, rng),
             linalg.random_herm_tuple(2, 2, rng),
             linalg.random_herm_tuple(2, 3, rng)]
    x = pencil.direct_sum([parts[0], parts[1], parts[2], parts[1]])
    u = linalg.random_unitary(x.shape[1], rng)
    xu = conj_tuple(u, x)
    dec = structure.decompose_irreducibles(xu)
    err = np.abs(conj_tuple(dec.unitary, xu) - dec.reassemble()).max()
    assert err < 1e-7
    assert sum(s * m for s, m in zip(dec.block_sizes, dec.multiplicities)) == x.shape[1]


# ---------------------------------------------------------------------------
# unitary equivalence
# ---------------------------------------------------------------------------

def test_equivalent_after_conjugation():
    rng = linalg.default_rng(6)
    x = linalg.random_herm_tuple(2, 3, rng)
    u = linalg.random_unitary(3, rng)
    flag, w = structure.unitarily_equivalent(x, conj_tuple(u, x))
    assert flag
    assert np.abs(conj_tuple(w, x) - conj_tuple(u, x)).max() < 1e-7


def test_pauli_z_equivalent_to_pauli_x():
    flag, w = structure.unitarily_equivalent(PAULI[:1], PAULI[1:])
    assert flag
    assert np.abs(w.conj().T @ PAULI[0] @ w - PAULI[1]).max() < 1e-7


def test_different_spectra_not_equivalent():
    x = np.diag([1.0, 2.0]).astype(complex)[None]
    y = np.diag([1.0, 3.0]).astype(complex)[None]
    flag, w = structure.unitarily_equivalent(x, y)
    assert not flag and w is None


def test_equivalence_is_symmetric():
    mix = pencil.direct_sum([PAULI, PAULI])
    u = linalg.random_unitary(4, linalg.default_rng(9))
    other = conj_tuple(u, mix)
    assert structure.unitarily_equivalent(mix, other)[0]
    assert structure.unitarily_equivalent(other, mix)[0]


@pytest.mark.parametrize("seed", range(5))
def test_bordered_matrix_never_equivalent_to_augmented_diagonal(seed):
    # strict eigenvalue interlacing: [[D, a], [a*, e]] with a of full support
    # shares no eigenvalue with D, while D + f keeps all of spec(D)
    rng = linalg.default_rng(seed)
    d = np.sort(rng.standard_normal(3))
    while np.diff(d).min() < 0.1:
        d = np.sort(rng.standard_normal(3))
    a = rng.standard_normal(3) + 0.1 * np.sign(rng.standard_normal(3))
    a[np.abs(a) < 0.1] = 0.2
    e = float(rng.standard_normal())
    m = np.zeros((4, 4))
    m[:3, :3] = np.diag(d)
    m[:3, 3] = a
    m[3, :3] = a
    m[3, 3] = e
    spec_m = np.linalg.eigvalsh(m)
    fs = list(d) + [e] + list(rng.standard_normal(16))
    for f in fs:
        aug = np.zeros((4, 4))
        aug[:3, :3] = np.diag(d)
        aug[3, 3] = f
        flag, _ = structure.unitarily_equivalent(m[None], aug[None])
        assert not flag, f
        # the spectra really do differ: m keeps none of the d_i
        assert np.abs(spec_m[:, None] - d[None, :]).min() > 1e-8


# ---------------------------------------------------------------------------
# minimal defining tuples
# ---------------------------------------------------------------------------

def test_minimal_defining_removes_duplicate_block():
    doubled = pencil.direct_sum([PAULI, PAULI])
    rep = structure.minimal_defining(doubled)
    assert rep.tuple.shape[1] == 2
    assert rep.duplicates_removed >= 1
    assert F.inclusion(rep.tuple, doubled, samples=10).status == F.INCLUDED
    assert F.inclusion(doubled, rep.tuple, samples=10).status == F.INCLUDED


def test_minimal_defining_drops_redundant_summand():
    interval = gallery.interval().pencil
    wide = 0.5 * interval          # defines [-2, 2], redundant next to [-1, 1]
    both = pencil.direct_sum([interval, wide])
    rep = structure.minimal_defining(both)
    assert rep.tuple.shape[1] == 2
    assert F.inclusion(rep.tuple, interval, samples=10).status == F.INCLUDED
    assert F.inclusion(interval, rep.tuple, samples=10).status == F.INCLUDED


def test_minimal_defining_keeps_simplex():
    rep = structure.minimal_defining(NAIMARK)
    assert rep.tuple.shape[1] == 3
    assert rep.summands_removed == 0 and rep.duplicates_removed == 0


def test_minimal_defining_idempotent():
    doubled = pencil.direct_sum([PAULI, PAULI])
    once = structure.minimal_defining(doubled).tuple
    twice = structure.minimal_defining(once)
    assert twice.tuple.shape[1] == once.shape[1]
    assert twice.summands_removed == 0 and twice.duplicates_removed == 0


# ---------------------------------------------------------------------------
# free simplices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [1, 2, 3])
def test_reference_simplex_construction(g):
    n = structure.reference_simplex(g)
    assert n.shape == (g, g + 1, g + 1)
    for j in range(g):
        want = np.zeros((g + 1, g + 1))
        want[j, j] = -1.0
        want[g, g] = 1.0 / (g + 1)
        assert np.abs(n[j] - want).max() < 1e-12


def test_reference_simplex_is_free_simplex():
    rep = structure.is_free_simplex(NAIMARK)
    assert rep.is_simplex
    assert as_set(rep.facets, 4) == {(-1.0, 0.0), (0.0, -1.0), (0.3333, 0.3333)}
    assert as_set(rep.vertices) == {(4.0, -1.0), (-1.0, 4.0), (-1.0, -1.0)}


def test_cube_is_not_a_simplex():
    rep = structure.is_free_simplex(gallery.cube(2).pencil)
    assert not rep.is_simplex
    assert rep.reasons


def test_spin_disk_is_not_a_simplex():
    rep = structure.is_free_simplex(gallery.spin_disk().pencil)
    assert not rep.is_simplex


#: g = 3 diagonal pencil ``A_j = diag(F[:, j])`` whose facets have the left
#: null vector (0.9075, -0.0378, 0.3049, 0.2864): no positive dependency, so
#: the polytope is unbounded (``min_eig L_A`` stays 1 along the ray in the
#: kernel of facets 0 and 2), though a probabilistic search calls it bounded
UNBOUNDED_FACETS = np.array([[-0.11, -0.57, 0.23], [0.53, 0.57, 0.28],
                             [0.75, 0.95, -1.11], [-0.38, 0.87, 0.49]])


def diagonal_pencil(facets):
    return np.stack([np.diag(col) for col in facets.T]).astype(complex)


def test_unbounded_diagonal_pencil_is_not_a_simplex():
    a = diagonal_pencil(UNBOUNDED_FACETS)
    ray = np.linalg.svd(UNBOUNDED_FACETS[[0, 2]])[2][-1]
    ray *= -np.sign(UNBOUNDED_FACETS[1] @ ray)
    assert np.all(UNBOUNDED_FACETS @ ray <= 1e-12)
    assert linalg.min_eig(pencil.eval_monic(a, 1e6 * ray)) >= 1 - 1e-9
    rep = structure.is_free_simplex(a)
    assert not rep.is_simplex
    assert rep.reasons == ["boundedness check returned unbounded"]
    with pytest.raises(InputError):
        structure.simplex_normal_form(a)


def test_simplex_routines_do_not_call_bounded(monkeypatch):
    # the probabilistic boundedness search lives only in the test oracles
    assert not hasattr(pencil, "bounded")
    def boom(*args, **kwargs):
        raise AssertionError("oracles.bounded called")
    monkeypatch.setattr(oracles, "bounded", boom)
    assert structure.is_free_simplex(NAIMARK).is_simplex
    structure.simplex_normal_form(NAIMARK)
    assert not structure.is_free_simplex(gallery.cube(2).pencil).is_simplex


def random_simplex(g, rng):
    """A unitarily scrambled diagonal pencil whose g+1 facets have a random
    positive dependency, so its spectrahedron is a bounded free simplex."""
    rest = rng.standard_normal((g, g))
    facets = np.vstack([rest, -(rng.uniform(0.1, 2.0, g) @ rest)])
    u = np.linalg.qr(complex_draw(rng, (g + 1, g + 1)))[0]
    return np.stack([u.conj().T @ d @ u for d in diagonal_pencil(facets[rng.permutation(g + 1)])])


def pulled_back_reference(amap):
    """``B_k = P^{-1/2} (sum_j linear[j, k] N_j) P^{-1/2}`` with
    ``P = I - sum_j offset_j N_j``, from full matrices and ``eigh``."""
    g = amap.linear.shape[0]
    n = structure.reference_simplex(g)
    p = np.eye(g + 1) - np.tensordot(amap.offset, n, axes=1)
    w, v = np.linalg.eigh(p)
    assert w.min() > 0
    root = v @ np.diag(w ** -0.5) @ v.conj().T
    return np.stack([root @ np.tensordot(amap.linear[:, k], n, axes=1) @ root
                     for k in range(g)])


def simplex_battery():
    rng = np.random.default_rng(2323)
    named = [NAIMARK, 2.0 * NAIMARK, structure.reference_simplex(3),
             gallery.simplex_from_vertices([[-1.0, -1.0], [2.0, 0.0], [0.0, 2.0]]).pencil]
    return named + [random_simplex(1 + i % 4, rng) for i in range(12)]


@pytest.mark.parametrize("index", range(16))
def test_normal_form_certificate_rechecks(index):
    a = simplex_battery()[index]
    nf = structure.simplex_normal_form(a)
    minimal = nf.simplex.minimal.tuple
    b = pulled_back_reference(nf.map)
    u = nf.unitary
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-10
    assert max(np.abs(u.conj().T @ mj @ u - bj).max() for mj, bj in zip(minimal, b)) < 1e-8
    # one map entry off by 1 % pulls back a different simplex
    off = structure.AffineMap(nf.map.linear.copy(), nf.map.offset)
    off.linear[0, 0] *= 1.01
    assert not structure.unitarily_equivalent(minimal, pulled_back_reference(off))[0]


def test_normal_form_rejects_an_uncertified_map(monkeypatch):
    honest = structure._barycentric

    def skewed(facets, tol):
        drop, rest, weights = honest(facets, tol)
        return drop, rest, weights * np.r_[1.01, np.ones(len(weights) - 1)]

    monkeypatch.setattr(structure, "_barycentric", skewed)
    with pytest.raises(NumericalError):
        structure.simplex_normal_form(NAIMARK)


def test_normal_form_of_reference_is_identity():
    nf = structure.simplex_normal_form(NAIMARK)
    assert normal_form_mismatches(NAIMARK, nf.map)[1] == 0
    assert np.abs(nf.map.linear - np.eye(2)).max() < 1e-8
    assert np.abs(nf.map.offset).max() < 1e-8


def test_normal_form_of_scaled_simplex():
    nf = structure.simplex_normal_form(2.0 * NAIMARK)
    assert normal_form_mismatches(2.0 * NAIMARK, nf.map)[1] == 0
    assert np.abs(nf.map.linear - 2.0 * np.eye(2)).max() < 1e-8
    # the map sends the scaled vertices onto the reference vertices
    verts = structure.is_free_simplex(2.0 * NAIMARK).vertices
    mapped = (nf.map.linear @ verts.T.real).T + nf.map.offset.real
    ref = structure.is_free_simplex(NAIMARK).vertices
    assert as_set(mapped) == as_set(ref)


def test_simplex_from_vertices_round_trip():
    verts = [[-1.0, -1.0], [2.0, 0.0], [0.0, 2.0]]
    entry = gallery.simplex_from_vertices(verts)
    rep = structure.is_free_simplex(entry.pencil)
    assert rep.is_simplex
    assert as_set(rep.vertices) == {(-1.0, -1.0), (2.0, 0.0), (0.0, 2.0)}
    nf = structure.simplex_normal_form(entry.pencil)
    assert normal_form_mismatches(entry.pencil, nf.map)[1] == 0


def test_simplex_from_vertices_interval():
    entry = gallery.simplex_from_vertices([[-1.0], [1.0]])
    interval = gallery.interval().pencil
    assert F.inclusion(entry.pencil, interval, samples=10).status == F.INCLUDED
    assert F.inclusion(interval, entry.pencil, samples=10).status == F.INCLUDED


def test_simplex_from_vertices_needs_interior_origin():
    with pytest.raises(InputError):
        gallery.simplex_from_vertices([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
