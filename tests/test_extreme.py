"""Euclidean / Arveson / absolute extreme point tests."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freespec import extreme, feasibility, gallery, linalg, pencil
from freespec.errors import InputError, NumericalError
from conftest import bits, boundary_point, interior_point, random_bounded_pencil
import oracles

INTERVAL = gallery.interval().pencil
CUBE = gallery.cube(2).pencil
SPIN = gallery.spin_disk().pencil

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def members(a, x, y, t, tol=1e-7):
    ok_plus = pencil.membership(a, x + t * y, tol=tol).is_member
    ok_minus = pencil.membership(a, x - t * y, tol=tol).is_member
    return ok_plus and ok_minus


# ---------------------------------------------------------------------------
# Euclidean extreme points
# ---------------------------------------------------------------------------

def test_interval_endpoint_extreme():
    v = extreme.is_euclidean_extreme(INTERVAL, np.array([[[1.0]]]))
    assert v.extreme
    # only the zero perturbation keeps 1 +- t y inside [-1, 1] for both signs
    assert v.solution_dim == 0


def test_interval_midpoint_not_extreme():
    v = extreme.is_euclidean_extreme(INTERVAL, np.array([[[0.0]]]))
    assert not v.extreme
    assert abs(np.linalg.norm(v.witness) - 1.0) < 1e-9
    assert members(INTERVAL, np.array([[[0.0]]]), v.witness, v.t)
    # scalar case: t = 1 reaches both endpoints
    assert abs(v.t - 1.0) < 1e-6


def test_square_edge_point_not_extreme():
    # (1, 0) sits on an edge of the square; sliding along the edge stays inside
    x = np.array([[[1.0]], [[0.0]]])
    v = extreme.is_euclidean_extreme(CUBE, x)
    assert not v.extreme
    assert members(CUBE, x, v.witness, v.t)
    # the slide direction is the second coordinate
    assert abs(v.witness[0, 0, 0]) < 1e-8
    assert abs(abs(v.witness[1, 0, 0]) - 1.0) < 1e-8


def test_cube_symmetry_pair_extreme():
    x = np.stack([SZ, np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex)])
    for xj in x:
        assert np.abs(xj @ xj - np.eye(2)).max() < 1e-12
    v = extreme.is_euclidean_extreme(CUBE, x)
    assert v.extreme


def test_outside_point_rejected():
    with pytest.raises(InputError):
        extreme.is_euclidean_extreme(INTERVAL, np.array([[[2.0]]]))


@pytest.mark.parametrize("seed", range(4))
def test_euclidean_witness_invariants(seed):
    rng = linalg.default_rng(seed)
    a = random_bounded_pencil(rng, 2, 3)
    x = boundary_point(a, 2, rng)
    v = extreme.is_euclidean_extreme(a, x)
    if not v.extreme:
        assert abs(np.linalg.norm(v.witness) - 1.0) < 1e-9
        assert v.t > 0
        assert members(a, x, v.witness, v.t)


def bisect_scale(feasible, max_iter=40):
    """Largest t in (0, 1] with feasible(t), by bisection from above.

    The step search the closed forms replaced, kept as their reference.
    """
    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def min_eig_at(a, x):
    return linalg.min_eig(pencil.eval_monic(a, x))


@pytest.mark.parametrize("level", [1, 2, 3])
def test_closed_form_steps_match_bisection(pencil_pool, level):
    rng = linalg.default_rng(300 + level)
    checked = 0
    for a in pencil_pool:
        for x in (boundary_point(a, level, rng), interior_point(a, level, rng)):
            euc = extreme.is_euclidean_extreme(a, x)
            if not euc.extreme:
                y = euc.witness
                ref = bisect_scale(lambda t: min(min_eig_at(a, x + t * y), min_eig_at(a, x - t * y))
                                   >= -extreme.WITNESS_TOL)
                assert abs(euc.t - ref) <= 1e-6 * ref
                checked += 1
            arv = extreme.is_arveson(a, x)
            if not arv.boundary:
                ref = bisect_scale(
                    lambda t: min_eig_at(a, extreme.column_dilation(x, t * arv.alpha))
                    >= -extreme.WITNESS_TOL)
                assert abs(arv.t - ref) <= 1e-6 * ref
                checked += 1
    assert checked >= len(pencil_pool) * 2


def spin_near_cutoff(factor):
    h = linalg.random_herm_tuple(2, 2, linalg.default_rng(3))
    return factor * pencil.scale_to_boundary(SPIN, h)[1]


def test_point_outside_half_the_witness_slack_raises():
    # min_eig about -5e-9: inside the +-tol boundary band, but no witness
    # step can keep the slack of WITNESS_TOL
    x = spin_near_cutoff(1 + 5e-9)
    assert pencil.membership(SPIN, x).status == pencil.BOUNDARY
    with pytest.raises(NumericalError):
        extreme.is_arveson(SPIN, x)
    with pytest.raises(NumericalError):
        extreme.is_euclidean_extreme(SPIN, x)


@pytest.mark.parametrize("factor", [1.0, 1 + 1e-10])
def test_near_cutoff_witnesses_verify(factor):
    x = spin_near_cutoff(factor)
    euc = extreme.is_euclidean_extreme(SPIN, x)
    arv = extreme.is_arveson(SPIN, x)
    assert not euc.extreme and not arv.boundary
    for sign in (1.0, -1.0):
        assert min_eig_at(SPIN, x + sign * euc.t * euc.witness) >= -extreme.WITNESS_TOL
    z = extreme.column_dilation(x, arv.t * arv.alpha)
    assert min_eig_at(SPIN, z) >= -extreme.WITNESS_TOL


# ---------------------------------------------------------------------------
# Arveson boundary
# ---------------------------------------------------------------------------

def test_cube_symmetry_tuples_in_boundary():
    for seed in range(3):
        x = gallery.symmetry_tuple(3, 2, seed=seed)
        v = extreme.is_arveson(CUBE, x)
        assert v.boundary, seed


def test_interval_interior_point_dilates():
    v = extreme.is_arveson(INTERVAL, np.array([[[0.5]]]))
    assert not v.boundary
    assert v.alpha is not None
    z = extreme.column_dilation(np.array([[[0.5]]]), v.t * v.alpha)
    assert pencil.membership(INTERVAL, z, tol=1e-7).is_member
    # the classical dilation [[0.5, 0.5], [0.5, 0.5]] with eigenvalues {0, 1}
    # shows how far a column can go; the found column cannot beat it by much
    assert v.t * abs(v.alpha[0, 0]) <= np.sqrt(0.75) + 1e-6


def test_spin_commuting_boundary_pair_is_arveson():
    x = gallery.spin_boundary_point([0.0, np.pi / 2])
    assert np.abs(x[0] - np.diag([1.0, 0.0])).max() < 1e-12
    assert np.abs(x[1] - np.diag([0.0, 1.0])).max() < 1e-12
    assert extreme.is_arveson(SPIN, x).boundary


def test_spin_noncommuting_boundary_pair_is_not_arveson():
    x = np.stack([SZ / 2, SX / 2])
    assert pencil.membership(SPIN, x).status == pencil.BOUNDARY
    v = extreme.is_arveson(SPIN, x)
    assert not v.boundary
    z = extreme.column_dilation(x, v.t * v.alpha)
    assert pencil.membership(SPIN, z, tol=1e-7).is_member


@pytest.mark.parametrize("seed", range(4))
def test_arveson_witness_invariants(seed):
    rng = linalg.default_rng(100 + seed)
    a = random_bounded_pencil(rng, 2, 3)
    x = boundary_point(a, 2, rng)
    v = extreme.is_arveson(a, x)
    if not v.boundary:
        assert v.alpha is not None and v.t > 0
        z = extreme.column_dilation(x, v.t * v.alpha)
        assert pencil.membership(a, z, tol=1e-7).is_member


def test_column_dilation_layout():
    x = np.stack([SZ, SX])
    alpha = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    beta = np.array([5.0, 6.0])
    z = extreme.column_dilation(x, alpha, beta)
    assert z.shape == (2, 3, 3)
    for j in range(2):
        assert np.abs(z[j][:2, :2] - x[j]).max() < 1e-15
        assert np.abs(z[j][2, :2] - alpha[j]).max() < 1e-15
        assert np.abs(z[j][:2, 2] - alpha[j].conj()).max() < 1e-15
        assert abs(z[j][2, 2] - beta[j]) < 1e-15
        assert np.abs(z[j] - z[j].conj().T).max() < 1e-15


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def test_pauli_pair_irreducible():
    v = extreme.is_irreducible(np.stack([SZ, SX]))
    assert v.irreducible
    assert v.commutant_dim == 1


def test_commuting_diagonals_reducible():
    x = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]).astype(complex)
    v = extreme.is_irreducible(x)
    assert not v.irreducible
    p = v.projection
    assert np.abs(p @ p - p).max() < 1e-8
    rank = int(round(np.trace(p).real))
    assert 0 < rank < 2
    for xj in x:
        assert np.abs(p @ xj - xj @ p).max() < 1e-8


def test_scalars_irreducible():
    assert extreme.is_irreducible(np.array([[[3.0]], [[4.0]]])).irreducible


# ---------------------------------------------------------------------------
# absolute extreme points and the matrix-extreme sandwich
# ---------------------------------------------------------------------------

def test_pauli_pair_absolute_on_cube():
    v = extreme.is_absolute_extreme(CUBE, np.stack([SZ, SX]))
    assert v.absolute
    assert v.arveson.boundary and v.irreducibility.irreducible


def test_reducible_arveson_point_not_absolute():
    x = gallery.spin_boundary_point([0.2, 1.9])
    v = extreme.is_absolute_extreme(SPIN, x)
    assert v.arveson.boundary
    assert not v.irreducibility.irreducible
    assert not v.absolute


def test_matrix_extreme_statuses():
    yes = extreme.matrix_extreme_status(CUBE, np.stack([SZ, SX]))
    assert yes.status == "yes"
    no_reducible = extreme.matrix_extreme_status(SPIN, gallery.spin_boundary_point([0.2, 1.9]))
    assert no_reducible.status == "no"
    no_interior = extreme.matrix_extreme_status(INTERVAL, np.array([[[0.0]]]))
    assert no_interior.status == "no"


def test_matrix_extreme_sandwich_consistency():
    # matrix extreme sits between Euclidean and absolute: the partial test
    # must never contradict either end of the sandwich
    rng = linalg.default_rng(17)
    for _ in range(6):
        a = random_bounded_pencil(rng, 2, 2)
        x = boundary_point(a, 2, rng)
        st = extreme.matrix_extreme_status(a, x)
        if st.status == "yes":
            assert extreme.is_euclidean_extreme(a, x).extreme
        if extreme.is_absolute_extreme(a, x).absolute:
            assert st.status == "yes"


def test_classify_matches_separate_verdicts(pencil_pool):
    rng = linalg.default_rng(41)
    for a in pencil_pool:
        points = [boundary_point(a, 2, rng), interior_point(a, 2, rng),
                  pencil.direct_sum([boundary_point(a, 1, rng), boundary_point(a, 2, rng)]),
                  2.0 * boundary_point(a, 1, rng)]
        for x in points:
            rep = pencil.membership(a, x)
            expected = {"membership": rep.to_json(), "euclidean": None, "arveson": None,
                        "irreducible": None, "absolute": None, "matrix_extreme": None}
            if rep.is_member:
                expected.update(
                    euclidean=extreme.is_euclidean_extreme(a, x).to_json(),
                    arveson=extreme.is_arveson(a, x).to_json(),
                    irreducible=extreme.is_irreducible(x).to_json(),
                    absolute=extreme.is_absolute_extreme(a, x).to_json(),
                    matrix_extreme=extreme.matrix_extreme_status(a, x).to_json(),
                )
            out = extreme.classify(a, x).to_json()
            assert list(out) == list(expected)
            assert out == expected


def count_calls(monkeypatch, *targets):
    """Count calls of ``module.name`` for each ``(module, name)`` target,
    inner calls through the module's globals included."""
    counts = {name: 0 for _, name in targets}
    for module, name in targets:
        def counted(*args, _orig=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("x,calls", [
    (np.array([[[0.0]], [[0.0]]]), 5),   # interior: both witness steps
    (np.array([[[1.0]], [[0.0]]]), 5),   # edge point: both witness steps
    (np.stack([SZ, SX]), 1),             # absolute extreme: no witness step
])
def test_classify_evaluates_and_decomposes_pencil_once(monkeypatch, x, calls):
    # L_A(X) once, then per witness step S Lam_A(Y) S and the direct checks
    # of X + tY, X - tY and the dilation; S reuses the decomposition of L_A(X)
    counts = count_calls(monkeypatch, (linalg, "eigh"), (pencil, "eval_hom"))
    extreme.classify(CUBE, x)
    assert counts == {"eigh": calls, "eval_hom": calls}


def verdicts(c):
    return (c.membership.status, c.euclidean.extreme, c.arveson.boundary,
            c.irreducible.irreducible, c.absolute.absolute, c.matrix_extreme.status)


def test_classify_invariances(pencil_pool):
    # verdicts are properties of the point's unitary class and of the set:
    # they survive X -> U*XU, A -> V*AV and a permutation of the variables;
    # X ⊕ X keeps the Arveson verdict and is reducible
    arveson_seen = set()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.integers(0, len(pencil_pool) - 1), st.integers(1, 3), st.booleans(),
           st.integers(0, 2**32 - 1))
    def check(index, level, interior, seed):
        rng = linalg.default_rng(seed)
        a = pencil_pool[index]
        g, d = a.shape[0], a.shape[1]
        x = (0.5 if interior else 1.0) * boundary_point(a, level, rng)
        base = extreme.classify(a, x)
        _, euc, arv, _, absolute, _ = ref = verdicts(base)
        assert not absolute or arv
        assert not arv or euc
        arveson_seen.add(arv)

        u = linalg.random_unitary(level, rng)
        v = linalg.random_unitary(d, rng)
        perm = rng.permutation(g)
        assert verdicts(extreme.classify(a, u.conj().T @ x @ u)) == ref
        assert verdicts(extreme.classify(v.conj().T @ a @ v, x)) == ref
        assert verdicts(extreme.classify(a[perm], x[perm])) == ref
        doubled = extreme.classify(a, pencil.direct_sum([x, x]))
        assert doubled.arveson.boundary == arv
        assert not doubled.irreducible.irreducible

    check()
    # level-1 boundary points of pencils with g <= d are Arveson points
    assert arveson_seen == {True, False}


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_arveson_implies_euclidean():
    rng = linalg.default_rng(23)
    cases = [(SPIN, gallery.spin_boundary_point([0.4, 2.2])),
             (CUBE, gallery.symmetry_tuple(2, 2, seed=7))]
    for _ in range(10):
        a = random_bounded_pencil(rng, 2, 2)
        cases.append((a, boundary_point(a, 2, rng)))
    checked = 0
    for a, x in cases:
        if extreme.is_arveson(a, x).boundary:
            assert extreme.is_euclidean_extreme(a, x).extreme
            checked += 1
    # the gallery cases guarantee the implication is actually exercised
    assert checked >= 2


def test_arveson_closed_under_unitaries_and_sums():
    x = gallery.symmetry_tuple(2, 2, seed=4)
    assert extreme.is_arveson(CUBE, x).boundary
    rng = linalg.default_rng(5)
    u = linalg.random_unitary(2, rng)
    xu = np.stack([u.conj().T @ xj @ u for xj in x])
    assert extreme.is_arveson(CUBE, xu).boundary
    y = gallery.symmetry_tuple(3, 2, seed=6)
    both = pencil.direct_sum([x, y])
    assert extreme.is_arveson(CUBE, both).boundary


def test_not_arveson_survives_direct_sum_with_arveson():
    # direct sums are Arveson only when every summand is
    good = gallery.spin_boundary_point([0.4])
    bad = np.stack([SZ / 2, SX / 2])
    both = pencil.direct_sum([good, bad])
    assert not extreme.is_arveson(SPIN, both).boundary


# ---------------------------------------------------------------------------
# independent dilation oracle
# ---------------------------------------------------------------------------

def test_oracle_directions_are_the_search_coordinates():
    # dilation_oracle keeps the coordinate directions of the hull direction
    # search, in the same order, drawing nothing from its rng
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    for g, n in ((1, 1), (2, 3), (3, 2)):
        mine = extreme._coordinate_directions(g, n)
        theirs = oracles._alpha_directions(g, n, 0, rng)
        assert len(mine) == len(theirs) == 2 * g * n
        assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(mine, theirs))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", range(4))
def test_oracle_agrees_with_kernel_test(seed):
    rng = linalg.default_rng(200 + seed)
    a = random_bounded_pencil(rng, 2, 2)
    x = boundary_point(a, 2, rng)
    kernel_says = extreme.is_arveson(a, x).boundary
    oracle = extreme.dilation_oracle(a, x, seed=seed)
    assert oracle.dilation_found == (not kernel_says)


def test_oracle_dilation_is_sound():
    v = extreme.dilation_oracle(SPIN, np.stack([SZ / 2, SX / 2]), seed=0)
    assert v.dilation_found
    z = extreme.column_dilation(np.stack([SZ / 2, SX / 2]), v.alpha, v.beta)
    assert pencil.membership(SPIN, z, tol=1e-5).is_member



def _herm_tuple(g, n, rng):
    # one Hermitian matrix after the other, real part drawn before imaginary
    out = []
    for _ in range(g):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out.append((z + z.conj().T) / 2)
    return np.stack(out)


def _traceless_pencil(g, d, rng):
    a = _herm_tuple(g, d, rng)
    return a - (np.trace(a, axis1=1, axis2=2)[:, None, None] / d) * np.eye(d)


def _boundary_draw(a, n, rng):
    # h / lambda_max(Lam_A(h)) for a random Hermitian direction h
    h = _herm_tuple(a.shape[0], n, rng)
    d = a.shape[1]
    lam = np.einsum("jab,jrs->arbs", a, h).reshape(d * n, d * n)
    return h / np.linalg.eigvalsh(lam)[-1]


def test_oracle_finds_dilation_on_kernel_non_boundary_point():
    # a non-boundary point whose dilation the oracle once missed on all 14
    # directions; on the face of ker L_A(X) it turns up on the first one
    rng = np.random.default_rng(1)
    a = _traceless_pencil(2, 2, rng)
    for n in (1, 1, 2, 2, 3, 3):
        _boundary_draw(a, n, rng)
    a = _traceless_pencil(2, 3, rng)
    for _ in range(2):
        _boundary_draw(a, 1, rng)
    x = _boundary_draw(a, 2, rng)
    kernel = extreme.is_arveson(a, x)
    assert not kernel.boundary
    oracle = extreme.dilation_oracle(a, x)
    assert oracle.dilation_found
    z = extreme.column_dilation(x, oracle.alpha, oracle.beta)
    assert linalg.min_eig(pencil.eval_monic(a, z)) >= -extreme.WITNESS_TOL


# perfbench --workload oracle --seed 34: the first level-1 boundary draw on
# the third repetition's g = 2, d = 2 pencil. The kernel of L_A(X) has
# dimension 1 and the Arveson system singular values 2.09 and 0.036, so no
# exact dilation exists. Without the face rows the oracle reported one on
# direction 3, with |alpha| = 0.011 and |C(alpha)* k| = 4.0e-4
SEED34_PENCIL = np.array([
    [[-0.1813982791091875, 1.8103841120633226 + 0.7527583656068209j],
     [1.8103841120633226 - 0.7527583656068209j, 0.1813982791091875]],
    [[0.09831094836746596, -0.6412961564221266 - 0.2485693850162004j],
     [-0.6412961564221266 + 0.2485693850162004j, -0.09831094836746601]],
])
SEED34_POINT = np.array([-0.3124709214961184, 0.5542799658034648]).reshape(2, 1, 1)


def test_oracle_finds_no_dilation_of_arveson_boundary_point():
    assert extreme.is_arveson(SEED34_PENCIL, SEED34_POINT).boundary
    assert not extreme.dilation_oracle(SEED34_PENCIL, SEED34_POINT).dilation_found


def record_solves(monkeypatch):
    """Every ``(problem, result)`` pair of the solver calls that follow."""
    solves = []

    def recorded(problem, **kwargs):
        res = solve(problem, **kwargs)
        solves.append((problem, res))
        return res

    solve = feasibility.solve_affine_psd
    monkeypatch.setattr(feasibility, "solve_affine_psd", recorded)
    return solves


def pool_boundary_points(pool, arveson: bool):
    """Boundary points at levels 1 and 2 of every pool pencil, split by the
    kernel test's Arveson verdict."""
    rng = linalg.default_rng(3301)
    points = []
    for a in pool:
        for n in (1, 1, 2, 2):
            x = boundary_point(a, n, rng)
            if extreme.is_arveson(a, x).boundary == arveson:
                points.append((a, x))
    return points


def test_oracle_solves_nothing_at_arveson_points(monkeypatch, pencil_pool):
    # on the face of ker L_A(X) the normalization row is inconsistent, so
    # every direction ends before its first iteration
    points = [(SEED34_PENCIL, SEED34_POINT)] + pool_boundary_points(pencil_pool, True)
    assert len(points) >= 6
    solves = record_solves(monkeypatch)
    for a, x in points:
        start = len(solves)
        v = extreme.dilation_oracle(a, x)
        assert not v.dilation_found
        g, n = x.shape[0], x.shape[1]
        assert v.directions_tried == len(solves) - start == extreme.ORACLE_DIRECTIONS + 2 * g * n
    assert all(res.iterations == 0 and not res.feasible for _, res in solves)


def test_oracle_interior_problems_carry_only_the_normalization(monkeypatch, pencil_pool):
    rng = linalg.default_rng(3302)
    solves = record_solves(monkeypatch)
    for a in pencil_pool:
        for n in (1, 2):
            assert extreme.dilation_oracle(a, interior_point(a, n, rng)).dilation_found
    assert len(solves) >= 2 * len(pencil_pool)
    assert all(problem.extra.shape[0] == 1 for problem, _ in solves)


def test_oracle_hits_lie_on_the_face(pencil_pool):
    points = pool_boundary_points(pencil_pool, False)
    assert len(points) >= 6
    for a, x in points:
        v = extreme.dilation_oracle(a, x)
        assert v.dilation_found
        cstar = pencil.eval_hom_col(a, v.alpha).conj().T
        kernel = pencil.membership(a, x).kernel
        assert kernel.shape[1] >= 1
        assert np.linalg.norm(cstar @ kernel, axis=0).max() <= 1e-12 * np.linalg.norm(v.alpha)
        z = extreme.column_dilation(x, v.alpha, v.beta)
        assert linalg.min_eig(pencil.eval_monic(a, z)) >= -extreme.WITNESS_TOL
