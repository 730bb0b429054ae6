"""Affine-PSD feasibility, Choi problems, hulls, duality, projections."""
import numpy as np
import pytest

from freespec import feasibility as F
from freespec import gallery, linalg, pencil
from freespec.errors import InputError, NumericalError
from conftest import random_bounded_pencil, separator_holds
import oracles

NAIMARK = gallery.build("naimark").pencil
CUBE = gallery.cube(2).pencil
SPIN = gallery.spin_disk().pencil
INTERVAL = gallery.interval().pencil


def scalar_pair(u, v):
    return np.array([[[float(u)]], [[float(v)]]])


def herm_row(b):
    return linalg.herm_to_vec(np.asarray(b, dtype=complex))


# ---------------------------------------------------------------------------
# the affine-PSD solver
# ---------------------------------------------------------------------------

def test_trace_one_psd_feasible():
    prob = F.FeasibilityProblem(dim=2, base=np.zeros((2, 2)),
                                extra=[herm_row(np.eye(2))], extra_rhs=[1.0])
    res = F.solve_affine_psd(prob)
    assert res.feasible
    assert res.residual <= 1e-6
    assert abs(np.trace(res.z).real - 1.0) < 1e-6
    assert linalg.min_eig(res.z) >= -1e-6


def test_negative_trace_infeasible():
    # tr Z = -1 with Z PSD has no solution; W = mu * I proves it
    prob = F.FeasibilityProblem(dim=2, base=np.zeros((2, 2)),
                                extra=[herm_row(np.eye(2))], extra_rhs=[-1.0])
    res = F.solve_affine_psd(prob)
    assert res.status == F.INFEASIBLE
    assert not res.feasible
    assert res.iterations == 1
    assert res.multipliers.shape == (1,)
    assert res.multipliers[0] > 0
    assert res.multipliers @ prob.extra_rhs < 0


def _farkas_holds(prob, mu):
    """Independent check of a Farkas certificate: ``W = sum_i mu_i E_i`` and
    ``<W, Z> = <W, base> + mu @ rhs`` on the affine set; the certificate needs
    the row span to contain ``I`` (the trace is then ``t``) and
    ``value + max(0, -lambda_min(W)) t < 0``."""
    w = linalg.vec_to_herm(mu @ prob.extra, prob.dim)
    value = float(np.trace(w @ prob.base).real + mu @ prob.extra_rhs)
    eye = linalg.herm_to_vec(np.eye(prob.dim))
    coef, *_ = np.linalg.lstsq(prob.extra.T, eye, rcond=None)
    assert np.abs(prob.extra.T @ coef - eye).max() < 1e-9
    trace = float(np.trace(prob.base).real + coef @ prob.extra_rhs)
    return value + max(0.0, -np.linalg.eigvalsh(w)[0]) * trace < 0


def test_weakly_infeasible_without_pinned_trace_is_not_certified():
    # z11 = 0 and z12 = 1 on 2x2: no PSD solution, but z22 -> inf comes
    # arbitrarily close, so no separator exists. I is not in the row span, so
    # no check runs (one at iteration 1 would wrongly pass), and the solve
    # ends as it would without the check: within tol, at a huge z22
    b12 = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    prob = F.FeasibilityProblem(dim=2, base=np.zeros((2, 2)),
                                extra=[herm_row(np.diag([1.0, 0.0])), herm_row(b12)],
                                extra_rhs=[0.0, 1.0])
    assert not F._affine_frame(prob, None).pinned
    res = F.solve_affine_psd(prob)
    assert res.status != F.INFEASIBLE
    assert res.multipliers is None


@pytest.mark.xfail(strict=True, reason="solve_affine_psd reports feasible at z22 ~ 1.6e15 "
                   "on a set with no PSD point (CHANGES.md, FOUND)")
def test_weakly_infeasible_is_not_reported_feasible():
    # the problem of the test above: the set z11 = 0, z12 = 1 has no PSD
    # point, so no answer may be feasible
    b12 = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    prob = F.FeasibilityProblem(dim=2, base=np.zeros((2, 2)),
                                extra=[herm_row(np.diag([1.0, 0.0])), herm_row(b12)],
                                extra_rhs=[0.0, 1.0])
    res = F.solve_affine_psd(prob)
    assert not res.feasible


def test_generator_mode_feasible():
    # Z = I + s*sigma_z is PSD for |s| <= 1; the line is feasible
    gens = np.stack([np.eye(2, dtype=complex),
                     np.diag([1.0, -1.0]).astype(complex)])
    prob = F.FeasibilityProblem(dim=2, base=np.zeros((2, 2)), generators=gens,
                                extra=[[1.0, 0.0]], extra_rhs=[1.0])
    res = F.solve_affine_psd(prob)
    assert res.feasible
    z = gens[0] * res.s[0] + gens[1] * res.s[1]
    assert np.abs(z - res.z).max() < 1e-8


def test_generator_mode_infeasible():
    # Z = sigma_z is forced and is not PSD
    gens = np.diag([1.0, -1.0]).astype(complex)[None]
    prob = F.FeasibilityProblem(dim=2, base=np.zeros((2, 2)), generators=gens,
                                extra=[[1.0]], extra_rhs=[1.0])
    res = F.solve_affine_psd(prob)
    assert res.status == F.NO_CERTIFICATE


def test_unique_boundary_completion_polished():
    """Feasible set = one rank-one matrix; plain alternating projections
    stall on such boundary-touching sets, so this exercises the polish.

    Pinning z11=z22=z33=z12=z23=1 leaves only z13 free; the {1,2} block
    [[1,1],[1,1]] is singular with kernel (1,-1), and PSD-ness forces
    Z(1,-1,0)* = 0, i.e. z13 = z23 = 1: the all-ones matrix is the unique
    completion.
    """
    e = np.zeros((3, 3))
    cons, rhs = [], []
    for i in range(3):
        b = e.copy()
        b[i, i] = 1.0
        cons.append(herm_row(b))
        rhs.append(1.0)
    for (i, j) in ((0, 1), (1, 2)):
        b = e.astype(complex).copy()
        b[i, j] = 0.5
        b[j, i] = 0.5
        cons.append(herm_row(b))
        rhs.append(1.0)
        b2 = e.astype(complex).copy()
        b2[i, j] = 0.5j
        b2[j, i] = -0.5j
        cons.append(herm_row(b2))
        rhs.append(0.0)
    prob = F.FeasibilityProblem(dim=3, base=np.zeros((3, 3)),
                                extra=np.array(cons), extra_rhs=np.array(rhs))
    res = F.solve_affine_psd(prob)
    assert res.feasible
    assert np.abs(res.z - np.ones((3, 3))).max() < 1e-8


def test_base_offset_handled():
    # Z = base + coords, base already PSD and no constraints: base itself works
    base = np.diag([2.0, 1.0]).astype(complex)
    res = F.solve_affine_psd(F.FeasibilityProblem(dim=2, base=base))
    assert res.feasible


SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_generator_mode_dependent_generators_recovers_s():
    # G_2 = G_0 + G_1 makes the generators dependent; s_0 + s_2 = 1 leaves
    # Z = I + (s_1 + s_2) sigma_z + s_3 sigma_x, PSD on a disk
    gens = np.stack([np.eye(2, dtype=complex), SZ, np.eye(2) + SZ, SX])
    base = 0.1 * SX
    extra, rhs = np.array([[1.0, 0.0, 1.0, 0.0]]), np.array([1.0])
    res = F.solve_affine_psd(F.FeasibilityProblem(dim=2, base=base, generators=gens,
                                                  extra=extra, extra_rhs=rhs))
    assert res.feasible
    assert np.abs(extra @ res.s - rhs).max() < 1e-8
    assert np.abs(base + np.tensordot(res.s, gens, axes=1) - res.z).max() < 1e-8
    assert linalg.min_eig(res.z) >= -1e-6


def test_generator_mode_inconsistent_rows():
    gens = np.stack([SZ, SX])
    prob = F.FeasibilityProblem(dim=2, base=np.eye(2), generators=gens,
                                extra=[[1.0, 0.0], [2.0, 0.0]], extra_rhs=[1.0, 1.0])
    res = F.solve_affine_psd(prob)
    assert res.status == F.NO_CERTIFICATE
    assert res.iterations == 0
    assert res.residual == np.inf


RIGID = {
    "pinned generators": dict(generators=np.stack([SZ, SX]), extra=np.eye(2),
                              extra_rhs=np.zeros(2)),
    "zero generators": dict(generators=np.zeros((2, 2, 2))),
    "pinned Choi form": dict(extra=np.eye(4), extra_rhs=np.zeros(4)),
}


@pytest.mark.parametrize("family", sorted(RIGID))
@pytest.mark.parametrize("diag,feasible", [((1.0, 2.0), True), ((1.0, -1.0), False)])
def test_rigid_family(family, diag, feasible):
    # no free direction: Z = base is the only candidate
    base = np.diag(diag).astype(complex)
    res = F.solve_affine_psd(F.FeasibilityProblem(dim=2, base=base, **RIGID[family]))
    assert res.feasible == feasible
    assert np.abs(res.z - base).max() < 1e-12
    if not feasible:
        # only the Choi form, whose rows pin the trace, looks for a proof
        if family == "pinned Choi form":
            assert res.status == F.INFEASIBLE
            assert _farkas_holds(F.FeasibilityProblem(dim=2, base=base, **RIGID[family]),
                                 res.multipliers)
        else:
            assert res.status == F.NO_CERTIFICATE
        assert res.residual >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# the affine frame, held as Hermitian matrices
# ---------------------------------------------------------------------------

def _random_frame_problem(form, seed):
    rng = linalg.default_rng(seed)
    d = 3
    base = linalg.random_herm(d, rng)
    if form == "choi":
        return F.FeasibilityProblem(dim=d, base=base, extra=rng.standard_normal((4, d * d)),
                                    extra_rhs=rng.standard_normal(4)), None
    gens = linalg.random_herm_tuple(5, d, rng)
    prob = F.FeasibilityProblem(dim=d, base=base, generators=gens,
                                extra=rng.standard_normal((2, 5)),
                                extra_rhs=rng.standard_normal(2))
    return prob, linalg.herm_to_vec(gens).T


@pytest.mark.parametrize("form", ["choi", "generators"])
@pytest.mark.parametrize("seed", range(3))
def test_matrix_frame_matches_realified_projection(form, seed):
    prob, gvec = _random_frame_problem(form, seed)
    frame = F._affine_frame(prob, gvec)
    b = linalg.herm_to_vec(frame.basis).T
    assert np.abs(b.T @ b - np.eye(b.shape[1])).max() < 1e-12
    z0 = linalg.herm_to_vec(frame.z0)
    zmat = linalg.random_herm(prob.dim, linalg.default_rng(100 + seed))
    z = linalg.herm_to_vec(zmat)
    coords = b.T @ (z - z0)
    assert np.abs(frame.coords(zmat) - coords).max() < 1e-12
    want = z - b @ coords if gvec is None else z0 + b @ coords
    proj = frame.project(zmat)
    assert np.abs(linalg.herm_to_vec(proj) - want).max() < 1e-12
    # the projection lands in the problem's own affine set
    s = frame.s_of(proj)
    lin = linalg.vec_to_herm(s, prob.dim) if gvec is None else np.tensordot(s, prob.generators, 1)
    assert np.abs(prob.base + lin - proj).max() < 1e-10
    assert np.abs(prob.extra @ s - prob.extra_rhs).max() < 1e-10


@pytest.mark.parametrize("n", range(1, 7))
def test_stopping_gap_reads_realified_max_off_entries(n):
    rng = linalg.default_rng(n)
    for _ in range(5):
        diff = linalg.random_herm(n, rng)
        assert linalg.herm_abs_max(diff) == np.abs(linalg.herm_to_vec(diff)).max()


@pytest.mark.parametrize("family", sorted(RIGID))
def test_rigid_frame_projects_onto_its_point(family):
    base = np.diag([1.0, -1.0]).astype(complex)
    prob = F.FeasibilityProblem(dim=2, base=base, **RIGID[family])
    gvec = None if prob.generators is None else linalg.herm_to_vec(prob.generators).T
    frame = F._affine_frame(prob, gvec)
    if gvec is not None:
        assert frame.basis.shape == (0, 2, 2)
    for seed in range(3):
        zmat = linalg.random_herm(2, linalg.default_rng(seed))
        assert np.abs(frame.project(zmat) - frame.z0).max() < 1e-12
    assert np.abs(frame.z0 - base).max() < 1e-12


# ---------------------------------------------------------------------------
# Choi problems and hull membership
# ---------------------------------------------------------------------------

def test_hull_membership_identity_map():
    rep = F.hull_membership(NAIMARK, NAIMARK)
    assert rep.status == F.MEMBER
    cert = rep.certificate
    assert cert.residual <= 1e-6
    d = NAIMARK.shape[1]
    for oj, xj in zip(NAIMARK, NAIMARK):
        assert np.abs(F.apply_choi(cert.choi, oj, d, d) - xj).max() < 1e-5


@pytest.mark.parametrize("seed,m,k", [(0, 2, 1), (1, 3, 2), (2, 1, 2)])
def test_hull_membership_compressions(seed, m, k):
    rng = linalg.default_rng(seed)
    omega = linalg.random_herm_tuple(2, 3, rng)
    amp = pencil.direct_sum([omega] * k)
    v = linalg.random_isometry(m, 3 * k, rng)
    x = np.stack([v.conj().T @ aj @ v for aj in amp])
    rep = F.hull_membership(omega, x)
    assert rep.status == F.MEMBER
    assert rep.residual <= 1e-6


def test_hull_membership_certificate_is_ucp():
    rng = linalg.default_rng(3)
    omega = linalg.random_herm_tuple(2, 3, rng)
    v = linalg.random_isometry(2, 3, rng)
    x = np.stack([v.conj().T @ oj @ v for oj in omega])
    rep = F.hull_membership(omega, x)
    assert rep.status == F.MEMBER
    choi = rep.certificate.choi
    assert linalg.min_eig(choi) >= -1e-6
    # unitality: the map sends I_d to I_n
    assert np.abs(F.apply_choi(choi, np.eye(3), 3, 2) - np.eye(2)).max() < 1e-5
    # Stinespring isometry reproduces the map on the generators
    iso = rep.certificate.isometry
    amp = pencil.direct_sum([omega] * rep.certificate.kraus_rank)
    for oj, xj in zip(omega, x):
        assert np.abs(iso.conj().T @ oj_amp(oj, rep.certificate.kraus_rank) @ iso - xj).max() < 1e-4


def oj_amp(oj, k):
    return np.kron(np.eye(k), oj)


def test_certificate_residual_covers_the_isometry():
    # the Choi matrix meets its rows to 1e-15 here, while the eigenvalue cut
    # of the Stinespring factor leaves defects near 4.5e-10
    rng = linalg.default_rng(16)
    omega = linalg.random_herm_tuple(2, 4, rng)
    v = linalg.random_isometry(3, 4, rng)
    x = np.stack([v.conj().T @ oj @ v for oj in omega])
    rep = F.hull_membership(omega, x)
    assert rep.status == F.MEMBER
    iso, k = rep.certificate.isometry, rep.certificate.kraus_rank
    defect = max(np.abs(iso.conj().T @ iso - np.eye(3)).max(),
                 max(np.abs(iso.conj().T @ oj_amp(oj, k) @ iso - xj).max()
                     for oj, xj in zip(omega, x)))
    assert defect > 1e-12
    assert rep.certificate.residual >= defect
    assert rep.residual == rep.certificate.residual


def test_hull_membership_vertex_rows_of_simplex():
    # level-one hull points of the reference simplex: joint eigenvalue rows
    for u, v in ((-1.0, 0.0), (0.0, -1.0), (1.0 / 3.0, 1.0 / 3.0)):
        rep = F.hull_membership(NAIMARK, scalar_pair(u, v))
        assert rep.status == F.MEMBER, (u, v)
        assert rep.residual <= 1e-6


def test_hull_membership_barycenter():
    rep = F.hull_membership(NAIMARK, scalar_pair(-2.0 / 9.0, -2.0 / 9.0))
    assert rep.status == F.MEMBER


def test_hull_membership_outside_spectrahedron_rejected():
    # far outside D_Omega: sound fast rejection
    rep = F.hull_membership(NAIMARK, scalar_pair(9.0, 9.0))
    assert rep.status == F.NOT_MEMBER


def test_hull_membership_in_spectrahedron_but_not_hull():
    # (4, -1) is a vertex of D_N at level one but not a compression of N
    # itself: no membership certificate can exist, and none is invented;
    # the Choi problem is infeasible, and a separating pencil proves it
    x = scalar_pair(4.0, -1.0)
    rep = F.hull_membership(NAIMARK, x)
    assert rep.status == F.NOT_MEMBER
    assert rep.certificate is None
    assert rep.separator.h.shape == (3, 1, 1)
    assert separator_holds(NAIMARK, x, rep.separator.h)
    assert rep.to_json()["separator"]["value"] == rep.separator.value < 0


SIMPLEX2_VERTS = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])


def test_separators_of_simplex_gap_points():
    # level-1 points of D_N = {x, y >= -1, x + y <= 3} outside the triangle
    # spanned by the joint eigenvalue rows of N (mco(N) at level one)
    rng = linalg.default_rng(11)
    d_verts = np.array([[-1.0, -1.0], [4.0, -1.0], [-1.0, 4.0]])
    tri = np.column_stack([SIMPLEX2_VERTS, np.ones(3)])
    found = 0
    while found < 6:
        p = rng.dirichlet(np.ones(3)) @ d_verts
        bary = np.linalg.solve(tri.T, np.append(p, 1.0))
        if bary.min() > -0.1:
            continue
        found += 1
        x = scalar_pair(*p)
        rep = F.hull_membership(NAIMARK, x)
        assert rep.status == F.NOT_MEMBER, p
        assert separator_holds(NAIMARK, x, rep.separator.h), p
    # a level-2 gap point: the direct sum of a hull vertex and a gap point
    x = pencil.direct_sum([scalar_pair(-1.0, 0.0), scalar_pair(4.0, -1.0)])
    rep = F.hull_membership(NAIMARK, x)
    assert rep.status == F.NOT_MEMBER
    assert rep.separator.h.shape == (3, 2, 2)
    assert separator_holds(NAIMARK, x, rep.separator.h)


def test_separator_pairs_with_choi_matrices():
    # <Omega_j^T ⊗ H, C> = tr(H Phi(Omega_j)) for the map Phi of a Choi matrix C
    rng = linalg.default_rng(4)
    d, n = 3, 2
    omega = linalg.random_herm_tuple(2, d, rng)
    c = linalg.random_herm(d * n, rng)
    h = linalg.random_herm(n, rng)
    for oj in omega:
        got = np.trace(np.kron(oj.T, h) @ c).real
        assert abs(got - np.trace(h @ F.apply_choi(c, oj, d, n)).real) < 1e-12


def _stalled_repro(seed):
    rng = linalg.default_rng(seed)
    omega = linalg.random_herm_tuple(2, 4, rng)
    v = linalg.random_isometry(3, 4, rng)
    return omega, np.stack([v.conj().T @ oj @ v for oj in omega])


@pytest.mark.parametrize("seed", [2, 3, 5, 17, 20, 23, 38])
def test_stalled_members_are_never_separated(seed, monkeypatch):
    # compressions whose Choi set has no interior; the solver may give up,
    # but a member must never be called a non-member. Every Farkas check
    # runs before the polish, which never proves infeasibility, so it is
    # stubbed out: it takes 90 % of these solves
    monkeypatch.setattr(F, "_eigenblock_polish",
                        lambda zmat, dirs, tol: (zmat, np.zeros(dirs.shape[0]), np.inf))
    omega, x = _stalled_repro(seed)
    rep = F.hull_membership(omega, x)
    assert rep.status != F.NOT_MEMBER
    assert rep.separator is None


def test_compressions_are_never_separated():
    rng = linalg.default_rng(21)
    for g, d, k, m in [(2, 3, 1, 2), (2, 3, 2, 3), (3, 2, 2, 2), (2, 2, 1, 1), (3, 3, 1, 2),
                       (2, 2, 2, 3), (2, 3, 1, 1), (3, 2, 1, 2)]:
        omega = linalg.random_herm_tuple(g, d, rng)
        v = linalg.random_isometry(m, k * d, rng)
        amp = pencil.direct_sum([omega] * k)
        rep = F.hull_membership(omega, np.stack([v.conj().T @ aj @ v for aj in amp]))
        assert rep.status != F.NOT_MEMBER, (g, d, k, m)


def _herm_pairing(row, h, rng):
    """``row . herm_to_vec(Z)`` against ``tr(H Z)`` for a random Hermitian Z."""
    z = linalg.random_herm(h.shape[0], rng)
    return float(row @ linalg.herm_to_vec(z)), float(np.trace(h @ z).real)


@pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (3, 2)])
def test_choi_rows_pair_with_their_matrices(d, n):
    rng = linalg.default_rng(d + 10 * n)
    omega = linalg.random_herm_tuple(2, d, rng)
    targets = list(linalg.random_herm_tuple(2, n, rng))
    basis = linalg.herm_basis(n)
    rows, rhs = F._unitality_rows(d, n)
    assert rows.shape == (n * n, (d * n) ** 2)
    for row, h, r in zip(rows, basis, rhs):
        got, want = _herm_pairing(row, np.kron(np.eye(d), h), rng)
        assert abs(got - want) < 1e-12
        assert r == np.trace(h).real
    # the corner and column rows are built by the direction-search oracle
    sel = np.zeros((n + 1, n), dtype=complex)
    sel[:n, :n] = np.eye(n)
    for build, block, size in ((F._matching_rows, None, n),
                               (oracles._corner_rows, sel, n + 1)):
        rows, rhs = build(omega, targets)
        assert rows.shape == (2 * n * n, (d * size) ** 2)
        pairs = [(oj, tj, h) for oj, tj in zip(omega, targets) for h in basis]
        for row, r, (oj, tj, h) in zip(rows, rhs, pairs):
            hb = h if block is None else block @ h @ block.conj().T
            got, want = _herm_pairing(row, np.kron(oj.T, hb), rng)
            assert abs(got - want) < 1e-12
            assert abs(r - np.trace(h @ tj).real) < 1e-12
    c = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    s = np.zeros((2, n + 1, n + 1), dtype=complex)
    s[:, :n, n] = c / 2
    s[:, n, :n] = c.conj() / 2
    h = sum(np.kron(oj.T, sj) for oj, sj in zip(omega, s))
    got, want = _herm_pairing(oracles._column_row(omega, c), h, rng)
    assert abs(got - want) < 1e-12


def test_choi_problem_shapes():
    prob = F.choi_problem(NAIMARK, list(NAIMARK))
    assert prob.dim == NAIMARK.shape[1] ** 2
    res = F.solve_affine_psd(prob)
    assert res.feasible


# ---------------------------------------------------------------------------
# inclusion of spectrahedra
# ---------------------------------------------------------------------------

def test_inclusion_reflexive():
    rep = F.inclusion(NAIMARK, NAIMARK, samples=10, level_cap=2)
    assert rep.status == F.INCLUDED


def test_inclusion_interval_in_double_interval():
    wide = 0.5 * INTERVAL  # L(x) = I - (A/2) x, so D = [-2, 2]
    rep = F.inclusion(INTERVAL, wide, samples=10)
    assert rep.status == F.INCLUDED


def test_inclusion_cube_not_in_spin():
    rep = F.inclusion(CUBE, SPIN, samples=20, seed=1)
    assert rep.status == F.NOT_INCLUDED
    assert rep.witness is not None
    # witness soundness: inside the cube, outside the spin disk
    assert pencil.membership(CUBE, rep.witness).is_member
    assert pencil.membership(SPIN, rep.witness).status == pencil.OUTSIDE
    # hand oracle: the corner (1, 1) already separates, exactly as the witness
    corner = scalar_pair(1.0, 1.0)
    assert pencil.membership(CUBE, corner).is_member
    assert linalg.min_eig(pencil.eval_monic(SPIN, corner)) < -0.4


def test_inclusion_spin_in_cube():
    # X1^2 + X2^2 <= I forces X_j^2 <= I, so the spin disk sits in the cube
    rep = F.inclusion(SPIN, CUBE, samples=20, seed=2)
    assert rep.status == F.INCLUDED


def test_inclusion_transports_membership():
    rng = linalg.default_rng(8)
    a = random_bounded_pencil(rng, 2, 2)
    wide = 0.5 * a
    assert F.inclusion(a, wide, samples=10).status == F.INCLUDED
    for _ in range(5):
        x = linalg.random_herm_tuple(2, 2, rng, scale=0.4)
        if pencil.membership(a, x).is_member:
            assert pencil.membership(wide, x).is_member


# ---------------------------------------------------------------------------
# boundary detection inside the hull
# ---------------------------------------------------------------------------

def test_arveson_in_hull_generator_is_boundary():
    rep = F.arveson_in_hull(NAIMARK, NAIMARK)
    assert rep.status == F.BOUNDARY
    assert rep.is_boundary


def test_arveson_in_hull_barycenter_is_not():
    rep = F.arveson_in_hull(NAIMARK, scalar_pair(-2.0 / 9.0, -2.0 / 9.0))
    assert rep.status == F.NOT_BOUNDARY
    # the certifying dilation must itself be a hull member
    assert rep.dilated is not None
    assert F.hull_membership(NAIMARK, rep.dilated).status == F.MEMBER


def test_arveson_in_hull_vertex_row():
    rep = F.arveson_in_hull(NAIMARK, scalar_pair(-1.0, 0.0))
    assert rep.status == F.BOUNDARY


def test_arveson_in_hull_rejects_a_separated_non_member():
    # (4, -1) lies in D_N but outside mco(N): it is no boundary point of the hull
    with pytest.raises(InputError, match="not in the hull"):
        F.arveson_in_hull(NAIMARK, scalar_pair(4.0, -1.0))


def test_arveson_in_hull_direct_sum_of_rows():
    x = pencil.direct_sum([scalar_pair(-1.0, 0.0), scalar_pair(0.0, -1.0)])
    rep = F.arveson_in_hull(NAIMARK, x)
    assert rep.status == F.BOUNDARY


def conj_tuple(u, x):
    return np.stack([u.conj().T @ xj @ u for xj in x])


def traceless(g, d, rng):
    a = linalg.random_herm_tuple(g, d, rng)
    return a - np.einsum("gii->g", a).real[:, None, None] / d * np.eye(d)


def vertex_rows(omega):
    """Level-1 points ``(Omega_1[i, i], ..., Omega_g[i, i])`` of a diagonal tuple."""
    return [omega[:, i, i].real.reshape(-1, 1, 1).astype(complex)
            for i in range(omega.shape[1])]


def dilation_holds(x, rep, delta=1e-2):
    """Re-check a ``not_boundary`` witness with ``np.kron``: ``W`` is an
    isometry and ``W* (I_m ⊗ generator_j) W`` is the dilation, with corner
    ``X``, column ``alpha`` and corner entry ``beta``, all within the size rule
    ``||alpha|| >= delta / 4`` and ``sqrt(defect) <= 1e-3 ||alpha||``."""
    w, gen, n = rep.isometry, rep.generator, x.shape[1]
    m = w.shape[0] // gen.shape[1]
    size = np.linalg.norm(rep.alpha)
    defect = np.abs(w.conj().T @ w - np.eye(n + 1)).max()
    for gj, xj, zj, aj, bj in zip(gen, x, rep.dilated, rep.alpha, rep.beta):
        z = w.conj().T @ np.kron(np.eye(m), gj) @ w
        assert np.abs(z - zj).max() <= 1e-12
        assert np.abs(z[:n, n] - aj).max() <= 1e-12 and abs(z[n, n] - bj) <= 1e-12
        defect = max(defect, np.abs(z[:n, :n] - xj).max())
    return size >= 0.25 * delta and np.sqrt(defect) <= 1e-3 * size


def match_holds(x, rep):
    """Re-check a ``boundary`` verdict: ``U`` is unitary and ``U* X U`` is the
    reported direct sum of atoms, both to 1e-7."""
    u, n = rep.unitary, x.shape[1]
    return (np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-7
            and np.abs(conj_tuple(u, x) - rep.atoms).max() <= 1e-7)


def test_arveson_in_hull_battery():
    # truth by construction: compressions of I_2 ⊗ Omega to a lower level
    # are never boundary points; direct sums of atoms, scrambled by a
    # unitary, always are
    rng = linalg.default_rng(3131)
    cases = []
    for g in (1, 2, 3):
        omega = gallery.simplex(g).pencil
        amp = pencil.direct_sum([omega, omega])
        for i in range(16):
            v = linalg.random_isometry(1 + i % 2, 2 * (g + 1), rng)
            cases.append((omega, conj_tuple(v, amp), False))
        rows = vertex_rows(omega)
        for i in range(7):
            x = pencil.direct_sum([rows[k] for k in rng.choice(g + 1, size=1 + i % 3)])
            cases.append((omega, conj_tuple(linalg.random_isometry(x.shape[1], x.shape[1], rng),
                                            x), True))
    for d in (2, 3):
        for _ in range(3):
            omega = traceless(2, d, rng)
            amp = pencil.direct_sum([omega, omega])
            for i in range(4):
                v = linalg.random_isometry(1 + i % 2, 2 * d, rng)
                cases.append((omega, conj_tuple(v, amp), False))
            cases.append((omega, conj_tuple(linalg.random_isometry(d, d, rng), omega), True))
            if d == 2:
                u = linalg.random_isometry(2 * d, 2 * d, rng)
                cases.append((omega, conj_tuple(u, amp), True))
    assert len(cases) >= 100
    for i, (omega, x, boundary) in enumerate(cases):
        rep = F.arveson_in_hull(omega, x)
        assert rep.is_boundary == boundary, i
        if boundary:
            assert match_holds(x, rep), i
        else:
            assert dilation_holds(x, rep), i
            assert rep.directions_tried == 1, i


def test_direction_search_finds_nothing_at_exact_boundary_points():
    # the random direction search is the independent oracle: it must find
    # no dilation where the exact route proves the boundary
    s1, s2 = gallery.simplex(1).pencil, gallery.simplex(2).pencil
    u = linalg.random_isometry(2, 2, linalg.default_rng(7))
    points = [(s1, x) for x in vertex_rows(s1)] + [(s2, x) for x in vertex_rows(s2)]
    points.append((s1, conj_tuple(u, s1)))
    assert len(points) >= 6
    for i, (omega, x) in enumerate(points):
        assert F.arveson_in_hull(omega, x).is_boundary, i
        assert oracles.hull_dilation_search(omega, x).status == F.BOUNDARY, i


def test_arveson_in_hull_with_a_redundant_summand():
    # simplex(2) ⊕ its barycenter: the barycenter is no atom
    s2 = gallery.simplex(2).pencil
    rows = vertex_rows(s2)
    bary = sum(rows) / 3
    omega = pencil.direct_sum([s2, bary])
    for x, boundary in ((rows[0], True), (s2, True), (bary, False), (omega, False)):
        rep = F.arveson_in_hull(omega, x)
        assert rep.is_boundary == boundary
        assert match_holds(x, rep) if boundary else dilation_holds(x, rep)


def test_arveson_in_hull_reads_the_pruned_certificate(monkeypatch):
    # over the full generator, the barycenter summand has the reducing
    # certificate V = e_3; only the pruned tuple's certificate dilates
    s2 = gallery.simplex(2).pencil
    bary = sum(vertex_rows(s2)) / 3
    omega = pencil.direct_sum([s2, bary])
    reducing = np.zeros((4, 1), dtype=complex)
    reducing[3, 0] = 1.0
    solve = F.hull_membership

    def membership(om, x, tol=linalg.TOL):
        if om.shape == omega.shape:
            cert = F.ChoiCertificate(reducing @ reducing.conj().T, reducing, 1, 0.0)
            return F.HullMembershipReport(F.MEMBER, cert, min_eig=1.0, residual=0.0)
        return solve(om, x, tol=tol)

    monkeypatch.setattr(F, "hull_membership", membership)
    rep = F.arveson_in_hull(omega, bary)
    assert rep.status == F.NOT_BOUNDARY
    assert rep.directions_tried == 2
    assert rep.generator.shape == s2.shape
    assert dilation_holds(bary, rep)


def test_arveson_in_hull_generator_without_certificate():
    # X = Omega for irreducible g = 2, d = 4 draws: membership gives
    # no_certificate (a one-point fibre), and the atom match decides
    rng = linalg.default_rng(2)
    for i in range(8):
        omega = linalg.random_herm_tuple(2, 4, rng)
        rep = F.arveson_in_hull(omega, omega)
        assert rep.is_boundary, i
        assert match_holds(omega, rep), i


def test_arveson_in_hull_near_the_cutoff():
    # a vertex row moved towards the barycenter: by 1e-4 the column clears
    # the size rule; by 1e-6 it is too small to prove anything, and the
    # point matches no atom, so neither verdict is given
    vertex = scalar_pair(-1.0, 0.0)
    bary = sum(vertex_rows(NAIMARK)) / 3
    rep = F.arveson_in_hull(NAIMARK, (1 - 1e-4) * vertex + 1e-4 * bary)
    assert rep.status == F.NOT_BOUNDARY
    with pytest.raises(NumericalError, match="matches no atom"):
        F.arveson_in_hull(NAIMARK, (1 - 1e-6) * vertex + 1e-6 * bary)


def test_arveson_in_hull_needs_certified_atoms(monkeypatch):
    def no_certificate(*args, **kwargs):
        return F.InclusionReport(F.NO_CERTIFICATE, None, None, 0)
    monkeypatch.setattr(F, "inclusion", no_certificate)
    with pytest.raises(NumericalError, match="atoms"):
        F.arveson_in_hull(NAIMARK, scalar_pair(-1.0, 0.0))


# ---------------------------------------------------------------------------
# polar duality (sampled oracle)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("omega,label", [(NAIMARK, "simplex"), (CUBE, "cube")])
def test_polar_dual_no_counterexamples(omega, label):
    rep = oracles.polar_dual_check(omega, level=1, samples=25, seed=0)
    assert rep.counterexamples == 0, label
    assert rep.samples == 25


def test_polar_dual_level_two():
    rep = oracles.polar_dual_check(NAIMARK, level=2, samples=10, seed=1)
    assert rep.counterexamples == 0


# ---------------------------------------------------------------------------
# projections of spectrahedra with hidden variables
# ---------------------------------------------------------------------------

def test_drop_membership_no_hidden_variables_degenerates_to_membership():
    inside = scalar_pair(4.0, -1.0)     # vertex of D_N at level one
    outside = scalar_pair(5.0, 5.0)
    assert F.spectrahedrop_membership(NAIMARK, 2, inside).status == F.MEMBER
    assert F.spectrahedrop_membership(NAIMARK, 2, outside).status != F.MEMBER


def test_drop_membership_tv_exceptional_point():
    tv = gallery.tv_lift(1.0)
    ex = gallery.tv_exceptional_point()
    x = np.stack([ex["x"], ex["y"]])
    rep = F.spectrahedrop_membership(tv.pencil, tv.visible_vars, x)
    assert rep.status == F.MEMBER
    assert rep.residual <= 1e-6
    # the pencil stores the hidden coordinate in shifted/scaled form
    w_hat = (rep.hidden[0] + tv.aux["hidden_shift"] * np.eye(2)) / tv.aux["hidden_scale"]
    assert np.abs(w_hat - ex["w"]).max() < 1e-6


def test_drop_membership_tv_origin():
    tv = gallery.tv_lift(1.0)
    x = np.zeros((2, 1, 1))
    rep = F.spectrahedrop_membership(tv.pencil, tv.visible_vars, x)
    assert rep.status == F.MEMBER


def test_drop_membership_largest_random_shape():
    # traceless (g, d, n) = (3, 6, 5), the last variable hidden: the
    # projection of a boundary point of D_A(5) has a completion by construction
    rng = linalg.default_rng(5)
    a = linalg.random_herm_tuple(3, 6, rng)
    a -= np.einsum("gii->g", a).real[:, None, None] / 6 * np.eye(6)
    h = linalg.random_herm_tuple(3, 5, rng)
    full = h / linalg.eigh(pencil.eval_hom(a, h)).w[-1]
    rep = F.spectrahedrop_membership(a, 2, full[:2])
    assert rep.status == F.MEMBER
    completed = np.concatenate([full[:2], rep.hidden])
    assert linalg.min_eig(pencil.eval_monic(a, completed)) >= -1e-6


def test_drop_membership_tv_outside():
    tv = gallery.tv_lift(1.0)
    ex = gallery.tv_exceptional_point()
    bad = np.stack([1.5 * ex["x"], 1.5 * ex["y"]])
    rep = F.spectrahedrop_membership(tv.pencil, tv.visible_vars, bad)
    assert rep.status != F.MEMBER
