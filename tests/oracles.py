"""Test-only oracles: the gallery's nonlinear models and sampled set checks.

These routines are independent checks, not library verdicts: the dilation
searches are seeded and "not found" is no claim, the lifted-TV classifier
only labels points of one worked family, the closed-form spin and wild disk
tests cover one model each, the boundedness search probes random
directions, and the polar-duality and normal-form checks compare two sets on
random points, which is evidence and never proof (the library certifies the
normal form by unitary equivalence and decides the hull boundary exactly
instead). They live beside the tests that use them; nothing in ``freespec``
calls them.
"""
from dataclasses import dataclass
from typing import Optional

import numpy as np

from freespec import feasibility, linalg, pencil
from freespec.errors import InputError
from freespec.extreme import column_dilation
from freespec.gallery import GalleryEntry, _range_basis, tv_poly, wild_poly
from freespec.linalg import TOL
from freespec.pencil import as_tuple, eval_hom
from freespec.structure import reference_simplex


# ---------------------------------------------------------------------------
# closed-form Arveson tests of the spin and wild disks
# ---------------------------------------------------------------------------

def spin_arveson_expected(x, tol: float = TOL) -> bool:
    """Closed-form Arveson membership for the spin disk.

    A boundary pair is in the Arveson boundary iff it commutes and satisfies
    ``X1^2 + X2^2 = I``.
    """
    x = pencil.as_tuple(x, what="point")
    if x.shape[0] != 2:
        raise InputError("spin disk points have two coordinates")
    x1, x2 = x
    comm = float(np.abs(x1 @ x2 - x2 @ x1).max())
    defect = float(np.abs(np.eye(x1.shape[0]) - x1 @ x1 - x2 @ x2).max())
    return comm <= tol and defect <= tol


@dataclass
class WildArvesonReport:
    arveson: bool
    kernel_dim: int
    injective: bool
    trivial_intersection: bool

    def __bool__(self) -> bool:
        return self.arveson

    def to_json(self) -> dict:
        return {
            "arveson": self.arveson,
            "kernel_dim": self.kernel_dim,
            "injective": self.injective,
            "trivial_intersection": self.trivial_intersection,
        }


def wild_arveson_test(x, y, tol: float = TOL) -> WildArvesonReport:
    """Closed-form Arveson test for the wild disk.

    With ``K = ker(I - X^2 - Y^2)``, the pair is in the Arveson boundary iff
    the compressions of X and Y mapping ``K^perp -> K`` are both injective
    and their ranges intersect trivially.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n = x.shape[0]
    p = wild_poly(x, y)
    if linalg.min_eig(p) < -tol:
        raise InputError("point is outside the wild disk")
    kern = linalg.null_space(p, tol=tol)
    k = kern.shape[1]
    comp = _range_basis(p, tol)  # orthonormal basis of K^perp
    m = comp.shape[1]
    if m == 0:
        # the polynomial vanishes identically: nothing to dilate against
        return WildArvesonReport(True, k, True, True)
    x12 = kern.conj().T @ x @ comp  # (k, m)
    y12 = kern.conj().T @ y @ comp
    def injective(mat):
        s = np.linalg.svd(mat, compute_uv=False)
        cut = tol * max(1.0, s[0] if s.size else 0.0)
        return mat.shape[0] >= mat.shape[1] and (s > cut).sum() == mat.shape[1]
    inj = injective(x12) and injective(y12)
    both = np.hstack([x12, y12])
    s = np.linalg.svd(both, compute_uv=False)
    cut = tol * max(1.0, s[0] if s.size else 0.0)
    trivial = inj and (s > cut).sum() == 2 * m
    return WildArvesonReport(inj and trivial, k, inj, trivial)


# ---------------------------------------------------------------------------
# boundedness (probabilistic, level 1)
# ---------------------------------------------------------------------------

BOUNDED = "bounded"
UNBOUNDED = "unbounded"
INCONCLUSIVE = "inconclusive"


@dataclass
class BoundednessReport:
    """Outcome of the level-1 recession-direction search.

    ``verdict`` is bounded / unbounded / inconclusive; for unbounded, ``witness``
    is a unit vector ``y`` with ``lambda_max(Lam_A(y)) <= tol`` so that the ray
    ``t*y`` stays in the spectrahedron for all ``t >= 0``. Bounded is only
    reported when every probe stayed above a positive margin; the verdict is
    probabilistic and says nothing rigorous about unexplored directions.
    """

    verdict: str
    witness: Optional[np.ndarray]
    margin: float
    probes: int = 0

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "margin": self.margin, "probes": self.probes}
        if self.witness is not None:
            out["witness"] = [float(v) for v in self.witness]
        return out


def _lam_top(a, y):
    return float(linalg.eigh(eval_hom(a, y.reshape(-1, 1, 1)).astype(complex)).w[-1])


def _refine_direction(a, y, steps: int = 60):
    """Subgradient descent for lambda_max(Lam_A(y)) on the unit sphere."""
    g = a.shape[0]
    y = y / np.linalg.norm(y)
    best = _lam_top(a, y)
    step = 0.5
    for _ in range(steps):
        lam = eval_hom(a, y.reshape(-1, 1, 1))
        w, v = linalg.eigh(lam)
        top_vec = v[:, -1]
        grad = np.array([float((top_vec.conj() @ aj @ top_vec).real) for aj in a])
        cand = y - step * grad
        nrm = np.linalg.norm(cand)
        if nrm < 1e-12:
            step /= 2
            continue
        cand = cand / nrm
        val = _lam_top(a, cand)
        if val < best - 1e-14:
            y, best = cand, val
        else:
            step /= 2
            if step < 1e-6:
                break
    return y, best


def bounded(a, trials: int = 32, seed=0, tol: float = TOL) -> BoundednessReport:
    """Search for recession directions of the level-1 spectrahedron.

    Combines an exact lineality check (kernel of ``y -> Lam_A(y)`` via SVD),
    coordinate and random probes, and subgradient refinement of the most
    promising probes. See :class:`BoundednessReport` for the verdict semantics.
    """
    a = as_tuple(a, what="pencil")
    g, d = a.shape[0], a.shape[1]
    rng = linalg.default_rng(seed)

    # exact lineality directions: Lam_A(y) = 0 with y real
    cols = np.stack([np.concatenate([aj.real.ravel(), aj.imag.ravel()]) for aj in a]).T
    lin = linalg.null_space(cols, tol=tol).real
    if lin.shape[1] > 0:
        y = lin[:, 0]
        y = y / np.linalg.norm(y)
        return BoundednessReport(UNBOUNDED, y, margin=0.0)

    probes = []
    for j in range(g):
        e = np.zeros(g)
        e[j] = 1.0
        probes.extend([e, -e])
    for _ in range(max(trials, 4)):
        v = rng.standard_normal(g)
        probes.append(v / np.linalg.norm(v))

    scored = sorted(probes, key=lambda y: _lam_top(a, y / np.linalg.norm(y)))
    best_y, best_val = None, np.inf
    for y in scored[: max(4, trials // 4)]:
        ry, rv = _refine_direction(a, y)
        if rv < best_val:
            best_y, best_val = ry, rv
        if rv <= tol:
            break
    n_probes = len(probes)

    if best_val <= tol:
        return BoundednessReport(UNBOUNDED, best_y, margin=best_val, probes=n_probes)
    # require a clear margin before claiming boundedness
    if best_val > 1e-6:
        return BoundednessReport(BOUNDED, None, margin=best_val, probes=n_probes)
    return BoundednessReport(INCONCLUSIVE, None, margin=best_val, probes=n_probes)


# ---------------------------------------------------------------------------
# vanishing boundary of the nonlinear sets
# ---------------------------------------------------------------------------

def _poly_for(kind: str):
    polys = {"wild": wild_poly, "tv": tv_poly}
    if kind not in polys:
        raise InputError(f"unknown kind {kind!r}; expected one of {sorted(polys)}")
    return polys[kind]


def vanishing_boundary_test(kind: str, x, y, tol: float = TOL) -> bool:
    """True when the defining polynomial vanishes at a point of the set.

    ``kind`` selects the polynomial: ``"wild"`` for ``I - X^2 - Y^2``,
    ``"tv"`` for ``I - X^2 - Y^4``. The vanishing boundary consists of
    points where p(X, Y) is (numerically) the zero matrix; such points
    admit no one-column dilation staying in the positivity set.
    """
    p = _poly_for(kind)(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    w = np.linalg.eigvalsh(p)
    return bool(abs(w).max() <= tol and w[0] >= -tol)


@dataclass
class DilationSearchReport:
    """Outcome of the direct one-column dilation search.

    A found dilation certifies that the pair is not in the Arveson boundary
    of the polynomial's positivity set; not finding one is only evidence.
    Points where the defining polynomial vanishes identically admit no
    nontrivial column dilation at all.
    """

    dilation_found: bool
    witness: Optional[np.ndarray]
    candidates: int

    def to_json(self) -> dict:
        out = {"dilation_found": self.dilation_found, "candidates": self.candidates}
        if self.witness is not None:
            out["witness"] = pencil.tuple_to_json(self.witness)
        return out


def dilation_search(
    kind: str,
    x,
    y,
    trials: int = 24,
    seed=0,
    tol: float = 1e-9,
) -> DilationSearchReport:
    """Search for one-column dilations staying in ``{p(X, Y) >= 0}``.

    ``kind`` selects the polynomial as in :func:`vanishing_boundary_test`.
    Candidate columns are coordinate and random directions, scaled down a
    geometric grid; the dilated pair is accepted when the polynomial stays
    PSD up to ``tol``. The positivity sets here are not spectrahedra, so the
    kernel-based boundary test does not apply and this search is the only
    available route.
    """
    poly = _poly_for(kind)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n = x.shape[0]
    if linalg.min_eig(poly(x, y)) < -TOL:
        raise InputError("point is outside the set")
    rng = linalg.default_rng(seed)

    cands = []
    for j in range(2):
        for i in range(n):
            e = np.zeros((2, n), dtype=complex)
            e[j, i] = 1.0
            cands.append((e, np.zeros(2)))
            e2 = np.zeros((2, n), dtype=complex)
            e2[j, i] = 1j
            cands.append((e2, np.zeros(2)))
    for _ in range(trials):
        v = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        beta = rng.standard_normal(2)
        cands.append((v / np.linalg.norm(v), beta))
        cands.append((v / np.linalg.norm(v), np.zeros(2)))

    # the grid floor keeps t^2 well above tol: at a vanishing point the best
    # achievable min_eig along any nonzero column is ~ -t^2, so letting t
    # shrink below sqrt(tol) would accept every direction vacuously
    for alpha, beta in cands:
        t = 1.0
        for _ in range(10):
            z = column_dilation(np.stack([x, y]), t * alpha, t * beta)
            if linalg.min_eig(poly(z[0], z[1])) >= -tol:
                return DilationSearchReport(True, z, len(cands))
            t *= 0.5
    return DilationSearchReport(False, None, len(cands))


# ---------------------------------------------------------------------------
# lifted TV set
# ---------------------------------------------------------------------------

def tv_hat_from_hidden(entry: GalleryEntry, w) -> np.ndarray:
    """Rescale a hidden completion into hat coordinates: (W + shift I)/scale."""
    w = np.asarray(w, dtype=complex)
    if w.ndim == 3:
        w = w[0]
    shift = entry.aux.get("hidden_shift")
    scale = entry.aux.get("hidden_scale")
    if shift is None or scale is None:
        raise InputError("entry carries no hidden-coordinate rescaling")
    return (w + shift * np.eye(w.shape[0])) / scale


TV_CLASS_NO_GAP = "rank_direction_absent"
TV_CLASS_PROJECTS_INSIDE = "projection_in_set"
TV_CLASS_PROJECTS_OUTSIDE = "projection_exits_set"


@dataclass
class TvHatClassification:
    """Where a boundary point of the lifted TV set sits.

    The lifted (hat) set is ``{(X, Y, W) : I - X^2 - W^2 >= 0, W >= Y^2}``;
    classified points must satisfy ``I - X^2 - W^2 = 0`` with
    ``J = W - Y^2`` PSD of rank at most one — ``in_family`` records whether
    both hold, and when it is false ``label`` is None. The three classes:

    * ``rank_direction_absent``: J = 0, so W = Y^2 is forced.
    * ``projection_in_set``: J is rank one and (X, Y) stays in the projected
      set; such points are not Euclidean extreme in the lifted set.
    * ``projection_exits_set``: J is rank one and ``I - X^2 - Y^4`` is not
      PSD; W is then the unique admissible hidden coordinate, and (X, Y)
      lies in the Arveson boundary of the projection but outside the hull of
      the vanishing pairs of the polynomial.
    """

    in_family: bool
    label: Optional[str]
    j_rank: int
    poly_min_eig: float
    reason: str = ""

    def to_json(self) -> dict:
        return {"in_family": self.in_family, "label": self.label,
                "j_rank": self.j_rank, "poly_min_eig": self.poly_min_eig,
                "reason": self.reason}


def tv_hat_point_class(x, y, w, tol: float = 1e-8) -> TvHatClassification:
    """Classify a vanishing boundary point of the lifted TV set (see above)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    w = np.asarray(w, dtype=complex)
    n = x.shape[0]
    me = float(linalg.min_eig(tv_poly(x, y)))
    defect = float(np.abs(np.eye(n) - x @ x - w @ w).max())
    j = w - y @ y
    wj = linalg.eigh(j).w
    rank = int((np.abs(wj) > tol * max(1.0, float(np.abs(wj).max()))).sum())
    if defect > 100 * tol:
        return TvHatClassification(False, None, rank, me,
                                   f"I - X^2 - W^2 does not vanish (defect {defect:.2e})")
    if wj[0] < -100 * tol:
        return TvHatClassification(False, None, rank, me,
                                   "W - Y^2 is not positive semidefinite")
    if rank > 1:
        return TvHatClassification(False, None, rank, me,
                                   "W - Y^2 has rank > 1; outside the classified family")
    if rank == 0:
        return TvHatClassification(True, TV_CLASS_NO_GAP, 0, me)
    label = TV_CLASS_PROJECTS_INSIDE if me >= -tol else TV_CLASS_PROJECTS_OUTSIDE
    return TvHatClassification(True, label, 1, me)


# ---------------------------------------------------------------------------
# polar duality
# ---------------------------------------------------------------------------

#: random hull members that :func:`polar_dual_check` tests besides ``Omega``
DUAL_BATTERY = 4


@dataclass
class PolarDualReport:
    level: int
    samples: int
    counterexamples: int
    battery_size: int


def polar_dual_check(
    omega,
    level: int = 1,
    samples: int = 100,
    seed=0,
    tol: float = TOL,
) -> PolarDualReport:
    """Sampled two-sided check of hull/spectrahedron polar duality.

    For random tuples ``A`` at the given level, membership of ``A`` in the
    spectrahedron of ``Omega`` must coincide with ``L_A(Y) >= 0`` for every
    battery member ``Y`` of the hull of ``Omega`` (the battery always contains
    ``Omega`` itself plus random isometry compressions of ``I_m ⊗ Omega``).
    """
    omega = pencil.as_tuple(omega, what="generator tuple")
    g, d = omega.shape[0], omega.shape[1]
    rng = linalg.default_rng(seed)
    members = [omega]
    for _ in range(DUAL_BATTERY):
        m = int(rng.integers(1, 3))
        size = int(rng.integers(1, m * d + 1))
        v = linalg.random_isometry(size, m * d, rng)
        big = np.stack([np.kron(np.eye(m), oj) for oj in omega])
        members.append(np.stack([v.conj().T @ bj @ v for bj in big]))

    bad = 0
    radii = [0.5, 1.0, 1.5]
    for i in range(samples):
        h = linalg.random_herm_tuple(g, level, rng)
        hit = pencil.scale_to_boundary(omega, h, tol=tol)
        if hit is None:
            a = h
        else:
            t, _ = hit
            a = radii[i % len(radii)] * t * h
        lhs = linalg.min_eig(pencil.eval_monic(omega, a)) >= -tol
        rhs = all(
            linalg.min_eig(pencil.eval_monic(a, y)) >= -tol for y in members
        )
        if lhs != rhs:
            bad += 1
    return PolarDualReport(level=level, samples=samples, counterexamples=bad,
                           battery_size=len(members))


# ---------------------------------------------------------------------------
# free-simplex normal form
# ---------------------------------------------------------------------------

def normal_form_mismatches(a, amap, samples: int = 50, seed=0, tol: float = TOL):
    """``(checked, mismatches)``: random tuples at levels 1 and 2, at radii 0.6,
    1.0 and 1.4 of the boundary of ``D_A``, where membership in ``D_A`` and
    membership of ``amap(X)`` in the reference simplex disagree. Points within
    ``10 tol`` of either boundary are skipped and not counted as checked.
    """
    a = pencil.as_tuple(a, what="pencil")
    g = a.shape[0]
    target = reference_simplex(g)
    rng = linalg.default_rng(seed)
    checked = mism = 0
    for _ in range(samples):
        n = int(rng.integers(1, 3))
        h = linalg.random_herm_tuple(g, n, rng)
        hit = pencil.scale_to_boundary(a, h, tol=tol)
        for radius in (0.6, 1.0, 1.4):
            x = radius * hit[1] if hit is not None else radius * h
            me_a = linalg.min_eig(pencil.eval_monic(a, x))
            me_t = linalg.min_eig(pencil.eval_monic(target, amap.apply(x)))
            if min(abs(me_a), abs(me_t)) <= 10 * tol:
                continue
            checked += 1
            if (me_a >= 0) != (me_t >= 0):
                mism += 1
    return checked, mism


# ---------------------------------------------------------------------------
# Arveson boundary inside a hull: the random direction search
# ---------------------------------------------------------------------------

#: random directions per seed, and the solver's iteration cap, in
#: :func:`hull_dilation_search`
BOUNDARY_DIRECTIONS = 6
BOUNDARY_MAX_ITER = 4000


def _alpha_directions(g: int, n: int, extra: int, rng):
    """Coordinate (real and imaginary) plus random unit directions in (C^n)^g."""
    dirs = []
    for j in range(g):
        for i in range(n):
            e = np.zeros((g, n), dtype=complex)
            e[j, i] = 1.0
            dirs.append(e)
            e2 = np.zeros((g, n), dtype=complex)
            e2[j, i] = 1j
            dirs.append(e2)
    for _ in range(extra):
        v = rng.standard_normal((g, n)) + 1j * rng.standard_normal((g, n))
        dirs.append(v / np.linalg.norm(v))
    return dirs


def _corner_rows(omega: np.ndarray, targets):
    """Choi rows of ``Phi(Omega_j)[:n, :n] = targets[j]`` for a map into level
    ``n + 1``: the matching rows with ``herm_basis(n)`` padded by a zero row
    and column."""
    n = targets[0].shape[0]
    basis = linalg.herm_basis(n)
    padded = np.zeros((basis.shape[0], n + 1, n + 1), dtype=complex)
    padded[:, :n, :n] = basis
    rows = linalg.herm_to_vec(feasibility._kron_pairs(np.transpose(omega, (0, 2, 1)), padded))
    rhs = np.trace(basis[None] @ np.asarray(targets)[:, None], axis1=2, axis2=3).real
    return rows, rhs.ravel()


def _column_row(omega: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Choi row of ``Re<alpha, c>`` for a map into level ``n + 1``.

    ``alpha_j`` is the last column of ``Phi(Omega_j)`` above the corner, so
    ``Re<alpha_j, c_j> = tr(S_j Phi(Omega_j))`` with ``S_j = (c_j e* + e
    c_j*) / 2``, and the row is that of ``sum_j kron(Omega_j^T, S_j)``.
    """
    g, n = c.shape
    d = omega.shape[1]
    e_last = np.zeros(n + 1)
    e_last[n] = 1.0
    cvec = np.zeros((g, n + 1), dtype=complex)
    cvec[:, :n] = c
    s = 0.5 * (cvec[:, :, None] * e_last[None, None, :]
               + e_last[None, :, None] * cvec.conj()[:, None, :])
    terms = np.transpose(omega, (0, 2, 1))[:, :, None, :, None] * s[:, None, :, None, :]
    mat = terms.sum(axis=0).reshape(d * (n + 1), d * (n + 1))
    return linalg.herm_to_vec(linalg.hermitian_part(mat))


def hull_dilation_search(
    omega,
    x,
    seed=0,
    tol: float = TOL,
    delta: float = 1e-2,
) -> feasibility.HullBoundaryReport:
    """Column-dilation search for the Arveson boundary of ``mco({Omega})``.

    For each normalized direction ``c`` the Choi problem for the dilated
    target ``[[X, alpha], [alpha*, beta]]`` is solved jointly in the Choi
    matrix with the off-diagonal column and corner left free except for the
    normalization ``Re<c, alpha> = delta``. A feasible solve is verified by
    an independent hull-membership run on the dilated tuple; if every
    direction fails under two seeds, the point is reported as boundary,
    which is evidence, not proof.
    """
    omega = pencil.as_tuple(omega, what="generator tuple")
    x = pencil.as_tuple(x, what="point")
    base_rep = feasibility.hull_membership(omega, x, tol=tol)
    if base_rep.status == feasibility.NOT_MEMBER:
        raise InputError("point is not in the hull; Arveson test needs a member")
    g, n = x.shape[0], x.shape[1]
    d = omega.shape[1]

    # constraints shared by every direction: unitality + matching on the
    # top-left n x n corner of the dilated (n+1)-level target
    rows, rhs = feasibility._unitality_rows(d, n + 1)
    mrows, mrhs = _corner_rows(omega, list(x))
    rows = np.vstack([rows, mrows])
    rhs = np.concatenate([rhs, mrhs, [delta]])

    tried = 0
    for attempt_seed in (seed, None if seed is None else seed + 104729):
        rng = linalg.default_rng(attempt_seed)
        for c in _alpha_directions(g, n, BOUNDARY_DIRECTIONS, rng):
            tried += 1
            problem = feasibility.FeasibilityProblem(
                dim=d * (n + 1),
                base=np.zeros((d * (n + 1), d * (n + 1)), dtype=complex),
                generators=None,
                extra=np.vstack([rows, _column_row(omega, c)]),
                extra_rhs=rhs,
            )
            res = feasibility.solve_affine_psd(problem, max_iter=BOUNDARY_MAX_ITER)
            if not res.feasible:
                continue
            dilated = np.stack(
                [linalg.hermitian_part(feasibility.apply_choi(res.z, oj, d, n + 1))
                 for oj in omega]
            )
            alpha = dilated[:, :n, n]
            beta = dilated[:, n, n].real
            if np.linalg.norm(alpha) < 0.25 * delta:
                continue
            check = feasibility.hull_membership(omega, dilated, tol=tol)
            if check.status == feasibility.MEMBER:
                return feasibility.HullBoundaryReport(feasibility.NOT_BOUNDARY, alpha, beta,
                                                      dilated, tried)
    return feasibility.HullBoundaryReport(feasibility.BOUNDARY, None, None, None, tried)
