"""Affine-PSD feasibility problems and the convex machinery built on them.

The workhorse is :func:`solve_affine_psd`, alternating projections with
Dykstra's correction between an affine set and the PSD cone. The affine set
is held as one frame of Frobenius-orthonormal Hermitian matrices (the
constraint rows in Choi form, the free directions in generator form), so the
iteration runs on the Hermitian matrix ``Z`` alone, with no change of
coordinates, and the parameters ``s`` are recovered once at the end. On top
of it:

* :func:`hull_membership` — is ``X`` in the matrix convex hull of a single
  tuple ``Omega``? Decided through a unital completely positive map
  ``Omega_j -> X_j`` encoded as a Choi-matrix feasibility problem.
* :func:`inclusion` — spectrahedron inclusion ``D_B ⊆ D_A`` (Choi certificate
  for inclusion, sampled counterexamples for exclusion).
* :func:`arveson_in_hull` — the Arveson boundary of a finitely generated
  hull, decided exactly: a one-column dilation read off the membership
  certificate, or a match of every irreducible summand with an atom of
  ``Omega``.
* :func:`spectrahedrop_membership` — membership in a projection of a
  spectrahedron (hidden-variable completion).

``no_certificate`` outcomes are exactly that: the solver gave up. They are
never reported as proofs. A Choi-form solve that finds a Farkas certificate
returns ``infeasible`` with its row multipliers, and :func:`hull_membership`
turns those into a separating pencil that a reader re-checks with
``np.kron`` and ``eigvalsh``. Nothing here draws random points to check its
own answer; the sampled polar-duality check is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg, pencil
from .errors import InputError, NumericalError
from .linalg import TOL

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
NO_CERTIFICATE = "no_certificate"

MEMBER = "member"
NOT_MEMBER = "not_member"

INCLUDED = "included"
NOT_INCLUDED = "not_included"

BOUNDARY = "boundary"
NOT_BOUNDARY = "not_boundary"

#: default residual target for feasibility claims
FEAS_TOL = 1e-6


@dataclass
class FeasibilityProblem:
    """Find a PSD matrix inside an affine family.

    The unknown is ``Z = base + sum_i s_i * generators[i]`` subject to the
    affine equalities ``extra @ s = extra_rhs`` and ``Z >= 0``. Generators may
    be any Hermitian matrices (zero generators give free scalar unknowns that
    only enter through ``extra``); without ``extra`` there are no equalities.

    As a special case ``generators=None`` parameterizes the full Hermitian
    space (Choi form): ``s`` is then the realified coordinate vector of
    ``Z - base`` (see :func:`linalg.herm_to_vec`) and ``extra`` acts on those
    coordinates. Either way the solver works on the matrix ``Z`` alone and
    recovers ``s`` at the end (see :func:`solve_affine_psd`).
    """

    dim: int
    base: np.ndarray
    generators: Optional[np.ndarray] = None
    extra: Optional[np.ndarray] = None
    extra_rhs: Optional[np.ndarray] = None

    def __post_init__(self):
        self.base = linalg.check_hermitian(self.base, what="base")
        if self.base.shape[0] != self.dim:
            raise InputError("base has wrong dimension")
        if self.generators is not None:
            gens = np.asarray(self.generators, dtype=complex)
            if gens.ndim == 2:
                gens = gens[None]
            if gens.shape[1:] != (self.dim, self.dim):
                raise InputError("generators have wrong dimension")
            self.generators = gens
        if (self.extra is None) != (self.extra_rhs is None):
            raise InputError("extra and extra_rhs must be given together")
        width = self.dim ** 2 if self.generators is None else self.generators.shape[0]
        if self.extra is None:
            self.extra, self.extra_rhs = np.zeros((0, width)), np.zeros(0)
        self.extra = np.atleast_2d(np.asarray(self.extra, dtype=float))
        self.extra_rhs = np.atleast_1d(np.asarray(self.extra_rhs, dtype=float))
        if self.extra.shape[0] != self.extra_rhs.shape[0]:
            raise InputError("extra rows and rhs length differ")
        if self.extra.shape[1] != width:
            raise InputError(
                f"extra rows have width {self.extra.shape[1]}, expected {width}"
            )


@dataclass
class FeasibilityResult:
    """Outcome of :func:`solve_affine_psd`.

    ``residual`` is ``max(affine defect, |most negative eigenvalue|)`` of the
    returned ``(z, s)``, the affine defect measured against the problem's own
    ``base``, ``generators``, ``extra`` and ``extra_rhs``. ``status`` is
    feasible, no_certificate, or (Choi form only) infeasible, a proof that
    no PSD ``Z`` satisfies the rows. An infeasible result carries the row
    multipliers ``mu``: the rows ``E_i`` of ``extra``, taken as Hermitian
    matrices, give ``W = sum_i mu_i E_i``, with ``<W, Z> = <W, base> + mu @
    extra_rhs`` on the whole affine set (see :meth:`_AffineFrame.farkas`).
    """

    status: str
    z: np.ndarray
    s: np.ndarray
    residual: float
    iterations: int
    multipliers: Optional[np.ndarray] = None

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def _svd(a, full: bool = False):
    """SVD with the numerical rank under the cutoff ``1e-12 * max(1, s_max)``."""
    try:
        u, sig, vh = np.linalg.svd(a, full_matrices=full)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"svd did not converge: {exc}") from exc
    rank = int(np.sum(sig > 1e-12 * max(1.0, sig[0] if sig.size else 0.0)))
    return u, sig, vh, rank


@dataclass
class _AffineFrame:
    """The affine set ``{base + G s : E s = r}`` as Hermitian ``d x d`` matrices.

    ``z0`` is a point of the set (``G`` the identity in Choi form) and
    ``basis`` is a ``(k, d, d)`` stack of Frobenius-orthonormal Hermitian
    matrices: in Choi form they are the rows of ``E``, and the set is
    ``{Z : <B_k, Z - z0> = 0}``; in generator form they span ``G null(E)``,
    and the set is ``z0 + span(basis)``, with ``to_s`` mapping coordinates
    along ``basis`` back to ``s``. ``flat`` is the real view of ``basis``
    (real and imaginary parts interleaved), so one real product gives every
    ``<B_k, Z>``. In Choi form ``to_mu`` maps coordinates along ``basis`` to
    multipliers of the rows of ``E``, and ``pinned`` says whether ``I`` lies
    in the row span, so that ``tr Z = tr z0`` on the whole set.
    """

    z0: np.ndarray
    basis: np.ndarray
    s0: np.ndarray
    to_s: Optional[np.ndarray]
    consistent: bool
    to_mu: Optional[np.ndarray] = None
    flat: np.ndarray = field(init=False, repr=False)
    pinned: bool = field(init=False, default=False)

    def __post_init__(self):
        k, d = self.basis.shape[0], self.z0.shape[0]
        self.flat = self.basis.reshape(k, d * d).view(float)
        if self.to_mu is not None:
            eye = np.eye(d, dtype=complex)
            t = self.flat @ eye.reshape(-1).view(float)
            off = eye - (t @ self.flat).view(complex).reshape(d, d)
            self.pinned = float(np.linalg.norm(off)) <= 1e-9 * np.sqrt(d)

    def coords(self, z: np.ndarray) -> np.ndarray:
        """``<B_k, Z - z0>`` for every basis matrix."""
        return self.flat @ (z - self.z0).reshape(-1).view(float)

    def project(self, z: np.ndarray) -> np.ndarray:
        step = (self.coords(z) @ self.flat).view(complex).reshape(z.shape)
        if self.to_s is None:
            return z - step
        return self.z0 + step

    def s_of(self, z: np.ndarray) -> np.ndarray:
        """The ``s`` of a point ``Z`` of the set."""
        if self.to_s is None:
            return self.s0 + linalg.herm_to_vec(z - self.z0)
        return self.s0 + self.to_s @ self.coords(z)

    def farkas(self, y: np.ndarray) -> Optional[np.ndarray]:
        """Row multipliers proving that the set holds no PSD matrix, or None.

        ``W = y - project(y) = sum_k c_k B_k`` lies in the row span, so
        ``<W, Z> = <W, z0>`` on the whole set, and with the trace pinned
        ``tr Z = tr z0``. ``W + eps I`` with ``eps = max(0, -lambda_min(W))``
        is PSD, so a PSD ``Z`` of the set would give ``<W, z0> + eps tr z0 >=
        0``. A value below ``-1e-9 ||W||_F max(1, tr z0)`` (room for the
        rounding of both terms) proves that none exists. Only valid when
        ``pinned``.
        """
        c = self.coords(y)
        w = (c @ self.flat).view(complex).reshape(y.shape)
        trace = float(np.trace(self.z0).real)
        eps = max(0.0, -linalg.min_eig(w))
        value = float(w.reshape(-1).view(float) @ self.z0.reshape(-1).view(float)) + eps * trace
        if value < -1e-9 * float(np.linalg.norm(c)) * max(1.0, trace):
            return self.to_mu @ c
        return None


def _affine_frame(problem: FeasibilityProblem, gvec: Optional[np.ndarray]) -> _AffineFrame:
    """Point and orthonormal basis of the problem's affine set (thin SVDs).

    One SVD of ``E`` gives the min-norm ``s0`` with ``E s0 = r`` and the
    consistency check; in generator form a second one, of ``G null(E)``,
    gives the free directions. The SVDs run in realified coordinates, and
    their results are turned into matrices once.
    """
    d = problem.dim
    rows, rhs = problem.extra, problem.extra_rhs
    u, sig, vh, k = _svd(rows, full=gvec is not None)
    s0 = vh[:k].T @ ((u[:, :k].T @ rhs) / sig[:k])
    gap = float(np.abs(rows @ s0 - rhs).max(initial=0.0))
    consistent = gap <= 1e-9 * max(1.0, float(np.abs(rhs).max(initial=0.0)))
    if gvec is None:
        return _AffineFrame(problem.base + linalg.vec_to_herm(s0, d),
                            linalg.vec_to_herm(vh[:k], d), s0, None, consistent,
                            to_mu=u[:, :k] / sig[:k])
    null = vh[k:].T
    u2, sig2, vh2, k2 = _svd(gvec @ null)
    to_s = null @ (vh2[:k2].T / sig2[:k2])
    return _AffineFrame(problem.base + linalg.vec_to_herm(gvec @ s0, d),
                        linalg.vec_to_herm(u2[:, :k2].T, d), s0, to_s, consistent)


def _residual(problem: FeasibilityProblem, gvec, zmat: np.ndarray, s: np.ndarray) -> float:
    """``max(PSD defect, affine defect)`` of ``(Z, s)`` against the problem."""
    neg = max(0.0, -linalg.min_eig(zmat))
    lin = s if gvec is None else gvec @ s
    offset = linalg.herm_to_vec(zmat - problem.base) - lin
    gap = max(float(np.abs(offset).max(initial=0.0)),
              float(np.abs(problem.extra @ s - problem.extra_rhs).max(initial=0.0)))
    return float(max(neg, gap))


def _bottom_block(zmat: np.ndarray, q: int):
    """Realified bottom-q eigenblock of a Hermitian matrix and its frame."""
    w, vecs = linalg.eigh(zmat)
    frame = vecs[:, :q]
    return linalg.herm_to_vec(frame.conj().T @ zmat @ frame), frame


def _gn_stage(zmat, y, dirs, q, max_rounds):
    """Drive the bottom-q eigenblock towards zero by damped Gauss-Newton."""
    z_cur, y_cur = zmat, y
    f_vec, frame = _bottom_block(z_cur, q)
    f_norm = float(np.linalg.norm(f_vec))
    for _ in range(max_rounds):
        if f_norm <= 1e-15:
            break
        blocks = np.einsum("ra,fab,bs->frs", frame.conj().T, dirs, frame)
        m = linalg.herm_to_vec(blocks).T
        step, *_ = np.linalg.lstsq(m, -f_vec, rcond=None)
        accepted = False
        for damp in (1.0, 0.5, 0.25, 0.1, 0.03):
            z_new = z_cur + np.tensordot(damp * step, dirs, axes=(0, 0))
            f_new, frame_new = _bottom_block(z_new, q)
            norm_new = float(np.linalg.norm(f_new))
            if norm_new < f_norm * (1.0 - 0.05 * damp):
                z_cur = z_new
                y_cur = y_cur + damp * step
                f_vec, frame, f_norm = f_new, frame_new, norm_new
                accepted = True
                break
        if not accepted:
            break
    return z_cur, y_cur


def _eigenblock_polish(zmat, dirs, tol, max_rounds=120, passes=3):
    """Local refinement of an affine-exact iterate against the PSD cone.

    Alternating projections slow to a crawl whenever the feasible set touches
    the cone without interior — exactly the situation for boundary
    certificates and unique completions. There the solution has a null block
    of some size q, so we cascade damped Gauss-Newton runs that zero the
    bottom-q eigenblock for q = 1, 2, ... and keep whatever strictly improves
    the true residual. Every candidate is measured honestly, so the polish
    can never turn an infeasible problem into a certificate.
    """
    dim = zmat.shape[0]
    nfree = dirs.shape[0]
    scale = max(1.0, float(np.abs(linalg.eigh(zmat).w).max(initial=0.0)))
    best_z, best_y = zmat, np.zeros(nfree)
    best_r = float(max(0.0, -linalg.min_eig(zmat)))
    target = 1e-4 * tol
    for _ in range(passes):
        improved = False
        w = linalg.eigh(best_z).w
        q_max = int(np.searchsorted(w, 0.3 * scale))
        q_max = max(1, min(q_max, dim - 1, 8))
        z_cur, y_cur = best_z, best_y
        for q in range(1, q_max + 1):
            z_cur, y_cur = _gn_stage(z_cur, y_cur, dirs, q, max_rounds)
            r = float(max(0.0, -linalg.min_eig(z_cur)))
            if r < best_r:
                best_z, best_y, best_r = z_cur, y_cur, r
                improved = True
            else:
                z_cur, y_cur = best_z, best_y
            if best_r <= target:
                return best_z, best_y, best_r
        if not improved:
            break
    return best_z, best_y, best_r


def solve_affine_psd(
    problem: FeasibilityProblem,
    max_iter: int = 5000,
    tol: float = FEAS_TOL,
    stall_window: int = 400,
) -> FeasibilityResult:
    """Alternating projections with Dykstra correction on the PSD side.

    Both problem forms iterate on the Hermitian matrix ``Z`` alone, between
    the PSD cone and one affine frame of Hermitian matrices
    (:class:`_AffineFrame`) built once per solve, so no iteration converts
    between realified vectors and matrices; ``s`` is read off the final
    iterate through the frame. The stopping gap is ``max |herm_to_vec(Y -
    U)|`` of the two projections, read off the matrix entries. The reported
    residual is ``max(affine defect, |min negative eigenvalue|)`` of the
    returned ``(z, s)``; ``feasible`` means it is at most ``tol``. To keep
    convergence linear when the exact feasible set has empty interior, the
    cone is widened to ``Z >= -(tol/2) I`` — any point of the widened set
    still satisfies the residual contract. Iteration stops at ``max_iter`` or
    when a whole ``stall_window`` of iterations did not halve the best gap.
    An empty affine set returns ``no_certificate`` at once (residual ``inf``).

    In Choi form with the trace pinned by the rows, the gap ``y - u`` of
    iterations 1, 2, 4, 8, ... and of the last one (unless it converged) is
    tested as a Farkas certificate (:meth:`_AffineFrame.farkas`); the first
    that passes returns ``infeasible`` with its row multipliers, unpolished.
    """
    d = problem.dim
    gvec = None if problem.generators is None else linalg.herm_to_vec(problem.generators).T
    frame = _affine_frame(problem, gvec)
    if not frame.consistent:
        return FeasibilityResult(NO_CERTIFICATE, frame.z0, frame.s0,
                                 residual=np.inf, iterations=0)

    floor = -0.5 * tol
    u = frame.project(np.zeros((d, d), dtype=complex))
    corr = np.zeros((d, d), dtype=complex)
    best, best_u = np.inf, u
    checkpoint = np.inf
    it = checked = 0
    mu = None
    for it in range(1, max_iter + 1):
        # projection onto Z >= floor * I with Dykstra correction
        v = u + corr
        w, vecs = linalg.eigh(v)
        zclip = (vecs * np.maximum(w, floor)) @ vecs.conj().T
        y = linalg.hermitian_part(zclip)
        corr = v - y
        # affine projection; the y-u gap bounds both constraint violations
        u = frame.project(y)
        gap = linalg.herm_abs_max(y - u)
        if gap < best:
            best, best_u = gap, u
        if best <= 0.25 * tol:
            break
        if frame.pinned and it & (it - 1) == 0:  # iterations 1, 2, 4, 8, ...
            checked, mu = it, frame.farkas(y)
            if mu is not None:
                break
        if it % stall_window == 0:
            # give up when a whole window brought no real progress
            if best > 0.5 * checkpoint:
                break
            checkpoint = best
    if frame.pinned and mu is None and checked < it and best > 0.25 * tol:
        mu = frame.farkas(y)

    zmat = best_u
    s = frame.s_of(zmat)
    residual = _residual(problem, gvec, zmat, s)
    if mu is not None:
        return FeasibilityResult(INFEASIBLE, zmat, s, residual=residual, iterations=it,
                                 multipliers=mu)
    if residual > 0.25 * tol:
        # boundary-touching solutions defeat plain alternating projections;
        # finish with Gauss-Newton steps that stay inside the affine set
        if gvec is None:
            to_s = linalg.null_space(problem.extra).real
            dirs = linalg.vec_to_herm(to_s.T, d)
        else:
            dirs, to_s = frame.basis, frame.to_s
        if dirs.shape[0]:
            z_new, y_new, _ = _eigenblock_polish(zmat, dirs, tol)
            s_new = s + to_s @ y_new
            r_new = _residual(problem, gvec, z_new, s_new)
            if r_new < residual:
                zmat, s, residual = z_new, s_new, r_new
    status = FEASIBLE if residual <= tol else NO_CERTIFICATE
    return FeasibilityResult(status, zmat, s, residual=residual, iterations=it)


# ---------------------------------------------------------------------------
# Choi-matrix problems (unital completely positive interpolation)
# ---------------------------------------------------------------------------

def _kron_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Stack of ``kron(left[i], right[k])`` over all pairs, ``i`` major."""
    dl, dr = left.shape[-1], right.shape[-1]
    prod = left[:, None, :, None, :, None] * right[None, :, None, :, None, :]
    return prod.reshape(-1, dl * dr, dl * dr)


def _unitality_rows(d: int, n: int):
    """Rows enforcing sum_k C[k-block, k-block] = I_n on the Choi matrix."""
    basis = linalg.herm_basis(n)
    rows = linalg.herm_to_vec(_kron_pairs(np.eye(d)[None], basis))
    return rows, np.trace(basis, axis1=1, axis2=2).real


def _matching_rows(omega: np.ndarray, targets):
    """Rows enforcing Phi(Omega_j) = targets[j] on the Choi matrix."""
    basis = linalg.herm_basis(targets[0].shape[0])
    rows = linalg.herm_to_vec(_kron_pairs(np.transpose(omega, (0, 2, 1)), basis))
    rhs = np.trace(basis[None] @ np.asarray(targets)[:, None], axis1=2, axis2=3).real
    return rows, rhs.ravel()


def apply_choi(choi: np.ndarray, t: np.ndarray, d: int, n: int) -> np.ndarray:
    """Apply the map encoded by a Choi matrix to ``t`` (a d x d matrix)."""
    c4 = choi.reshape(d, n, d, n)
    return np.einsum("kl,krls->rs", t, c4)


@dataclass
class ChoiCertificate:
    """A unital completely positive map certifying hull membership.

    ``choi`` is the PSD Choi matrix, ``isometry`` the Stinespring isometry
    ``V`` with ``X_j ≈ V* (I_m ⊗ Omega_j) V`` (kron-rank ``m`` Kraus pieces),
    and ``residual`` the worst entry of any defect: matching, unitality and
    positivity of the Choi matrix, and ``V* (I_m ⊗ Omega_j) V - X_j`` and
    ``V* V - I`` of the isometry, whose eigenvalue cut can lose what the Choi
    matrix keeps.
    """

    choi: np.ndarray
    isometry: np.ndarray
    kraus_rank: int
    residual: float

    def to_json(self) -> dict:
        return {"kraus_rank": self.kraus_rank, "residual": self.residual}


def _stinespring(choi: np.ndarray, d: int, n: int, tol: float = 1e-9):
    """Extract Kraus pieces / isometry from a (nearly) PSD Choi matrix."""
    w, v = linalg.eigh(choi)
    cut = tol * max(1.0, float(w[-1]) if w.size else 0.0)
    keep = w > cut
    kraus = []
    for lam, vec in zip(w[keep], v[:, keep].T):
        kraus.append(np.sqrt(lam) * vec.reshape(d, n).conj())
    if not kraus:
        kraus = [np.zeros((d, n), dtype=complex)]
    vstack = np.vstack(kraus)
    return vstack, len(kraus)


def _compress(omega: np.ndarray, iso: np.ndarray) -> np.ndarray:
    """``W* (I_m ⊗ Omega_j) W`` for every ``j``, with ``W`` stacked from
    ``m`` blocks of ``d`` rows (the layout of :func:`_stinespring`)."""
    d = omega.shape[1]
    k = iso.reshape(-1, d, iso.shape[1])
    return np.einsum("mai,jab,mbk->jik", k.conj(), omega, k)


@dataclass
class SeparatingPencil:
    """A pencil ``(H_0; H_1, ..., H_g)`` separating ``X`` from ``mco({Omega})``.

    ``S = I_d ⊗ H_0 + sum_j Omega_j^T ⊗ H_j`` is PSD, while ``value = tr H_0
    + sum_j tr(H_j X_j)`` is negative. Since ``<Omega_j^T ⊗ H, C> = tr(H
    Phi(Omega_j))`` for the Choi matrix ``C`` of a map ``Phi``, a unital
    completely positive map with ``Phi(Omega_j) = X_j`` would make ``<S, C>``
    both ``>= 0`` and equal to ``value``.
    """

    h: np.ndarray
    value: float

    def to_json(self) -> dict:
        return {"h": pencil.tuple_to_json(self.h), "value": self.value}


@dataclass
class HullMembershipReport:
    status: str
    certificate: Optional[ChoiCertificate]
    min_eig: float
    residual: float
    separator: Optional[SeparatingPencil] = None

    @property
    def is_member(self) -> bool:
        return self.status == MEMBER

    def to_json(self) -> dict:
        out = {"status": self.status, "min_eig": self.min_eig, "residual": self.residual}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.separator is not None:
            out["separator"] = self.separator.to_json()
        return out


def _separating_pencil(omega: np.ndarray, x: np.ndarray, mu: np.ndarray) -> SeparatingPencil:
    """The separator of a Farkas certificate of :func:`choi_problem`.

    ``mu`` splits into the unitality block and one matching block per
    variable, each over ``herm_basis(n)``, so ``W = I_d ⊗ H_0 + sum_j
    Omega_j^T ⊗ H_j`` and ``mu @ rhs = tr H_0 + sum_j tr(H_j X_j)``. Half of
    the certificate's slack is folded into ``H_0`` as a shift, so that ``S``
    is PSD with room to spare and the value stays negative; the pair is
    checked once more as a reader would, and a failure raises
    ``NumericalError``.
    """
    g, d, n = omega.shape[0], omega.shape[1], x.shape[1]
    h = np.tensordot(mu.reshape(g + 1, n * n), linalg.herm_basis(n), axes=1)
    left = np.concatenate([np.eye(d, dtype=complex)[None], np.transpose(omega, (0, 2, 1))])

    def check(h):
        value = float(np.trace(h[0]).real + np.einsum("jab,jba->", h[1:], x).real)
        return linalg.min_eig(pencil.eval_hom(left, h)), value

    lam, value = check(h)
    slack = -(value + max(0.0, -lam) * n)
    h[0] += (max(0.0, -lam) + 0.5 * slack / n) * np.eye(n)
    lam, value = check(h)
    if lam < 0 or value >= 0:
        raise NumericalError(
            f"separating pencil fails its check (min_eig {lam:.3e}, value {value:.3e})")
    return SeparatingPencil(h, value)


def choi_problem(omega, targets) -> FeasibilityProblem:
    """Build the Choi feasibility problem for a UCP map Omega_j -> targets[j].

    ``targets`` must be Hermitian of a common size n.
    """
    omega = pencil.as_tuple(omega, what="generator tuple")
    targets = [linalg.check_hermitian(t, what="target") for t in targets]
    d = omega.shape[1]
    n = targets[0].shape[0]
    rows, rhs = _unitality_rows(d, n)
    mrows, mrhs = _matching_rows(omega, targets)
    return FeasibilityProblem(
        dim=d * n,
        base=np.zeros((d * n, d * n), dtype=complex),
        generators=None,
        extra=np.vstack([rows, mrows]),
        extra_rhs=np.concatenate([rhs, mrhs]),
    )


def hull_membership(omega, x, tol: float = TOL) -> HullMembershipReport:
    """Decide membership of ``X`` in the matrix convex hull of ``Omega``.

    Membership is equivalent to the existence of a unital completely positive
    map with ``Omega_j -> X_j``; that is a Choi-matrix feasibility problem.
    When ``Omega`` lies in its own spectrahedron, ``min_eig(L_Omega(X)) < -tol``
    is a sound fast rejection (the hull lies inside the spectrahedron). When
    the solver proves the Choi problem infeasible, ``not_member`` carries a
    :class:`SeparatingPencil`.
    """
    omega = pencil.as_tuple(omega, what="generator tuple")
    x = pencil.as_tuple(x, what="point")
    d, n = omega.shape[1], x.shape[1]
    me = linalg.min_eig(pencil.eval_monic(omega, x))
    omega_self = linalg.min_eig(pencil.eval_monic(omega, omega)) >= -tol
    if omega_self and me < -tol:
        return HullMembershipReport(NOT_MEMBER, None, min_eig=me, residual=np.inf)

    problem = choi_problem(omega, list(x))
    res = solve_affine_psd(problem)
    if res.status == INFEASIBLE:
        return HullMembershipReport(NOT_MEMBER, None, min_eig=me, residual=res.residual,
                                    separator=_separating_pencil(omega, x, res.multipliers))
    if not res.feasible:
        return HullMembershipReport(NO_CERTIFICATE, None, min_eig=me, residual=res.residual)
    choi = res.z
    iso, rank = _stinespring(choi, d, n)
    # worst defect of the recovered certificate
    defects = [float(np.abs(apply_choi(choi, oj, d, n) - xj).max()) for oj, xj in zip(omega, x)]
    defects.append(float(np.abs(apply_choi(choi, np.eye(d), d, n) - np.eye(n)).max()))
    defects.append(res.residual)
    defects.append(float(np.abs(_compress(omega, iso) - x).max()))
    defects.append(float(np.abs(iso.conj().T @ iso - np.eye(n)).max()))
    cert = ChoiCertificate(choi=choi, isometry=iso, kraus_rank=rank,
                           residual=float(max(defects)))
    return HullMembershipReport(MEMBER, cert, min_eig=me, residual=cert.residual)


# ---------------------------------------------------------------------------
# spectrahedron inclusion
# ---------------------------------------------------------------------------

@dataclass
class InclusionReport:
    status: str
    witness: Optional[np.ndarray]
    certificate: Optional[ChoiCertificate]
    checked_samples: int

    def to_json(self) -> dict:
        out = {"status": self.status, "checked_samples": self.checked_samples}
        if self.witness is not None:
            out["witness"] = pencil.tuple_to_json(self.witness)
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def inclusion(
    b,
    a,
    level_cap: int = 2,
    samples: int = 40,
    seed=0,
    tol: float = TOL,
) -> InclusionReport:
    """Decide whether the spectrahedron of ``B`` sits inside that of ``A``.

    Sampled boundary points of ``D_B`` at levels up to ``level_cap`` give sound
    ``not_included`` witnesses; the Choi problem ``B_j -> A_j`` gives a sound
    ``included`` certificate (complete when ``D_B`` is bounded). Otherwise
    ``no_certificate``.
    """
    b = pencil.as_tuple(b, what="inner pencil")
    a = pencil.as_tuple(a, what="outer pencil")
    if b.shape[0] != a.shape[0]:
        raise InputError("inclusion needs pencils in the same number of variables")
    if level_cap < 1:
        raise InputError(f"level cap must be at least 1, got {level_cap}")
    if samples < 0:
        raise InputError(f"sample count must be non-negative, got {samples}")
    rng = linalg.default_rng(seed)
    g = b.shape[0]
    checked = 0
    for _ in range(samples):
        n = int(rng.integers(1, level_cap + 1))
        h = linalg.random_herm_tuple(g, n, rng)
        hit = pencil.scale_to_boundary(b, h, tol=tol)
        if hit is None:
            continue
        _, x = hit
        checked += 1
        if linalg.min_eig(pencil.eval_monic(a, x)) < -max(tol, 1e-9):
            return InclusionReport(NOT_INCLUDED, x, None, checked)
    rep = hull_membership(b, a, tol=tol)
    if rep.status == MEMBER:
        return InclusionReport(INCLUDED, None, rep.certificate, checked)
    return InclusionReport(NO_CERTIFICATE, None, None, checked)


# ---------------------------------------------------------------------------
# Arveson boundary inside a hull (exact)
# ---------------------------------------------------------------------------

@dataclass
class HullBoundaryReport:
    """Outcome of :func:`arveson_in_hull`, with the evidence for it.

    ``not_boundary``: the isometry ``W = [V u]`` gives ``dilated = W* (I_m ⊗
    generator_j) W``, whose corner is ``X``, whose column ``alpha`` is
    nonzero and whose last diagonal entry is ``beta``. ``generator`` is
    ``Omega``, or the pruned tuple of :func:`structure.minimal_defining`,
    whose hull is the same. ``boundary``: ``unitary* X_j unitary = atoms_j``,
    a direct sum of atoms of ``Omega``. ``directions_tried`` counts the
    dilations built (0 to 2).
    """

    status: str
    alpha: Optional[np.ndarray]
    beta: Optional[np.ndarray]
    dilated: Optional[np.ndarray]
    directions_tried: int
    isometry: Optional[np.ndarray] = None
    generator: Optional[np.ndarray] = None
    unitary: Optional[np.ndarray] = None
    atoms: Optional[np.ndarray] = None

    @property
    def is_boundary(self) -> bool:
        return self.status == BOUNDARY

    def to_json(self) -> dict:
        out = {"status": self.status, "directions_tried": self.directions_tried}
        if self.dilated is not None:
            out["dilated"] = pencil.tuple_to_json(self.dilated)
        return out


def _certificate_dilation(omega, x, iso, delta, built) -> Optional[HullBoundaryReport]:
    """The one-column dilation of a membership certificate, or None when it
    is too small to prove anything.

    With ``X = V* (I_m ⊗ Omega) V``, ``M = (I - V V*) [(I_m ⊗ Omega_j) V]_j``
    is zero exactly when the range of ``V`` reduces ``I_m ⊗ Omega``. Its top
    left singular vector ``u`` gives the isometry ``W = [V u]`` and the
    column ``alpha_j = V* (I_m ⊗ Omega_j) u``, with ``||alpha|| = ||M||``. The
    dilation counts when ``||alpha|| >= delta / 4`` and ``sqrt(defect) <= 1e-3
    ||alpha||``, ``defect`` being the worst entry of ``W* W - I`` and of the
    corner minus ``X``: a column no larger than what the defects could fake
    proves nothing.
    """
    g, d, n = omega.shape[0], omega.shape[1], x.shape[1]
    k = iso.reshape(-1, d, n)
    moved = np.einsum("jab,mbk->jmak", omega, k).reshape(g, -1, n)
    off = moved - iso @ (iso.conj().T @ moved)
    u = np.linalg.svd(np.concatenate(list(off), axis=1), full_matrices=False)[0][:, 0]
    w = np.column_stack([iso, u])
    dilated = _compress(omega, w)
    alpha, beta = dilated[:, :n, n], dilated[:, n, n].real
    defect = max(float(np.abs(w.conj().T @ w - np.eye(n + 1)).max()),
                 float(np.abs(dilated[:, :n, :n] - x).max()))
    size = float(np.linalg.norm(alpha))
    if size < 0.25 * delta or np.sqrt(defect) > 1e-3 * size:
        return None
    return HullBoundaryReport(NOT_BOUNDARY, alpha, beta, dilated, built,
                              isometry=w, generator=omega)


def arveson_in_hull(omega, x, tol: float = TOL, delta: float = 1e-2) -> HullBoundaryReport:
    """Decide whether ``X`` lies in the Arveson boundary of ``mco({Omega})``.

    Call an irreducible summand of ``Omega`` an *atom* when it is not in the
    matrix convex hull of the summands inequivalent to it. The test rests on

        X is in the Arveson boundary iff every irreducible summand of X is
        unitarily equivalent to an atom.

    Write ``K = mco({Omega})`` and ``X = V* (I_m ⊗ Omega) V`` for a
    Stinespring isometry ``V`` (a certificate of membership).

    1. *Every certificate of a boundary point has a reducing range.* If
       ``(I - V V*) (I_m ⊗ Omega_j) V != 0`` for some ``j``, a unit vector
       ``u`` of its range is orthogonal to ``V`` and ``W = [V u]`` gives
       ``W* (I_m ⊗ Omega) W in K``, a dilation of ``X`` with the nonzero
       column ``V* (I_m ⊗ Omega_j) u``.
    2. *Summands of boundary points are boundary points.* A nontrivial
       dilation of ``X_1`` in ``K``, summed with ``X_2``, is a nontrivial
       dilation of ``X_1 ⊕ X_2`` in ``K`` (matrix convex sets are closed
       under direct sums).
    3. *Direct sums of boundary points are boundary points.* Compressing a
       dilation of ``X_1 ⊕ X_2`` in ``K`` onto each block and the new column
       gives a dilation of each ``X_i`` in ``K``; both columns vanish, so
       the column of the sum does.
    4. *A non-atom is never a boundary point.* A summand ``S`` in the hull of
       the summands inequivalent to it has a certificate over those; by 1 a
       boundary point's certificate is reducing, which would make ``S``
       equivalent to a summand of the ampliation, one it is inequivalent to.
    5. *Atoms are boundary points.* Only this step needs Arveson's boundary
       theorem (Arveson, Acta Math. 1972) in finite dimensions; equivalently,
       an atom has the unique extension property (Dritschel & McCullough,
       J. Operator Theory 2005; Davidson & Kennedy, Duke Math. J. 2015).
       With 2 and 3 it gives the "if" direction; 2 and 4 give "only if",
       since every irreducible summand of a member is, by 1, equivalent to
       a summand of ``Omega``.

    The route: :func:`hull_membership` first (a non-member raises
    ``InputError``). Its certificate gives the dilation of step 1; when that
    column passes the size rule of :func:`_certificate_dilation` (``delta``
    is its floor), the answer is ``not_boundary`` with the dilation, which a
    reader re-checks with one matrix product. Otherwise
    :func:`structure.minimal_defining` prunes ``Omega`` to its atoms, and the
    answer is ``boundary`` when no kept summand carries a caveat and every
    irreducible summand of ``X`` matches one, with the unitary of
    :func:`structure.match_summands`. Else the certificate over the pruned
    tuple (over ``Omega`` a point equivalent to a redundant summand has a
    reducing one) must give the dilation. Anything else raises
    ``NumericalError``: ``boundary`` never comes without proof.
    """
    from . import structure

    omega = pencil.as_tuple(omega, what="generator tuple")
    x = pencil.as_tuple(x, what="point")
    rep = hull_membership(omega, x, tol=tol)
    if rep.status == NOT_MEMBER:
        raise InputError("point is not in the hull; Arveson test needs a member")
    built = 0
    if rep.is_member:
        built += 1
        found = _certificate_dilation(omega, x, rep.certificate.isometry, delta, built)
        if found is not None:
            return found
    md = structure.minimal_defining(omega, tol=tol)
    if md.caveats:
        raise NumericalError("atoms of the generator are not certified: "
                             + "; ".join(md.caveats))
    match = structure.match_summands(x, md.summands, tol=tol)
    if match is not None:
        unitary, atoms = match
        return HullBoundaryReport(BOUNDARY, None, None, None, built,
                                  unitary=unitary, atoms=atoms)
    rep = hull_membership(md.tuple, x, tol=tol)
    if rep.is_member:
        built += 1
        found = _certificate_dilation(md.tuple, x, rep.certificate.isometry, delta, built)
        if found is not None:
            return found
    raise NumericalError("point matches no atom, and its membership certificate "
                         "gives no dilation above the size rule")


# ---------------------------------------------------------------------------
# projections of spectrahedra (hidden variables)
# ---------------------------------------------------------------------------

@dataclass
class DropMembershipReport:
    status: str
    hidden: Optional[np.ndarray]
    residual: float

    @property
    def is_member(self) -> bool:
        return self.status == MEMBER

    def to_json(self) -> dict:
        out = {"status": self.status, "residual": self.residual}
        if self.hidden is not None:
            out["hidden"] = pencil.tuple_to_json(self.hidden)
        return out


def spectrahedrop_membership(a, visible: int, x) -> DropMembershipReport:
    """Membership of ``x`` in the projection of a spectrahedron.

    The pencil ``a`` has ``visible`` visible variables followed by hidden
    ones; the solver looks for Hermitian hidden assignments ``W`` with
    ``L_a(x, W) >= 0``. A ``member`` verdict returns the completion.
    """
    a = pencil.as_tuple(a, what="pencil")
    x = pencil.as_tuple(x, what="point")
    g, d = a.shape[0], a.shape[1]
    if not 0 < visible <= g:
        raise InputError("visible variable count out of range")
    if x.shape[0] != visible:
        raise InputError(f"point has {x.shape[0]} coordinates, expected {visible}")
    hidden_count = g - visible
    n = x.shape[1]
    base = pencil.eval_monic(a[:visible], x)
    if hidden_count == 0:
        me = linalg.min_eig(base)
        status = MEMBER if me >= -FEAS_TOL else NO_CERTIFICATE
        return DropMembershipReport(status, None, residual=max(0.0, -me))
    basis = linalg.herm_basis(n)
    problem = FeasibilityProblem(dim=d * n, base=base,
                                 generators=-_kron_pairs(a[visible:], basis))
    res = solve_affine_psd(problem)
    if not res.feasible:
        return DropMembershipReport(NO_CERTIFICATE, None, residual=res.residual)
    hidden = np.tensordot(res.s.reshape(hidden_count, n * n), basis, axes=1)
    hidden = (hidden + hidden.conj().transpose(0, 2, 1)) / 2
    # report the true residual of the recovered completion
    full = np.concatenate([x, hidden])
    me = linalg.min_eig(pencil.eval_monic(a, full))
    return DropMembershipReport(MEMBER, hidden, residual=float(max(0.0, -me)))
