"""Extreme-point tests for free spectrahedra via kernel containment.

For a member ``X`` of the free spectrahedron of ``A`` the three relevant
notions are characterized through the kernel of ``L_A(X)``:

* Euclidean extreme: the only Hermitian tuple ``Y`` with
  ``ker L_A(X) ⊆ ker Lam_A(Y)`` is ``Y = 0``.
* Arveson boundary: the only column tuple ``alpha`` with
  ``ker L_A(X) ⊆ ker (sum_j A_j ⊗ alpha_j)*`` is ``alpha = 0``; equivalently
  ``X`` admits no nontrivial one-column dilation inside the spectrahedron.
* Absolute extreme: Arveson boundary and irreducible.

Failed tests return verified witnesses: a perturbation ``Y`` with
``X ± tY`` both members, or a dilation ``[[X, t alpha], [t alpha*, 0]]``
that is again a member. The step ``t`` has a closed form in
``S = (L_A(X) + (WITNESS_TOL/2) I)^{-1/2}``; a point whose ``L_A(X)`` dips
below ``-WITNESS_TOL/2``, or a witness that fails its direct membership
check at ``-WITNESS_TOL``, raises ``NumericalError``.

Each call evaluates ``L_A(X)`` and eigendecomposes it once, in a private
point context that holds the validated tuples, ``L_A(X)``, its
eigendecomposition, the membership verdict read from it and, when a witness
step asks for it, ``S`` from the same decomposition. :func:`classify` builds
one context per point and hands it to every kernel test it runs, so each
test runs once and ``L_A(X)`` is decomposed once; only the witness checks
evaluate the pencil again, at the perturbed or dilated tuples.
:func:`dilation_oracle` is an independent feasibility-solver route to the
same dilation question, kept deliberately separate from the kernel test so
the two can cross-check each other. Its dilation matrix has ``L_A(X)`` as
top-left block, so when PSD it vanishes on ``[k; 0]`` for every kernel vector
``k``; the oracle adds those rows (one facial-reduction step) from its own
generators and checks every dilation it reports by direct membership. Only
the kernel is read from the shared decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional

import numpy as np

from . import feasibility, linalg, pencil, structure
from .errors import InputError, NumericalError
from .linalg import TOL

#: eigenvalue slack accepted when verifying witnesses by direct membership
WITNESS_TOL = 1e-9

#: :func:`dilation_oracle`: random directions before the coordinate ones, the
#: column normalization ``Re<c, alpha>`` and the solver's target
ORACLE_DIRECTIONS = 6
ORACLE_DELTA = 1e-2
ORACLE_FEAS_TOL = 1e-7


class _Point:
    """``L = L_A(X)`` of one point, evaluated and eigendecomposed once.

    Holds the validated pencil ``a`` and point ``x``, ``l``, its
    eigendecomposition ``eig`` and the ``membership`` verdict read from it.
    Lives for one public call; nothing is kept between calls.
    """

    def __init__(self, a, x, tol: float):
        self.a = pencil.as_tuple(a, what="pencil")
        _, self.x = pencil.check_compatible(self.a, x)
        self.l = pencil.eval_monic(self.a, self.x)
        self.eig = linalg.eigh(self.l)
        self.membership = pencil.membership_from_eig(self.eig, tol=tol)

    def member(self) -> _Point:
        """This point, or ``InputError`` when it lies outside the set."""
        if self.membership.status == pencil.OUTSIDE:
            raise InputError(
                f"point is outside the spectrahedron (min_eig {self.membership.min_eig:.3e})"
            )
        return self

    @cached_property
    def s(self) -> np.ndarray:
        """``S = (L + (WITNESS_TOL/2) I)^{-1/2}`` from the same decomposition.

        Witness steps aim at ``min_eig >= -WITNESS_TOL/2``, which leaves half
        the slack for rounding before the direct check at ``-WITNESS_TOL``.
        """
        w, v = self.eig
        w = w + WITNESS_TOL / 2
        if w[0] <= 0.0:
            raise NumericalError(
                f"L_A(X) has min_eig {w[0] - WITNESS_TOL / 2:.3e} below "
                f"-{WITNESS_TOL / 2:.1e}; no witness step can be verified"
            )
        return (v / np.sqrt(w)) @ v.conj().T


def column_dilation(x, alpha, beta=None) -> np.ndarray:
    """One-column dilation ``[[X_j, alpha_j], [alpha_j*, beta_j]]``.

    ``alpha`` is a (g, n) array of columns; ``beta`` a length-g real vector
    (zero when omitted). Result is a (g, n+1, n+1) Hermitian tuple.
    """
    x = pencil.as_tuple(x, what="point")
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.ndim == 1:
        alpha = alpha[None]
    g, n = x.shape[0], x.shape[1]
    if alpha.shape != (g, n):
        raise InputError(f"alpha must be shaped ({g}, {n}), got {alpha.shape}")
    if beta is None:
        beta = np.zeros(g)
    beta = np.asarray(beta, dtype=float).reshape(g)
    out = np.zeros((g, n + 1, n + 1), dtype=complex)
    out[:, :n, :n] = x
    out[:, :n, n] = alpha
    out[:, n, :n] = alpha.conj()
    out[:, n, n] = beta
    return out


def _verified(t: float, worst: float, what: str) -> float:
    if worst < -WITNESS_TOL:
        raise NumericalError(
            f"{what} at t={t:.6g} fails verification (min_eig {worst:.3e})"
        )
    return t


# ---------------------------------------------------------------------------
# Euclidean extreme points
# ---------------------------------------------------------------------------

@dataclass
class EuclideanVerdict:
    """Outcome of the Euclidean extreme-point test.

    For non-extreme points, ``witness`` is a unit Frobenius-norm Hermitian
    tuple ``Y`` and ``t > 0`` a verified scale with ``X ± t Y`` both members;
    ``solution_dim`` is the dimension of the space of admissible ``Y``.
    """

    extreme: bool
    witness: Optional[np.ndarray]
    t: Optional[float]
    kernel_dim: int
    solution_dim: int

    def __bool__(self) -> bool:
        return self.extreme

    def to_json(self) -> dict:
        out = {
            "extreme": self.extreme,
            "kernel_dim": self.kernel_dim,
            "solution_dim": self.solution_dim,
        }
        if self.witness is not None:
            out["witness"] = pencil.tuple_to_json(self.witness)
            out["t"] = self.t
        return out


def _euclidean_system(a, kernel, basis):
    """Real matrix of the constraints ``Lam_A(Y) k = 0`` over Y coordinates.

    Columns are indexed by (variable j, Hermitian basis element b); each
    kernel vector contributes ``d*n`` complex rows split into real and
    imaginary parts. Uses ``(A_j ⊗ H) k = vec(A_j K H^T)`` with K the
    (d, n) matrix reshape of ``k``.
    """
    g, d, n = a.shape[0], a.shape[1], basis.shape[1]
    kmats = kernel.T.reshape(-1, d, n)
    # broadcast products round exactly as one product per (j, b, k) would;
    # an einsum reorders the sums, which rotates the kernel basis inside a
    # multi-dimensional solution space and so changes the returned witness
    m = a[:, None, None] @ kmats[None, None] @ basis.transpose(0, 2, 1)[None, :, None]
    m = m.transpose(2, 3, 4, 0, 1).reshape(-1, g * n * n)
    return np.vstack([m.real, m.imag])


def is_euclidean_extreme(a, x, tol: float = TOL, *, _point=None) -> EuclideanVerdict:
    """Kernel test for Euclidean (classical) extreme points.

    Interior points are never extreme; the witness is then the first
    coordinate direction. On the boundary the admissible perturbations form
    the nullspace of a real linear system; a nonzero solution is returned as
    a witness ``Y`` with the closed-form step
    ``t = min(1, 1/max|eig(S Lam_A(Y) S)|)``, where
    ``S = (L_A(X) + (WITNESS_TOL/2) I)^{-1/2}``, so that ``X ± t Y`` stay
    members. Raises ``NumericalError`` when ``L_A(X)`` dips below
    ``-WITNESS_TOL/2`` (a point inside the ``±tol`` boundary band that lies
    outside by more than half the witness slack) or the witness fails its
    direct membership check at ``-WITNESS_TOL``.
    """
    p = _point or _Point(a, x, tol).member()
    rep = p.membership
    g, n = p.a.shape[0], p.x.shape[1]
    basis = linalg.herm_basis(n)

    if rep.status == pencil.INTERIOR:
        witness = np.zeros((g, n, n), dtype=complex)
        witness[0] = np.eye(n) / np.sqrt(n)
        t = _scale_witness(p, witness)
        return EuclideanVerdict(False, witness, t, kernel_dim=0,
                                solution_dim=g * n * n)

    system = _euclidean_system(p.a, rep.kernel, basis)
    null = linalg.null_space(system, tol=tol)
    if null.shape[1] == 0:
        return EuclideanVerdict(True, None, None,
                                kernel_dim=rep.kernel.shape[1], solution_dim=0)
    y = null[:, -1].real
    witness = np.stack(
        [np.tensordot(y[j * n * n:(j + 1) * n * n], basis, axes=1) for j in range(g)]
    )
    witness = witness / np.linalg.norm(witness)
    t = _scale_witness(p, witness)
    return EuclideanVerdict(False, witness, t, kernel_dim=rep.kernel.shape[1],
                            solution_dim=null.shape[1])


def _scale_witness(p: _Point, y) -> float:
    top = float(np.abs(linalg.eigh(p.s @ pencil.eval_hom(p.a, y) @ p.s).w).max())
    t = 1.0 / max(1.0, top)
    worst = min(linalg.min_eig(pencil.eval_monic(p.a, p.x + t * y)),
                linalg.min_eig(pencil.eval_monic(p.a, p.x - t * y)))
    return _verified(t, worst, "perturbation witness")


# ---------------------------------------------------------------------------
# Arveson boundary
# ---------------------------------------------------------------------------

@dataclass
class ArvesonVerdict:
    """Outcome of the Arveson boundary test.

    For non-boundary points ``alpha`` (a (g, n) column tuple, unit norm) and
    ``t > 0`` give a verified member dilation ``column_dilation(X, t*alpha)``;
    ``solution_dim`` is the complex dimension of admissible columns.
    """

    boundary: bool
    alpha: Optional[np.ndarray]
    t: Optional[float]
    kernel_dim: int
    solution_dim: int

    def __bool__(self) -> bool:
        return self.boundary

    def to_json(self) -> dict:
        out = {
            "boundary": self.boundary,
            "kernel_dim": self.kernel_dim,
            "solution_dim": self.solution_dim,
        }
        if self.alpha is not None:
            out["alpha"] = [
                [[float(v.real), float(v.imag)] for v in row] for row in self.alpha
            ]
            out["t"] = self.t
        return out


def _arveson_system(a, kernel, n):
    """Complex matrix of ``k* (sum_j A_j ⊗ alpha_j) = 0`` over alpha coords.

    Unknowns are the ``g*n`` complex entries of alpha; each kernel vector
    gives ``d`` complex equations with coefficient ``(K[:, i]* A_j)[c]`` for
    the (j, i) unknown, where K is the (d, n) reshape of the kernel vector.
    """
    g, d = a.shape[0], a.shape[1]
    kmats = kernel.T.reshape(-1, d, n)
    coef = kmats.conj().transpose(0, 2, 1)[:, None] @ a[None]  # (k, j, i, c)
    return coef.transpose(0, 3, 1, 2).reshape(-1, g * n)


def is_arveson(a, x, tol: float = TOL, *, _point=None) -> ArvesonVerdict:
    """Kernel test for membership in the Arveson boundary.

    ``X`` is in the boundary exactly when no nonzero column tuple ``alpha``
    satisfies ``ker L_A(X) ⊆ ker (sum_j A_j ⊗ alpha_j)*``; such an ``alpha``
    yields a one-column member dilation, returned as a verified witness.
    With ``C = sum_j A_j ⊗ alpha_j`` the dilation's pencil is
    ``[[L_A(X), -tC], [-tC*, I]]``, so by the Schur complement the step is
    ``t = min(1, sqrt((1 + WITNESS_TOL/2) / ||S C||^2))`` with ``S`` as in
    :func:`is_euclidean_extreme`, whose ``NumericalError`` contract it shares.
    """
    p = _point or _Point(a, x, tol).member()
    rep = p.membership
    g, n = p.a.shape[0], p.x.shape[1]

    if rep.status == pencil.INTERIOR:
        alpha = np.zeros((g, n), dtype=complex)
        alpha[0, 0] = 1.0
        t = _scale_alpha(p, alpha)
        return ArvesonVerdict(False, alpha, t, kernel_dim=0, solution_dim=g * n)

    system = _arveson_system(p.a, rep.kernel, n)
    null = linalg.null_space(system, tol=tol)
    if null.shape[1] == 0:
        return ArvesonVerdict(True, None, None, kernel_dim=rep.kernel.shape[1],
                              solution_dim=0)
    alpha = null[:, -1].reshape(g, n)
    alpha = alpha / np.linalg.norm(alpha)
    t = _scale_alpha(p, alpha)
    return ArvesonVerdict(False, alpha, t, kernel_dim=rep.kernel.shape[1],
                          solution_dim=null.shape[1])


def _scale_alpha(p: _Point, alpha) -> float:
    top = np.linalg.norm(p.s @ pencil.eval_hom_col(p.a, alpha), 2) ** 2 / (1 + WITNESS_TOL / 2)
    t = 1.0 / np.sqrt(max(1.0, top))
    worst = linalg.min_eig(pencil.eval_monic(p.a, column_dilation(p.x, t * alpha)))
    return _verified(t, worst, "column dilation")


# ---------------------------------------------------------------------------
# irreducibility and absolute extreme points
# ---------------------------------------------------------------------------

@dataclass
class IrreducibilityVerdict:
    irreducible: bool
    commutant_dim: int
    projection: Optional[np.ndarray]

    def __bool__(self) -> bool:
        return self.irreducible

    def to_json(self) -> dict:
        out = {"irreducible": self.irreducible, "commutant_dim": self.commutant_dim}
        if self.projection is not None:
            out["projection_rank"] = int(round(float(np.trace(self.projection).real)))
        return out


def is_irreducible(x, tol: float = TOL) -> IrreducibilityVerdict:
    """Trivial-commutant test, with a reducing projection as witness.

    The projection is ``V_low V_low*`` from :func:`structure.reducing_split`.
    """
    dim, split = structure.reducing_split(x, tol=tol)
    if split is None:
        return IrreducibilityVerdict(dim == 1, dim, None)
    low = split[0]
    return IrreducibilityVerdict(False, dim, linalg.hermitian_part(low @ low.conj().T))


@dataclass
class AbsoluteVerdict:
    absolute: bool
    arveson: ArvesonVerdict
    irreducibility: IrreducibilityVerdict

    def __bool__(self) -> bool:
        return self.absolute

    def to_json(self) -> dict:
        return {
            "absolute": self.absolute,
            "arveson": self.arveson.to_json(),
            "irreducibility": self.irreducibility.to_json(),
        }


@dataclass
class MatrixExtremeReport:
    status: str  # "yes" / "no" / "unknown"
    reason: str

    def to_json(self) -> dict:
        return {"status": self.status, "reason": self.reason}


def _verdicts(p: _Point, x, tol):
    """The three kernel tests on one member point, sharing its context."""
    return (is_euclidean_extreme(p.a, p.x, tol=tol, _point=p),
            is_arveson(p.a, p.x, tol=tol, _point=p),
            is_irreducible(x, tol=tol))


def _sandwich(euc, arv, irr) -> tuple[AbsoluteVerdict, MatrixExtremeReport]:
    """Absolute and matrix-extreme verdicts derived from the kernel tests.

    Absolute extreme points are the irreducible Arveson boundary points.
    Matrix extreme points sit between the Euclidean extreme points and the
    absolute extreme points, so only a sandwich argument is available:
    irreducible Arveson boundary points are matrix extreme; points that are
    reducible or not Euclidean extreme are not; the rest stay unknown.
    """
    absolute = AbsoluteVerdict(arv.boundary and irr.irreducible, arv, irr)
    if not irr.irreducible:
        mx = MatrixExtremeReport("no", "reducible points are never matrix extreme")
    elif arv.boundary:
        mx = MatrixExtremeReport(
            "yes", "irreducible Arveson boundary points are matrix extreme"
        )
    elif not euc.extreme:
        mx = MatrixExtremeReport("no", "matrix extreme points must be Euclidean extreme")
    else:
        mx = MatrixExtremeReport(
            "unknown",
            "Euclidean extreme and irreducible but not Arveson; the implemented "
            "tests cannot separate matrix extreme from merely Euclidean here",
        )
    return absolute, mx


def is_absolute_extreme(a, x, tol: float = TOL) -> AbsoluteVerdict:
    """Absolute extreme points are the irreducible Arveson boundary points."""
    return _sandwich(*_verdicts(_Point(a, x, tol).member(), x, tol))[0]


def matrix_extreme_status(a, x, tol: float = TOL) -> MatrixExtremeReport:
    """Partial test for matrix extreme points; see :func:`_sandwich`."""
    return _sandwich(*_verdicts(_Point(a, x, tol).member(), x, tol))[1]


@dataclass
class Classification:
    """All verdicts for one point; outside points carry only ``membership``."""

    membership: pencil.MembershipReport
    euclidean: Optional[EuclideanVerdict] = None
    arveson: Optional[ArvesonVerdict] = None
    irreducible: Optional[IrreducibilityVerdict] = None
    absolute: Optional[AbsoluteVerdict] = None
    matrix_extreme: Optional[MatrixExtremeReport] = None

    def to_json(self) -> dict:
        return {f.name: None if getattr(self, f.name) is None
                else getattr(self, f.name).to_json() for f in fields(self)}


def classify(a, x, tol: float = TOL) -> Classification:
    """Membership and every extremality verdict, each kernel test run once
    on one eigendecomposition of ``L_A(X)``."""
    p = _Point(a, x, tol)
    if p.membership.status == pencil.OUTSIDE:
        return Classification(p.membership)
    euc, arv, irr = _verdicts(p, x, tol)
    return Classification(p.membership, euc, arv, irr, *_sandwich(euc, arv, irr))


# ---------------------------------------------------------------------------
# independent dilation oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleVerdict:
    """Outcome of the feasibility-solver dilation search.

    ``dilation_found`` means a verified nontrivial one-column dilation exists
    (the point is not in the Arveson boundary); the converse direction is
    only as strong as the direction battery and solver effort.
    """

    dilation_found: bool
    alpha: Optional[np.ndarray]
    beta: Optional[np.ndarray]
    residual: float
    directions_tried: int

    def to_json(self) -> dict:
        return {
            "dilation_found": self.dilation_found,
            "residual": self.residual,
            "directions_tried": self.directions_tried,
        }


def _coordinate_directions(g: int, n: int) -> list:
    """Unit directions ``e_ji`` and ``i e_ji`` in ``(C^n)^g``, ``j`` major."""
    dirs = []
    for j in range(g):
        for i in range(n):
            for phase in (1.0, 1j):
                e = np.zeros((g, n), dtype=complex)
                e[j, i] = phase
                dirs.append(e)
    return dirs


def dilation_oracle(a, x, seed=0, tol: float = TOL) -> OracleVerdict:
    """Search for one-column dilations with a convex feasibility solver.

    The dilation ``[[X, alpha], [alpha*, beta]]`` stays in the spectrahedron
    exactly when the block matrix ``Z = [[L_A(X), -C(alpha)], [-C(alpha)*,
    L_A(beta)]]`` is PSD, an affine condition in ``(alpha, beta)``. For each
    direction ``c`` the solver runs with the normalization
    ``Re<c, alpha> = ORACLE_DELTA``; any hit is verified by direct membership
    of the dilated tuple at ``-WITNESS_TOL`` before being reported.

    Each problem is first cut down to the face of the PSD cone that holds
    its feasible set (one facial-reduction step). The top-left block of
    ``Z`` is ``L = L_A(X)``, so for ``k`` in the kernel of ``L``,
    ``[k; 0]* Z [k; 0] = 0`` and ``Z >= 0`` force ``Z [k; 0] = 0``, that is
    ``C(alpha)* k = 0``: the bottom blocks of ``G_i [k; 0]`` over the
    generators, with right-hand side 0, join the normalization row. For an
    exact kernel they remove no feasible point; eigenvectors inside the
    ``tol`` band are cut as :func:`is_arveson` cuts them. At an Arveson
    boundary point the normalization is inconsistent on the face, and every
    direction returns at once as ``no_certificate``; an interior point has
    no kernel and gets no row. Only the kernel is shared with
    :func:`is_arveson`: the rows come from the generators, and every hit is
    checked by direct membership.
    """
    p = _Point(a, x, tol).member()
    a, x = p.a, p.x
    g, d, n = a.shape[0], a.shape[1], x.shape[1]
    dim = d * n + d

    base = np.zeros((dim, dim), dtype=complex)
    base[:d * n, :d * n] = p.l
    base[d * n:, d * n:] = np.eye(d)

    # real parameters: alpha over the 2*g*n coordinate directions, then beta
    rng = linalg.default_rng(seed)
    alpha_dirs = _coordinate_directions(g, n)
    gens = []
    for e in alpha_dirs:
        c = pencil.eval_hom_col(a, e)
        m = np.zeros((dim, dim), dtype=complex)
        m[:d * n, d * n:] = -c
        m[d * n:, :d * n] = -c.conj().T
        gens.append(m)
    for j in range(g):
        m = np.zeros((dim, dim), dtype=complex)
        m[d * n:, d * n:] = -a[j]
        gens.append(m)
    gens = np.stack(gens)
    p_alpha = len(alpha_dirs)
    # face rows: the bottom block of G_i [k; 0] for every kernel vector k
    face = (gens[:, d * n:, :d * n] @ p.membership.kernel).reshape(gens.shape[0], -1).T
    face = np.vstack([face.real, face.imag])

    cands = []
    for _ in range(ORACLE_DIRECTIONS):
        v = rng.standard_normal((g, n)) + 1j * rng.standard_normal((g, n))
        cands.append(v / np.linalg.norm(v))
    cands.extend(alpha_dirs)

    tried = 0
    for c in cands:
        tried += 1
        # Re<c, alpha> over the coordinates: Re c_ji for e_ji, Im c_ji for i*e_ji
        row = np.zeros(gens.shape[0])
        row[:p_alpha] = np.stack([c.real, c.imag], axis=-1).ravel()
        problem = feasibility.FeasibilityProblem(
            dim=dim, base=base, generators=gens,
            extra=np.vstack([row, face]),
            extra_rhs=np.r_[ORACLE_DELTA, np.zeros(len(face))],
        )
        res = feasibility.solve_affine_psd(problem, tol=ORACLE_FEAS_TOL)
        if not res.feasible:
            continue
        alpha = (res.s[0:p_alpha:2] + 1j * res.s[1:p_alpha:2]).reshape(g, n)
        beta = res.s[p_alpha:].real
        if np.linalg.norm(alpha) < 0.25 * ORACLE_DELTA:
            continue
        z = column_dilation(x, alpha, beta)
        me = linalg.min_eig(pencil.eval_monic(a, z))
        if me >= -WITNESS_TOL:
            return OracleVerdict(True, alpha, beta, residual=float(max(0.0, -me)),
                                 directions_tried=tried)
    return OracleVerdict(False, None, None, residual=np.inf, directions_tried=tried)
