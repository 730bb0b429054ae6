"""Test-only oracles: the gallery's nonlinear models and sampled set checks.

These routines are independent checks, not library verdicts: the dilation
search is seeded and "not found" is no claim, the lifted-TV classifier only
labels points of one worked family, and the polar-duality and normal-form
checks compare two sets on random points, which is evidence and never proof
(the library certifies the normal form by unitary equivalence instead). They
live beside the tests that use them; nothing in ``freespec`` calls them.
"""
from dataclasses import dataclass
from typing import Optional

import numpy as np

from freespec import linalg, pencil
from freespec.errors import InputError
from freespec.extreme import column_dilation
from freespec.gallery import GalleryEntry, tv_poly, wild_poly
from freespec.linalg import TOL
from freespec.structure import reference_simplex


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
