"""Output checker, written apart from the program with numpy alone.

Every operation's output is judged in one of three ways:

* ``ok`` — every witness and certificate re-checks here, and no verdict
  contradicts a property the method must have;
* ``failed`` — the program gave no usable answer: a witness or certificate
  that does not re-check, ``no_certificate`` for a point that is a member by
  construction, an exception or a numerical-failure exit;
* ``wrong`` — a verdict contradicts a fact known here (the point's
  construction, a closed form, an independent computation, or the
  extremality hierarchy).

A benchmark run is ``correct`` when no operation is ``wrong``. Slacks are the
program's own contracts, plus rounding: its extremality witnesses promise
``min_eig >= -1e-9``, its dilation oracle ``>= -1e-6``, its feasibility
solver a residual of ``1e-6``.
"""

from __future__ import annotations

import numpy as np

from inputs import hom

OK, FAILED, WRONG = "ok", "failed", "wrong"

#: the program's bisection places witnesses right at its slack, so the
#: independent evaluation here is allowed this much rounding on top
ROUNDING = 1e-12
WITNESS_SLACK = 1e-9 + ROUNDING
ORACLE_SLACK = 1e-6 + ROUNDING
FEAS_SLACK = 1e-6 + ROUNDING
CERT_TOL = 1e-5
TOL = 1e-8
#: eigenvalues of L_A(X) counted as kernel by the one-sided kernel checks;
#: generous, so the checks see more constraints than the program does
KERNEL_CUT = 1e-6
#: relative singular value below which a solution clearly exists
CLEAR_NULL = 1e-12


class Findings:
    """Collects the problems met while checking one output."""

    def __init__(self):
        self.failed: list[str] = []
        self.wrong: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed.append(reason)

    def contradict(self, reason: str) -> None:
        self.wrong.append(reason)

    def result(self) -> tuple[str, str]:
        if self.wrong:
            return WRONG, "; ".join(self.wrong + self.failed)
        if self.failed:
            return FAILED, "; ".join(self.failed)
        return OK, ""


# ---------------------------------------------------------------------------
# linear algebra made here
# ---------------------------------------------------------------------------

def monic(a, x) -> np.ndarray:
    lam = hom(a, x)
    return np.eye(lam.shape[0]) - lam


def min_eig_monic(a, x) -> float:
    return float(np.linalg.eigvalsh(monic(a, x))[0])


def column_dilation(x, alpha, beta=None) -> np.ndarray:
    """``[[X_j, alpha_j], [alpha_j*, beta_j]]`` for each j."""
    g, n = x.shape[0], x.shape[1]
    out = np.zeros((g, n + 1, n + 1), dtype=complex)
    out[:, :n, :n] = x
    out[:, :n, n] = alpha
    out[:, n, :n] = np.conj(alpha)
    if beta is not None:
        out[:, n, n] = beta
    return out


def _kernel(a, x) -> np.ndarray:
    w, v = np.linalg.eigh(monic(a, x))
    return v[:, w <= KERNEL_CUT]


def _clearly_singular(m: np.ndarray) -> bool:
    """True when ``m`` has a kernel beyond any tolerance question."""
    if m.shape[1] > m.shape[0]:
        return True
    s = np.linalg.svd(m, compute_uv=False)
    return bool(s[-1] <= CLEAR_NULL * max(1.0, s[0]))


def dilation_clearly_exists(a, x) -> bool:
    """A nonzero column ``alpha`` with ``ker L_A(X) ⊆ ker (sum A_j ⊗ alpha_j)*``.

    Such an alpha gives a nontrivial member dilation, so the point is not in
    the Arveson boundary.
    """
    k = _kernel(a, x)
    if k.shape[1] == 0:
        return True
    g, d, n = a.shape[0], a.shape[1], x.shape[1]
    kk = k.reshape(d, n, -1)
    # k_i* (A_j ⊗ e_r) has entries sum_a conj(k[a, r, i]) A_j[a, b]
    coef = np.einsum("ari,jab->ibjr", kk.conj(), a)
    return _clearly_singular(coef.reshape(-1, g * n))


def _herm_basis(n: int) -> np.ndarray:
    out = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1 / np.sqrt(2)
            out.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[i, j], f[j, i] = 1j / np.sqrt(2), -1j / np.sqrt(2)
            out.append(f)
    return np.stack(out)


def perturbation_clearly_exists(a, x) -> bool:
    """A nonzero Hermitian Y with ``Lam_A(Y) k = 0`` on ``ker L_A(X)``.

    Such a Y moves X both ways inside the set, so X is not Euclidean extreme.
    """
    k = _kernel(a, x)
    if k.shape[1] == 0:
        return True
    g, d, n = a.shape[0], a.shape[1], x.shape[1]
    kk = k.reshape(d, n, -1)
    basis = _herm_basis(n)
    # (A_j ⊗ H) vec(K) = vec(A_j K H^T) with K the (d, n) reshape of k
    cols = np.einsum("jab,bsi,hrs->arijh", a, kk, basis).reshape(-1, g * n * n)
    return _clearly_singular(np.vstack([cols.real, cols.imag]))


def simplex_vertices(omega) -> np.ndarray:
    """Level-1 vertices of a diagonal generator tuple, shape (d, g)."""
    return np.stack([np.diagonal(oj).real for oj in omega], axis=1)


def simplex_hull_min_eig(vertices, x) -> float:
    """Smallest eigenvalue of the barycentric coordinates ``lambda_k(X)``.

    For affinely independent vertices v_0..v_g, ``X = sum_k v_k ⊗ P_k`` with
    ``P_k >= 0`` and ``sum_k P_k = I`` has the unique solution
    ``P_k = lambda_k(X)``; so X lies in the matrix convex hull of the
    vertices exactly when every ``lambda_k(X)`` is PSD.
    """
    verts = np.asarray(vertices, dtype=float)
    g = verts.shape[1]
    bary = np.linalg.inv(np.vstack([verts.T, np.ones(verts.shape[0])]))
    n = x.shape[1]
    worst = np.inf
    for row in bary:
        lam = np.tensordot(row[:g], x, axes=1) + row[g] * np.eye(n)
        worst = min(worst, float(np.linalg.eigvalsh((lam + lam.conj().T) / 2)[0]))
    return worst


def tuple_from_json(obj) -> np.ndarray:
    m = np.asarray(obj["matrices"], dtype=float)
    return m[..., 0] + 1j * m[..., 1]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _check_euclidean_witness(f, a, x, euc) -> None:
    t = euc.get("t")
    y = tuple_from_json(euc["witness"]) if "witness" in euc else None
    if y is None or not isinstance(t, (int, float)) or not t > 0 or not np.abs(y).max() > 0:
        f.fail(f"euclidean witness is trivial (t={t})")
        return
    worst = min(min_eig_monic(a, x + t * y), min_eig_monic(a, x - t * y))
    if worst < -WITNESS_SLACK:
        f.fail(f"euclidean witness leaves the set (min_eig {worst:.2e}, t={t})")


def _check_arveson_witness(f, a, x, arv) -> None:
    t = arv.get("t")
    alpha = np.asarray(arv["alpha"], dtype=float) if "alpha" in arv else None
    if alpha is None or not isinstance(t, (int, float)) or not t > 0:
        f.fail(f"arveson dilation is trivial (t={t})")
        return
    alpha = alpha[..., 0] + 1j * alpha[..., 1]
    if not np.abs(alpha).max() > 0:
        f.fail("arveson dilation column is zero")
        return
    worst = min_eig_monic(a, column_dilation(x, t * alpha))
    if worst < -WITNESS_SLACK:
        f.fail(f"arveson dilation leaves the set (min_eig {worst:.2e}, t={t})")


def check_classify(a, x, rc: int, out, expect: dict) -> tuple[str, str]:
    """Judge one ``freespec classify`` run.

    ``expect`` holds what the point's construction fixes: ``member``
    ("boundary" / "interior"), ``arveson`` (True for cube symmetry tuples and
    commuting circle pairs on the spin disk), ``reducible`` (direct sums) and
    ``near`` (the fixed near-cutoff slice, whose verdicts lie inside the
    tolerance band: there only the witnesses are checked, and a
    numerical-failure exit is the honest answer).
    """
    f = Findings()
    near = expect.get("near", False)
    if rc == 3:
        if not near:
            f.fail("numerical failure exit")
        return f.result()
    if rc != 0:
        f.contradict(f"exit code {rc} on valid input")
        return f.result()
    mem = out["membership"]
    me = min_eig_monic(a, x)
    if abs(float(mem["min_eig"]) - me) > 1e-9:
        f.contradict(f"min_eig {mem['min_eig']} differs from {me:.3e}")
    if not near and mem["status"] != expect["member"]:
        f.contradict(f"status {mem['status']}, expected {expect['member']}")
    if mem["status"] == "outside":
        return f.result()
    euc, arv = out["euclidean"], out["arveson"]
    irr, absolute, mx = out["irreducible"], out["absolute"], out["matrix_extreme"]
    if not euc["extreme"]:
        _check_euclidean_witness(f, a, x, euc)
    if not arv["boundary"]:
        _check_arveson_witness(f, a, x, arv)
    if near:
        return f.result()

    if mem["status"] == "interior" and (euc["extreme"] or arv["boundary"]):
        f.contradict("interior point reported extreme or Arveson")
    if expect.get("arveson") and not arv["boundary"]:
        f.contradict("known Arveson boundary point reported not Arveson")
    if arv["boundary"] and dilation_clearly_exists(a, x):
        f.contradict("Arveson verdict although an admissible column exists")
    if euc["extreme"] and perturbation_clearly_exists(a, x):
        f.contradict("Euclidean extreme verdict although a perturbation exists")
    if expect.get("reducible"):
        if irr["irreducible"] or irr["commutant_dim"] < 2:
            f.contradict("direct sum reported irreducible")
        if mx["status"] != "no":
            f.contradict(f"direct sum has matrix-extreme status {mx['status']}")
    if absolute["absolute"] != (arv["boundary"] and irr["irreducible"]):
        f.contradict("absolute verdict is not Arveson-and-irreducible")
    if absolute["absolute"] and not arv["boundary"]:
        f.contradict("absolute but not Arveson")
    if arv["boundary"] and not euc["extreme"]:
        f.contradict("Arveson but not Euclidean extreme")
    if mx["status"] == "yes" and not (euc["extreme"] and irr["irreducible"]):
        f.contradict("matrix extreme but not Euclidean extreme and irreducible")
    if absolute["absolute"] and mx["status"] != "yes":
        f.contradict("absolute extreme but not matrix extreme")
    if not irr["irreducible"] and mx["status"] != "no":
        f.contradict("reducible but matrix-extreme status is not no")
    return f.result()


# ---------------------------------------------------------------------------
# dilation oracle
# ---------------------------------------------------------------------------

def check_oracle(a, x, found: bool, alpha, beta, arveson_boundary: bool,
                 interior: bool) -> tuple[str, str]:
    """Judge ``dilation_oracle`` against a direct check and ``is_arveson``.

    A found dilation must be a nontrivial member and agree with
    ``is_arveson``. An interior point (``L_A(X) >= I/2`` by construction) has
    a strictly feasible dilation in every direction, so not finding one there
    is a failed operation. On a boundary point not finding one is no claim
    (the search is only as strong as its direction battery), so it is judged
    only through ``is_arveson``'s verdict: an Arveson verdict must not leave
    an admissible column.
    """
    f = Findings()
    if found:
        if alpha is None or not np.linalg.norm(alpha) > 0:
            f.fail("oracle dilation column is zero")
        else:
            worst = min_eig_monic(a, column_dilation(x, alpha, beta))
            if worst < -ORACLE_SLACK:
                f.fail(f"oracle dilation leaves the set (min_eig {worst:.2e})")
            elif arveson_boundary:
                f.contradict("oracle found a dilation of an is_arveson boundary point")
    elif interior:
        f.fail("oracle found no dilation of an interior point")
    if interior and arveson_boundary:
        f.contradict("interior point reported Arveson by is_arveson")
    elif not found and arveson_boundary and dilation_clearly_exists(a, x):
        f.contradict("Arveson verdict although an admissible column exists")
    return f.result()


# ---------------------------------------------------------------------------
# finitely generated hulls
# ---------------------------------------------------------------------------

def apply_choi(choi, t, d: int, n: int) -> np.ndarray:
    """``Phi(T) = sum_kl T_kl C[(k, .), (l, .)]`` for a Choi matrix on C^d ⊗ C^n."""
    return np.einsum("kl,krls->rs", t, choi.reshape(d, n, d, n))


def check_choi_certificate(f, omega, x, choi, isometry) -> None:
    """PSD, unital, maps each Omega_j to X_j, and its Stinespring isometry
    reproduces X."""
    d, n = omega.shape[1], x.shape[1]
    scale = max(1.0, float(np.abs(omega).max()), float(np.abs(x).max()))
    herm = (choi + choi.conj().T) / 2
    if np.abs(choi - herm).max() > CERT_TOL:
        f.fail("Choi matrix is not Hermitian")
    neg = float(np.linalg.eigvalsh(herm)[0])
    if neg < -FEAS_SLACK * scale:
        f.fail(f"Choi matrix is not PSD (min_eig {neg:.2e})")
    if np.abs(apply_choi(choi, np.eye(d), d, n) - np.eye(n)).max() > CERT_TOL:
        f.fail("Choi map is not unital")
    for oj, xj in zip(omega, x):
        if np.abs(apply_choi(choi, oj, d, n) - xj).max() > CERT_TOL * scale:
            f.fail("Choi map does not send Omega to X")
            break
    v = np.asarray(isometry)
    r = v.shape[0] // d
    if np.abs(v.conj().T @ v - np.eye(n)).max() > CERT_TOL:
        f.fail("Stinespring map is not an isometry")
    for oj, xj in zip(omega, x):
        if np.abs(v.conj().T @ np.kron(np.eye(r), oj) @ v - xj).max() > CERT_TOL * scale:
            f.fail("Stinespring dilation does not reproduce X")
            break


def check_hull_membership(omega, x, status: str, choi, isometry,
                          member, evidence: str = "") -> tuple[str, str]:
    """Judge ``hull_membership``.

    ``member`` is True / False from the point's construction. ``evidence``
    names how non-membership is known here: "outside" (``L_Omega(X)`` has a
    negative eigenvalue and Omega lies in its own spectrahedron) or
    "simplex" (a barycentric coordinate of X is not PSD).
    """
    f = Findings()
    if status == "member":
        check_choi_certificate(f, omega, x, choi, isometry)
        if member is False:
            f.contradict("known non-member reported member")
    elif status == "not_member":
        if member is True:
            f.contradict("member by construction reported not_member")
        elif evidence == "outside":
            if min_eig_monic(omega, x) >= -TOL or min_eig_monic(omega, omega) < -TOL:
                f.contradict("not_member without a spectrahedral separation")
        elif evidence == "simplex":
            if simplex_hull_min_eig(simplex_vertices(omega), x) >= 0:
                f.contradict("not_member, but the barycentric coordinates are PSD")
    elif status == "no_certificate":
        if member is True:
            f.fail("solver gave up on a member by construction")
    else:
        f.contradict(f"unknown status {status!r}")
    return f.result()


def check_arveson_in_hull(omega, x, status: str, dilated, delta: float,
                          boundary: bool) -> tuple[str, str]:
    """Judge ``arveson_in_hull`` on a diagonal (simplex) generator.

    A ``not_boundary`` verdict must carry a dilation whose corner is X, whose
    column is nonzero, and that lies in the hull by the barycentric test.
    ``boundary`` is the truth: direct sums of vertex rows are boundary
    points, lower-level compressions are not.
    """
    f = Findings()
    n = x.shape[1]
    if status == "not_boundary":
        if dilated is None or dilated.shape[1:] != (n + 1, n + 1):
            f.fail("not_boundary without a dilation")
            return f.result()
        if np.abs(dilated[:, :n, :n] - x).max() > CERT_TOL:
            f.fail("dilation does not compress to X")
        if np.linalg.norm(dilated[:, :n, n]) < 0.25 * delta:
            f.fail("dilation column is trivial")
        hull = simplex_hull_min_eig(simplex_vertices(omega), dilated)
        if hull < -FEAS_SLACK:
            f.fail(f"dilation is outside the hull (barycentric min_eig {hull:.2e})")
        if boundary and not f.failed:
            f.contradict("verified dilation of a boundary point")
    elif status == "boundary":
        if not boundary:
            f.contradict("point with a member dilation reported boundary")
    else:
        f.contradict(f"unknown status {status!r}")
    return f.result()


# ---------------------------------------------------------------------------
# projected spectrahedra
# ---------------------------------------------------------------------------

def check_drop(a, x, status: str, hidden, member, tv_level_one: bool = False) -> tuple[str, str]:
    """Judge ``spectrahedrop_membership``.

    A ``member`` verdict must carry a hidden completion W with
    ``L_A(X, W) >= -1e-6``; on the TV screen at level 1 the projection is
    exactly ``{1 - x^2 - y^4 >= 0}``, which every member must satisfy.
    """
    f = Findings()
    if status == "member":
        if hidden is None or hidden.shape[1:] != x.shape[1:]:
            f.fail("member verdict without a completion")
            return f.result()
        full = np.concatenate([x, hidden])
        worst = min_eig_monic(a, full)
        if worst < -FEAS_SLACK:
            f.fail(f"completion leaves the set (min_eig {worst:.2e})")
        if member is False:
            f.contradict("known non-member reported member")
        if tv_level_one:
            xv, yv = float(x[0, 0, 0].real), float(x[1, 0, 0].real)
            if 1 - xv ** 2 - yv ** 4 < -TOL:
                f.contradict("level-1 member outside the TV screen")
    elif status == "no_certificate":
        if member is True:
            f.fail("solver gave up on a member by construction")
    else:
        f.contradict(f"unknown status {status!r}")
    return f.result()
