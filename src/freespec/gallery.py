"""Worked models: cubes, disks, simplices and a projected-spectrahedron lift.

Each entry packages a monic pencil together with whatever extra structure the
model carries (hidden variables for projections, rescaling data for the
hidden coordinate). Alongside the entries live their special-purpose tests:

* the free cube and the symmetry tuples that populate its boundary,
* the spin disk (commuting boundary pairs are the Arveson boundary),
* the wild disk ``{I - X^2 - Y^2 >= 0}`` with a corank-one explicit
  dilation builder,
* the reference simplex in g variables,
* a pencil in (x, y, w) whose projection to (x, y) is the degree-4 set
  ``{I - X^2 - Y^4 >= 0}`` ("TV screen"), including the distinguished
  boundary point whose projection leaves that set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg, pencil, structure
from .errors import InputError
from .linalg import TOL


@dataclass
class GalleryEntry:
    """A named pencil plus model-specific extras.

    ``visible_vars`` is set for projected models: the first ``visible_vars``
    variables are the coordinates of the projection, the rest are hidden.
    ``aux`` carries scalar model data (e.g. the hidden-coordinate rescaling).
    """

    name: str
    pencil: np.ndarray
    visible_vars: Optional[int] = None
    notes: str = ""
    aux: dict = field(default_factory=dict)

    @property
    def g(self) -> int:
        return self.pencil.shape[0]

    @property
    def d(self) -> int:
        return self.pencil.shape[1]

    def to_json(self) -> dict:
        out = {"name": self.name, "pencil": pencil.tuple_to_json(self.pencil),
               "notes": self.notes}
        if self.visible_vars is not None:
            out["visible_vars"] = int(self.visible_vars)
        if self.aux:
            out["aux"] = {k: float(v) for k, v in self.aux.items()}
        return out

    @classmethod
    def from_json(cls, obj) -> "GalleryEntry":
        if "pencil" not in obj:
            raise InputError("gallery JSON needs a 'pencil' field")
        return cls(
            name=str(obj.get("name", "")),
            pencil=pencil.tuple_from_json(obj["pencil"]),
            visible_vars=(int(obj["visible_vars"]) if "visible_vars" in obj else None),
            notes=str(obj.get("notes", "")),
            aux={k: float(v) for k, v in obj.get("aux", {}).items()},
        )


# ---------------------------------------------------------------------------
# cubes and intervals
# ---------------------------------------------------------------------------

def cube(g: int = 2) -> GalleryEntry:
    """The free cube ``{-I <= X_j <= I}`` as a diagonal pencil of size 2g."""
    if g < 1:
        raise InputError("need at least one variable")
    a = np.zeros((g, 2 * g, 2 * g), dtype=complex)
    for j in range(g):
        a[j, 2 * j, 2 * j] = 1.0
        a[j, 2 * j + 1, 2 * j + 1] = -1.0
    return GalleryEntry("cube", a, notes=f"free cube in {g} variables")


def interval() -> GalleryEntry:
    """The free interval ``[-I, I]`` (the cube in one variable)."""
    e = cube(1)
    return GalleryEntry("interval", e.pencil, notes="free interval [-1, 1]")


def symmetry_tuple(n: int, g: int, seed=0) -> np.ndarray:
    """Random tuple of Hermitian unitaries (``J_j^2 = I``), shape (g, n, n).

    These are exactly the Arveson boundary points of the free cube.
    """
    rng = linalg.default_rng(seed)
    out = np.zeros((g, n, n), dtype=complex)
    for j in range(g):
        u = linalg.random_unitary(n, rng)
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        out[j] = linalg.hermitian_part((u * signs) @ u.conj().T)
    return out


# ---------------------------------------------------------------------------
# spin disk
# ---------------------------------------------------------------------------

def spin_disk() -> GalleryEntry:
    """The spin disk: ``L(x) = [[1 + x1, x2], [x2, 1 - x1]]``.

    Level 1 is the unit disk; at higher levels membership means
    ``I - X1^2 - X2^2 >= 0`` together with ``[X1, X2] = 0`` exactly on the
    Arveson boundary (commuting boundary pairs).
    """
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return GalleryEntry("spin-disk", np.stack([-sz, -sx]),
                        notes="free disk from the 2x2 spin pencil")


def spin_boundary_point(angles) -> np.ndarray:
    """Commuting boundary pair ``(diag(cos t), diag(sin t))`` of the spin disk."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    return np.stack([np.diag(np.cos(angles)).astype(complex),
                     np.diag(np.sin(angles)).astype(complex)])


# ---------------------------------------------------------------------------
# wild disk
# ---------------------------------------------------------------------------

def wild_disk() -> GalleryEntry:
    """Pencil ``[[1, x1, x2], [x1, 1, 0], [x2, 0, 1]]``.

    Membership at every level is ``I - X1^2 - X2^2 >= 0`` (no commutation),
    via the Schur complement of the lower 2x2 identity block.
    """
    a = np.zeros((2, 3, 3), dtype=complex)
    a[0, 0, 1] = a[0, 1, 0] = -1.0
    a[1, 0, 2] = a[1, 2, 0] = -1.0
    return GalleryEntry("wild-disk", a, notes="free disk {I - X^2 - Y^2 >= 0}")


def wild_poly(x, y) -> np.ndarray:
    """Defining polynomial ``I - X^2 - Y^2`` of the wild disk."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return np.eye(x.shape[0]) - x @ x - y @ y


def _range_basis(p, tol):
    """Orthonormal basis of the range of a Hermitian PSD-ish matrix."""
    w, v = linalg.eigh(p)
    cut = tol * max(1.0, float(np.abs(w).max(initial=0.0)))
    return v[:, np.abs(w) > cut]


@dataclass
class LiftOneReport:
    """A one-dimensional dilation landing on the vanishing boundary.

    ``x_lift, y_lift`` are (n+1)-dimensional with ``I - X^2 - Y^2 = 0``; the
    top-left n x n corners equal the input pair exactly.
    """

    x_lift: np.ndarray
    y_lift: np.ndarray
    t: float
    residual: float

    def to_json(self) -> dict:
        return {
            "pair": pencil.tuple_to_json(np.stack([self.x_lift, self.y_lift])),
            "t": self.t,
            "residual": self.residual,
        }


def lift_one(x, y, tol: float = TOL) -> LiftOneReport:
    """Dilate a corank-one wild-disk pair onto the vanishing boundary.

    Requires ``dim ker(I - X^2 - Y^2) = n - 1`` and a real colinearity
    between the two compressions (automatic for real symmetric input). The
    construction appends one row/column supported on the rank direction so
    that the defining polynomial of the enlarged pair vanishes identically.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n = x.shape[0]
    p = wild_poly(x, y)
    if linalg.min_eig(p) < -tol:
        raise InputError("point is outside the wild disk")
    kern = linalg.null_space(p, tol=tol)
    if kern.shape[1] != n - 1:
        raise InputError(
            f"lift_one needs corank-one points (kernel dim {kern.shape[1]}, "
            f"size {n})"
        )
    u = _range_basis(p, tol)
    if u.shape[1] != 1:
        raise InputError("defining polynomial has rank != 1")
    v = np.hstack([kern, u])  # unitary: kernel basis then the rank direction

    xr = v.conj().T @ x @ v
    yr = v.conj().T @ y @ v
    x12, y12 = xr[:n - 1, n - 1], yr[:n - 1, n - 1]
    x22, y22 = float(xr[n - 1, n - 1].real), float(yr[n - 1, n - 1].real)

    stack = np.stack([x12, y12])  # (2, n-1)
    if np.linalg.norm(stack) <= tol:
        gamma = np.array([1.0, 0.0])
    else:
        null = linalg.null_space(stack.T, tol=tol)  # columns: (p, q) with
        if null.shape[1] == 0:                      # p x12 + q y12 = 0
            raise InputError(
                "no colinearity between the off-diagonal compressions; "
                "the point admits no rank-direction lift"
            )
        gvec = null[:, 0]
        phase = gvec[np.argmax(np.abs(gvec))]
        gvec = gvec * (phase.conj() / abs(phase))
        if np.abs(gvec.imag).max() > 1e-8:
            raise InputError("off-diagonal colinearity is not real; cannot lift")
        gamma = gvec.real
    gamma = gamma / np.linalg.norm(gamma)

    rho = float((u[:, 0].conj() @ p @ u[:, 0]).real)
    if rho <= 0:
        raise InputError("rank direction has nonpositive defect; nothing to lift")
    t = float(np.sqrt(rho))  # ||gamma|| = 1
    sigma = np.array([x22, y22])
    tau = -float(sigma @ gamma)
    r2 = 1.0 - t * t
    disc = r2 - tau * tau
    if disc < -1e-10:
        raise InputError("corner equation has no real solution")
    perp = np.array([-gamma[1], gamma[0]])
    delta = tau * gamma + np.sqrt(max(disc, 0.0)) * perp

    def assemble(mat12, gcoef, corner):
        big = np.zeros((n + 1, n + 1), dtype=complex)
        big[:n, :n] = mat12
        big[n - 1, n] = t * gcoef
        big[n, n - 1] = t * gcoef
        big[n, n] = corner
        return big

    xl = assemble(xr, gamma[0], delta[0])
    yl = assemble(yr, gamma[1], delta[1])
    vfull = np.eye(n + 1, dtype=complex)
    vfull[:n, :n] = v
    xl = vfull @ xl @ vfull.conj().T
    yl = vfull @ yl @ vfull.conj().T
    residual = float(np.abs(wild_poly(xl, yl)).max())
    return LiftOneReport(x_lift=xl, y_lift=yl, t=t, residual=residual)


# ---------------------------------------------------------------------------
# reference simplex
# ---------------------------------------------------------------------------

def simplex(g: int = 2) -> GalleryEntry:
    """The reference free simplex in g variables (size g+1 pencil)."""
    return GalleryEntry("simplex", structure.reference_simplex(g),
                        notes=f"reference free simplex in {g} variables")


def simplex_from_vertices(vertices) -> GalleryEntry:
    """Free simplex with prescribed level-1 vertices (origin interior).

    ``vertices`` is a (g+1, g) array; facet ``a`` is the affine functional
    equal to 1 on every vertex except ``a``. The resulting pencil is the
    diagonal tuple of facet coefficients.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[0] != verts.shape[1] + 1:
        raise InputError("need g+1 vertices in g variables")
    gdim = verts.shape[1]
    rows = np.zeros((gdim + 1, gdim))
    for a in range(gdim + 1):
        rest = np.delete(verts, a, axis=0)
        try:
            rows[a] = np.linalg.solve(rest, np.ones(gdim))
        except np.linalg.LinAlgError as exc:
            raise InputError("vertices are affinely dependent") from exc
        if rows[a] @ verts[a] >= 1.0 - 1e-10:
            raise InputError("origin is not in the interior of the simplex")
    a = np.stack([np.diag(rows[:, j]).astype(complex) for j in range(gdim)])
    return GalleryEntry("simplex", a, notes="free simplex from level-1 vertices")


# ---------------------------------------------------------------------------
# TV screen: a projected spectrahedron
# ---------------------------------------------------------------------------

def tv_poly(x, y) -> np.ndarray:
    """Defining polynomial ``I - X^2 - Y^4`` of the TV screen."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    y2 = y @ y
    return np.eye(x.shape[0]) - x @ x - y2 @ y2


def tv_lift(a: float = 1.0) -> GalleryEntry:
    """Pencil in (x, y, w) projecting onto the TV screen in (x, y).

    With ``gamma = (1 + a^2)^(1/4)`` the pencil is the monicized block pair
    ``[[1, gamma*y], [gamma*y, w + a]]`` and
    ``[[1, 0, gamma^2 x], [0, 1, w], [gamma^2 x, w, 1 - 2 a w]]``;
    a point ``(X, Y, W)`` is a member iff the rescaled hidden coordinate
    ``What = (W + a I) / gamma^2`` satisfies ``What >= Y^2`` and
    ``I - X^2 - What^2 >= 0``. Projecting out ``w`` therefore yields exactly
    ``{(X, Y) : I - X^2 - Y^4 >= 0}``.
    """
    if a <= 0:
        raise InputError("lift parameter must be positive")
    gamma2 = float(np.sqrt(1.0 + a * a))
    gamma = float(np.sqrt(gamma2))
    m0 = np.diag([1.0, a, 1.0, 1.0, 1.0])
    mx = np.zeros((5, 5))
    mx[2, 4] = mx[4, 2] = gamma2
    my = np.zeros((5, 5))
    my[0, 1] = my[1, 0] = gamma
    mw = np.zeros((5, 5))
    mw[1, 1] = 1.0
    mw[3, 4] = mw[4, 3] = 1.0
    mw[4, 4] = -2.0 * a
    p = np.diag(1.0 / np.sqrt(np.diag(m0)))
    coeffs = np.stack([-(p @ m @ p) for m in (mx, my, mw)]).astype(complex)
    return GalleryEntry(
        "tv-screen",
        coeffs,
        visible_vars=2,
        notes="lift of {I - X^2 - Y^4 >= 0}; hidden coordinate w",
        aux={"a": a, "gamma": gamma, "hidden_shift": a, "hidden_scale": gamma2},
    )


def tv_exceptional_point() -> dict:
    """Boundary point of the lifted TV set whose projection exits the set.

    Returns hat coordinates ``x, y, w`` (2x2 real) with
    ``I - X^2 - W^2 = 0``, ``J = W - Y^2`` rank-one PSD, ``||W|| = 1`` and
    ``min_eig(I - X^2 - Y^4) = mu^2 (3 - sqrt(10)) < 0``, together with the
    scalar ``mu = 2 / (3 + sqrt 5)``.
    """
    mu = 2.0 / (3.0 + np.sqrt(5.0))
    y = np.sqrt(mu) * np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    w = mu * np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    w2 = w @ w
    vals, vecs = linalg.eigh(np.eye(2) - w2)
    x = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
    return {"x": x, "y": y, "w": w, "mu": float(mu)}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def build(name: str, g: Optional[int] = None, a: Optional[float] = None) -> GalleryEntry:
    """Build a gallery entry by name (used by the command line)."""
    name = name.replace("_", "-")
    if name == "cube":
        return cube(g if g is not None else 2)
    if name == "interval":
        return interval()
    if name == "spin-disk":
        return spin_disk()
    if name == "wild-disk":
        return wild_disk()
    if name in ("simplex", "naimark"):
        return simplex(g if g is not None else 2)
    if name == "tv-screen":
        return tv_lift(a if a is not None else 1.0)
    raise InputError(
        f"unknown gallery entry {name!r}; available: cube, interval, "
        "spin-disk, wild-disk, simplex (alias naimark), tv-screen"
    )


GALLERY_NAMES = ("cube", "interval", "spin-disk", "wild-disk", "simplex", "naimark",
                 "tv-screen")
