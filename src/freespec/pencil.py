"""Monic linear pencils, tuple JSON I/O and membership.

A g-tuple ``A`` of Hermitian ``d x d`` coefficient matrices defines the monic
pencil ``L_A(X) = I - sum_j A_j ⊗ X_j`` and its homogeneous part
``Lam_A(X) = sum_j A_j ⊗ X_j``; the positivity domain of ``L_A`` is evaluated
levelwise on Hermitian tuples ``X`` of any size ``n``.

Tuples travel as JSON objects ``{"g": int, "n": int, "matrices": [...]}`` where
each matrix is a row-major list of ``[re, im]`` entry pairs. Loaders reject
matrices whose Hermitian defect exceeds a relative 1e-10 and store the
symmetrized data.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError
from .linalg import TOL


# ---------------------------------------------------------------------------
# tuple JSON I/O
# ---------------------------------------------------------------------------

def as_tuple(matrices, what: str = "tuple") -> np.ndarray:
    """Coerce a sequence of matrices into a validated (g, n, n) Hermitian stack.

    Level-1 points may be passed as plain length-g vectors.
    """
    arr = np.asarray(matrices, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1, 1)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise InputError(f"{what} must be a stack of square matrices, got {arr.shape}")
    if arr.shape[0] == 0:
        raise InputError(f"{what} must contain at least one matrix")
    return np.stack(
        [linalg.check_hermitian(a, what=f"{what}[{j}]") for j, a in enumerate(arr)]
    )


def tuple_to_json(a) -> dict:
    """Serialize a Hermitian tuple to the shared JSON schema."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 2:
        a = a[None]
    g, n, _ = a.shape
    mats = [[[[float(e.real), float(e.imag)] for e in row] for row in m] for m in a]
    return {"g": g, "n": n, "matrices": mats}


def tuple_from_json(obj) -> np.ndarray:
    """Load a validated Hermitian tuple from the shared JSON schema."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise InputError("tuple JSON must be an object")
    if "matrices" not in obj and isinstance(obj.get("pencil"), dict):
        # gallery files wrap the coefficient tuple under a "pencil" key
        obj = obj["pencil"]
    for key in ("g", "n", "matrices"):
        if key not in obj:
            raise InputError(f"tuple JSON is missing key {key!r}")
    g, n = _size(obj, "g"), _size(obj, "n")
    mats = obj["matrices"]
    if not isinstance(mats, list):
        raise InputError("tuple JSON key 'matrices' must be a list")
    if len(mats) != g:
        raise InputError(f"expected {g} matrices, got {len(mats)}")
    # every shape is checked before the (g, n, n) array is allocated
    for j, m in enumerate(mats):
        if (not isinstance(m, list) or len(m) != n
                or any(not isinstance(row, list) or len(row) != n for row in m)):
            raise InputError(f"matrix {j} is not {n}x{n}")
    out = np.zeros((g, n, n), dtype=complex)
    for j, m in enumerate(mats):
        for r, row in enumerate(m):
            for c, entry in enumerate(row):
                if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                        and all(_is_number(v) for v in entry)):
                    raise InputError(
                        f"matrix {j} entry ({r},{c}) must be an [re, im] pair of "
                        "finite numbers"
                    )
                out[j, r, c] = float(entry[0]) + 1j * float(entry[1])
    return as_tuple(out)


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _size(obj: dict, key: str) -> int:
    """``obj[key]`` as a positive integer; an integral float is accepted."""
    v = obj[key]
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 1:
        raise InputError(f"tuple JSON key {key!r} must be a positive integer, got {v!r}")
    return int(v)


def read_tuple(path) -> np.ndarray:
    """Read a tuple from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return tuple_from_json(json.load(fh))


def write_tuple(path, a) -> None:
    """Write a tuple to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tuple_to_json(a), fh)
        fh.write("\n")


def direct_sum(tuples) -> np.ndarray:
    """Coordinatewise direct sum of Hermitian g-tuples.

    Every input must share the same ``g``; the result has size equal to the
    sum of the input sizes, with the summands placed as diagonal blocks in
    the given order.
    """
    stacks = [as_tuple(t, what="summand") for t in tuples]
    if not stacks:
        raise InputError("direct_sum needs at least one summand")
    g = stacks[0].shape[0]
    if any(s.shape[0] != g for s in stacks):
        raise InputError("direct_sum needs tuples with a common g")
    total = sum(s.shape[1] for s in stacks)
    out = np.zeros((g, total, total), dtype=complex)
    at = 0
    for s in stacks:
        n = s.shape[1]
        out[:, at:at + n, at:at + n] = s
        at += n
    return out


# ---------------------------------------------------------------------------
# pencil evaluation
# ---------------------------------------------------------------------------

def check_compatible(a, x) -> tuple[np.ndarray, np.ndarray]:
    """Validate that pencil coefficients and point have matching length g."""
    a = np.asarray(a, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        # level-1 points may be given as plain real/complex vectors
        x = x.reshape(-1, 1, 1)
    if a.ndim == 2:
        a = a[None]
    if x.ndim == 2:
        x = x[None]
    if a.shape[0] != x.shape[0]:
        raise InputError(
            f"pencil has g={a.shape[0]} but point has g={x.shape[0]} coordinates"
        )
    return a, x


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """``0 + terms[0] + terms[1] + ...``, added in this order.

    This rounds as a loop adding one Kronecker product per variable does:
    ``terms.sum(axis=0)`` sums long stacks pairwise, which can differ in the
    last bit, and a sum started from ``terms[0]`` keeps its negative zeros.
    """
    out = np.zeros(terms.shape[1:], dtype=complex)
    for term in terms:
        out += term
    return out


def eval_hom(a, x) -> np.ndarray:
    """Homogeneous pencil ``sum_j A_j ⊗ X_j`` of size (d*n, d*n).

    All ``A_j ⊗ X_j`` come from one broadcast product, the elementwise
    product a Kronecker product is made of, so the result is bitwise equal
    to adding the Kronecker products one by one to zeros in order of ``j``.
    """
    a, x = check_compatible(a, x)
    d, n = a.shape[1], x.shape[1]
    terms = a[:, :, None, :, None] * x[:, None, :, None, :]
    return _sum_in_order(terms.reshape(-1, d * n, d * n))


def eval_monic(a, x) -> np.ndarray:
    """Monic pencil ``I - sum_j A_j ⊗ X_j`` of size (d*n, d*n)."""
    lam = eval_hom(a, x)
    return np.eye(lam.shape[0]) - lam


def eval_hom_col(a, alpha) -> np.ndarray:
    """Column evaluation ``sum_j A_j ⊗ alpha_j`` of shape (d*n, d).

    ``alpha`` is a g-tuple of column vectors in C^n, passed as a (g, n) array.
    Built like :func:`eval_hom`, from one broadcast product, and bitwise equal
    to adding the Kronecker products of ``A_j`` with ``alpha_j`` as an
    ``(n, 1)`` column one by one to zeros in order of ``j``.
    """
    a = np.asarray(a, dtype=complex)
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.ndim == 1:
        alpha = alpha[None]
    if a.shape[0] != alpha.shape[0]:
        raise InputError("coefficient tuple and column tuple have different g")
    d, n = a.shape[1], alpha.shape[1]
    terms = a[:, :, None, :] * alpha[:, None, :, None]
    return _sum_in_order(terms.reshape(-1, d * n, d))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


@dataclass
class MembershipReport:
    """Result of a levelwise membership test.

    ``status`` is one of interior / boundary / outside, decided by the smallest
    eigenvalue of ``L_A(X)`` against ``tol`` (boundary is the two-sided band
    ``|min_eig| <= tol``). ``kernel`` holds an orthonormal basis of
    ``ker L_A(X)`` (empty for interior points).
    """

    status: str
    min_eig: float
    kernel: np.ndarray
    tol: float

    @property
    def is_member(self) -> bool:
        return self.status != OUTSIDE

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "min_eig": self.min_eig,
            "kernel_dim": int(self.kernel.shape[1]),
            "tol": self.tol,
        }


def membership(a, x, tol: float = TOL) -> MembershipReport:
    """Classify ``X`` against the free spectrahedron of the pencil ``A``."""
    return membership_from_eig(linalg.eigh(eval_monic(a, x)), tol=tol)


def membership_from_eig(eig: linalg.EigDecomp, tol: float = TOL) -> MembershipReport:
    """The :func:`membership` verdict read off a given eigendecomposition
    of ``L_A(X)``."""
    w, v = eig
    me = float(w[0])
    if me > tol:
        status = INTERIOR
        kernel = np.zeros((v.shape[0], 0), dtype=complex)
    elif me < -tol:
        status = OUTSIDE
        kernel = np.zeros((v.shape[0], 0), dtype=complex)
    else:
        status = BOUNDARY
        cut = tol * max(1.0, float(np.abs(w).max()))
        kernel = v[:, np.abs(w) <= cut]
    return MembershipReport(status=status, min_eig=me, kernel=kernel, tol=tol)


def scale_to_boundary(a, h, tol: float = TOL):
    """Scale a direction tuple ``h`` onto the boundary of the spectrahedron.

    Returns ``(t, x)`` with ``x = t*h`` and ``min_eig(L_A(x)) = 0`` up to
    numerics, or ``None`` if the ray from the origin through ``h`` never
    leaves the set (``lambda_max(Lam_A(h)) <= tol``).
    """
    lam = eval_hom(a, h)
    top = float(linalg.eigh(lam).w[-1])
    if top <= tol:
        return None
    t = 1.0 / top
    return t, t * np.asarray(h, dtype=complex)
