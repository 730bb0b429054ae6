"""Structure of Hermitian tuples: commutants, irreducible decomposition,
unitary equivalence, minimal defining tuples and free simplices.

A tuple is irreducible when its commutant is trivial. ``reducing_split``
cuts a tuple at the largest spectral gap of a Hermitian commutant element, a
deterministic rule shared by the irreducibility test and by
``decompose_irreducibles``, which splits any tuple into a direct sum of
irreducibles grouped into unitary equivalence classes with multiplicities.
``intertwiners`` solves ``C X_j = Y_j C`` for the commutant, for
``unitarily_equivalent`` and for ``match_summands``; ``minimal_defining``
prunes summands that do not change the free spectrahedron, which leaves the
atoms of the polar dual hull (see :func:`feasibility.arveson_in_hull`). Free
simplices (bounded spectrahedra of commuting minimal tuples with g+1
summands; the facet matrix decides boundedness) get a normal form onto the
fixed reference tuple :func:`reference_simplex`, certified by unitary
equivalence (the Gleichstellensatz). Nothing here samples points to check
its own answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import feasibility, linalg, pencil
from .errors import InputError, NumericalError
from .linalg import TOL


def intertwiners(x, y, tol: float = TOL) -> np.ndarray:
    """Orthonormal basis (Frobenius) of ``{C : C X_j = Y_j C for all j}``.

    The tuples share one shape; the basis is a ``(k, n, n)`` stack (``k`` may
    be 0). Row-major vectorization turns each equation into
    ``(Y_j ⊗ I - I ⊗ X_j^T) vec(C) = 0``. Each of the two Kronecker terms is
    built for every ``j`` at once by one broadcast product, bitwise equal to
    the Kronecker products one ``j`` at a time.
    """
    x = pencil.as_tuple(x, what="first tuple")
    y = pencil.as_tuple(y, what="second tuple")
    n = x.shape[1]
    eye = np.eye(n)
    left = y[:, :, None, :, None] * eye[None, None, :, None, :]
    right = eye[None, :, None, :, None] * x.transpose(0, 2, 1)[:, None, :, None, :]
    rows = (left - right).reshape(-1, n * n)
    return linalg.null_space(rows, tol=tol).T.reshape(-1, n, n)


def commutant(x, tol: float = TOL) -> np.ndarray:
    """The intertwiners of ``x`` with itself; ``k >= 1`` since ``I`` commutes."""
    return intertwiners(x, x, tol=tol)


def commutant_dim(x, tol: float = TOL) -> int:
    return commutant(x, tol=tol).shape[0]


# ---------------------------------------------------------------------------
# irreducible decomposition
# ---------------------------------------------------------------------------

@dataclass
class Decomposition:
    """Decomposition of a tuple into irreducible summands.

    ``unitary`` satisfies ``unitary* X_j unitary ≈ reassemble()[j]`` where the
    reassembled tuple is ``⊕_c (I_{mult[c]} ⊗ blocks[c])`` in class order:
    equivalent summands are literally equal to their class representative.
    """

    blocks: list = field(default_factory=list)
    multiplicities: list = field(default_factory=list)
    unitary: np.ndarray = None

    @property
    def n_classes(self) -> int:
        return len(self.blocks)

    @property
    def block_sizes(self) -> list:
        return [b.shape[1] for b in self.blocks]

    def reassemble(self) -> np.ndarray:
        parts = []
        for b, m in zip(self.blocks, self.multiplicities):
            parts.extend([b] * m)
        return pencil.direct_sum(parts)

    def to_json(self) -> dict:
        return {
            "classes": [
                {"size": int(b.shape[1]), "multiplicity": int(m),
                 "block": pencil.tuple_to_json(b)}
                for b, m in zip(self.blocks, self.multiplicities)
            ],
        }


def reducing_split(x, tol: float = TOL):
    """``(commutant_dim, (V_low, V_high))``: isometries onto complementary
    invariant subspaces, or None in place of the pair for a trivial commutant.

    The first non-scalar Hermitian part of ``C`` or ``iC`` over the commutant
    basis commutes with the tuple; its spectrum is cut at the largest gap.
    """
    basis = commutant(x, tol=tol)
    k, n = basis.shape[:2]
    if k == 1:
        return 1, None
    for c in basis:
        for h in (linalg.hermitian_part(c), linalg.hermitian_part(1j * c)):
            if np.linalg.norm(h - np.trace(h) / n * np.eye(n)) < 10 * tol:
                continue
            w, v = linalg.eigh(h)
            cut = int(np.argmax(np.diff(w))) + 1
            return k, (v[:, :cut], v[:, cut:])
    return k, None


def _irreducible_leaves(x, tol):
    """Recursively split into irreducible pieces; yields (isometry, block)."""
    split = reducing_split(x, tol)[1]
    if split is None:
        yield np.eye(x.shape[1], dtype=complex), x
        return
    for v in split:
        sub = np.stack([v.conj().T @ xj @ v for xj in x])
        for w, block in _irreducible_leaves(sub, tol):
            yield v @ w, block


def _class_key(block):
    """Deterministic sort key for an irreducible block."""
    traces = tuple(round(float(np.trace(bj).real), 6) for bj in block)
    spec = tuple(round(float(t), 6) for t in linalg.eigh(block[0]).w)
    return (block.shape[1], traces, spec)


def decompose_irreducibles(x, tol: float = TOL) -> Decomposition:
    """Split a Hermitian tuple into irreducible summands up to equivalence.

    Each piece is split in two by :func:`reducing_split` until its commutant
    is trivial, so the result depends on nothing but the input. Equivalent
    irreducible summands are rotated to literally equal their class
    representative, so ``unitary* X unitary`` matches ``reassemble()`` to
    within ~1e-7.
    """
    x = pencil.as_tuple(x, what="tuple")
    leaves = list(_irreducible_leaves(x, tol))

    classes = []  # [representative, [isometries...]]
    for iso, block in leaves:
        placed = False
        for entry in classes:
            rep = entry[0]
            if rep.shape[1] != block.shape[1]:
                continue
            ok, u = _equivalent_irreducible(block, rep, tol=tol)
            if ok:
                entry[1].append(iso @ u)
                placed = True
                break
        if not placed:
            classes.append([block, [iso]])

    classes.sort(key=lambda entry: _class_key(entry[0]))
    blocks = [entry[0] for entry in classes]
    mults = [len(entry[1]) for entry in classes]
    unitary = np.hstack([iso for entry in classes for iso in entry[1]])
    dec = Decomposition(blocks=blocks, multiplicities=mults, unitary=unitary)

    target = dec.reassemble()
    err = max(
        float(np.abs(unitary.conj().T @ xj @ unitary - tj).max())
        for xj, tj in zip(x, target)
    )
    if err > 1e-7:
        raise NumericalError(f"decomposition residual {err:.2e} exceeds 1e-7")
    return dec


# ---------------------------------------------------------------------------
# unitary equivalence
# ---------------------------------------------------------------------------

def _equivalent_irreducible(x, y, tol: float = TOL):
    """Unitary equivalence of two irreducible tuples of equal size.

    Solves the intertwiner equation ``C X_j = Y_j C``; for irreducible tuples
    any nonzero solution satisfies ``C* C = mu I`` and rescales to a unitary.
    Returns ``(True, U)`` with ``U* X_j U = Y_j`` or ``(False, None)``.
    """
    n = x.shape[1]
    eye = np.eye(n)
    ker = intertwiners(x, y, tol=tol)
    if ker.shape[0] == 0:
        return False, None
    c = ker[0]
    mu = float(np.trace(c.conj().T @ c).real) / n
    if mu < tol:
        return False, None
    if np.abs(c.conj().T @ c - mu * eye).max() > 1e-6 * max(1.0, mu):
        # nonzero intertwiner that is not a multiple of a unitary: the
        # tuples were not both irreducible; treat as inequivalent here
        return False, None
    u = (c / np.sqrt(mu)).conj().T
    err = max(float(np.abs(u.conj().T @ xj @ u - yj).max()) for xj, yj in zip(x, y))
    if err > 1e-6:
        return False, None
    return True, u


def unitarily_equivalent(x, y, tol: float = TOL):
    """Decide simultaneous unitary equivalence ``U* X_j U = Y_j``.

    Returns ``(flag, U)``. Both sides are decomposed and matched class by
    class (sizes and multiplicities must agree), each pair of classes through
    the intertwiner equation.
    """
    x = pencil.as_tuple(x, what="first tuple")
    y = pencil.as_tuple(y, what="second tuple")
    if x.shape != y.shape:
        return False, None
    dx = decompose_irreducibles(x, tol=tol)
    dy = decompose_irreducibles(y, tol=tol)
    if dx.n_classes != dy.n_classes:
        return False, None
    if dx.multiplicities != dy.multiplicities:
        return False, None

    # match x-classes to y-classes bijectively
    used = [False] * dy.n_classes
    pairing = [None] * dx.n_classes
    for i, bx in enumerate(dx.blocks):
        for k, by in enumerate(dy.blocks):
            if used[k] or bx.shape[1] != by.shape[1]:
                continue
            if dx.multiplicities[i] != dy.multiplicities[k]:
                continue
            ok, u = _equivalent_irreducible(bx, by, tol=tol)
            if ok:
                pairing[i] = (k, u)
                used[k] = True
                break
        if pairing[i] is None:
            return False, None

    # offsets of each class in the two block layouts
    def offsets(dec):
        out, at = [], 0
        for b, m in zip(dec.blocks, dec.multiplicities):
            out.append(at)
            at += b.shape[1] * m
        return out

    n = x.shape[1]
    offx, offy = offsets(dx), offsets(dy)
    t = np.zeros((n, n), dtype=complex)
    for i, (k, u) in enumerate(pairing):
        size = dx.blocks[i].shape[1]
        m = dx.multiplicities[i]
        t[offx[i]:offx[i] + size * m, offy[k]:offy[k] + size * m] = np.kron(
            np.eye(m), u
        )
    big_u = dx.unitary @ t @ dy.unitary.conj().T
    err = max(
        float(np.abs(big_u.conj().T @ xj @ big_u - yj).max())
        for xj, yj in zip(x, y)
    )
    if err > 1e-6:
        return False, None
    return True, big_u


def match_summands(x, summands, tol: float = TOL):
    """``(U, Y)`` with ``U* X_j U = Y_j``, ``Y`` a direct sum of members of
    ``summands`` (irreducible tuples), or None when some irreducible summand
    of ``X`` is equivalent to none of them.

    Each class of :func:`decompose_irreducibles` is matched through the
    intertwiner equation; a ``U`` that misses ``Y`` or unitarity by more than
    1e-7 raises ``NumericalError``.
    """
    x = pencil.as_tuple(x, what="tuple")
    dec = decompose_irreducibles(x, tol=tol)
    rotations, parts = [], []
    for block, mult in zip(dec.blocks, dec.multiplicities):
        for atom in summands:
            if atom.shape[1] == block.shape[1]:
                ok, u = _equivalent_irreducible(block, atom, tol=tol)
                if ok:
                    break
        else:
            return None
        rotations.extend([u] * mult)
        parts.extend([atom] * mult)
    n = x.shape[1]
    t, at = np.zeros((n, n), dtype=complex), 0
    for u in rotations:
        size = u.shape[0]
        t[at:at + size, at:at + size] = u
        at += size
    unitary = dec.unitary @ t
    target = pencil.direct_sum(parts)
    err = max(float(np.abs(unitary.conj().T @ unitary - np.eye(n)).max()),
              max(float(np.abs(unitary.conj().T @ xj @ unitary - yj).max())
                  for xj, yj in zip(x, target)))
    if err > 1e-7:
        raise NumericalError(f"summand match residual {err:.2e} exceeds 1e-7")
    return unitary, target


# ---------------------------------------------------------------------------
# minimal defining tuples
# ---------------------------------------------------------------------------

@dataclass
class MinimalDefiningReport:
    """A pruned tuple defining the same free spectrahedron.

    ``tuple`` is the direct sum of the kept inequivalent irreducible
    ``summands``. ``duplicates_removed`` counts equivalent irreducible copies
    merged during decomposition; ``summands_removed`` counts inequivalent
    summands whose removal was certified not to change the spectrahedron.
    ``caveats`` lists anything that kept the search conservative (e.g.
    inclusion solves that returned no certificate, so a possibly redundant
    summand was kept).
    """

    tuple: np.ndarray
    summands_removed: int
    duplicates_removed: int
    caveats: list
    summands: list = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "tuple": pencil.tuple_to_json(self.tuple),
            "summands_removed": self.summands_removed,
            "duplicates_removed": self.duplicates_removed,
            "caveats": list(self.caveats),
        }


def minimal_defining(a, tol: float = TOL, seed=0) -> MinimalDefiningReport:
    """Prune a defining tuple without changing its free spectrahedron.

    Decomposes into inequivalent irreducible summands (dropping repeated
    copies, which never change the spectrahedron), then greedily removes
    summands — largest first, trace order breaking ties — whenever the
    remaining direct sum's spectrahedron is certified to sit inside the
    candidate's. ``seed`` reaches only the witness search of
    :func:`feasibility.inclusion`.

    The result rests on per-summand evidence, not on samples: every removal
    carries a Choi certificate; every kept summand carries an ``inclusion``
    witness (a point of the rest outside it) or a "no certificate" caveat.
    Removing summands only enlarges the spectrahedron of the rest, so a
    witness found against a larger rest stays valid in the final tuple.

    A Choi certificate of ``D_rest ⊆ D_i`` puts summand ``i`` in the matrix
    convex hull of the rest, and a witness keeps it out, so without caveats
    the kept ``summands`` are the atoms of :func:`feasibility.arveson_in_hull`.
    """
    a = pencil.as_tuple(a, what="pencil")
    dec = decompose_irreducibles(a, tol=tol)
    reps = list(dec.blocks)
    duplicates = sum(m - 1 for m in dec.multiplicities)
    caveats = []

    order = sorted(
        range(len(reps)),
        key=lambda i: _class_key(reps[i]),
        reverse=True,
    )
    keep = set(range(len(reps)))
    removed = 0
    for i in order:
        if len(keep) == 1:
            break
        others = [reps[k] for k in sorted(keep - {i})]
        rest = pencil.direct_sum(others)
        res = feasibility.inclusion(rest, reps[i], seed=seed, tol=tol)
        if res.status == feasibility.INCLUDED:
            keep.discard(i)
            removed += 1
        elif res.status == feasibility.NO_CERTIFICATE:
            caveats.append(
                f"summand {i} kept: inclusion solver returned no certificate"
            )
    kept = [reps[k] for k in sorted(keep)]
    return MinimalDefiningReport(
        tuple=pencil.direct_sum(kept),
        summands_removed=removed,
        duplicates_removed=duplicates,
        caveats=caveats,
        summands=kept,
    )


# ---------------------------------------------------------------------------
# free simplices and their normal form
# ---------------------------------------------------------------------------

def reference_simplex(g: int) -> np.ndarray:
    """The reference simplex tuple of size g+1 in g variables.

    ``N_j = -E_jj + (1/(g+1)) E_{g+1,g+1}``; its spectrahedron is the simplex
    ``{X : X_j >= -I, sum_j X_j <= (g+1) I}``.
    """
    if g < 1:
        raise InputError("need at least one variable")
    out = np.zeros((g, g + 1, g + 1), dtype=complex)
    for j in range(g):
        out[j, j, j] = -1.0
        out[j, g, g] = 1.0 / (g + 1)
    return out


@dataclass
class SimplexReport:
    """Outcome of the free-simplex recognition test.

    When ``is_simplex`` is true, ``facets`` has one row per summand of the
    minimal commuting tuple: facet ``a`` is ``I - sum_s facets[a, s] X_s >= 0``.
    Row ``a`` of ``vertices`` is the level-1 vertex opposite facet ``a``: the
    point where every other facet holds with equality.
    """

    is_simplex: bool
    reasons: list
    facets: Optional[np.ndarray]
    vertices: Optional[np.ndarray]
    minimal: Optional[MinimalDefiningReport]

    def to_json(self) -> dict:
        out = {"is_simplex": self.is_simplex, "reasons": list(self.reasons)}
        if self.facets is not None:
            out["facets"] = [[float(v) for v in row] for row in self.facets]
        if self.vertices is not None:
            out["vertices"] = [[float(v) for v in row] for row in self.vertices]
        return out


def _joint_diagonal(b, tol: float) -> Optional[np.ndarray]:
    """Rows of jointly diagonalized commuting tuple; None if not commuting."""
    g, n = b.shape[0], b.shape[1]
    for i in range(g):
        for j in range(i + 1, g):
            if np.abs(b[i] @ b[j] - b[j] @ b[i]).max() > 1e-7:
                return None
    dec = decompose_irreducibles(b, tol=tol)
    if any(s != 1 for s in dec.block_sizes):
        return None
    u = dec.unitary
    diag = np.stack([(u.conj().T @ bj @ u).diagonal().real for bj in b])
    return diag.T  # (n, g): row a holds the joint eigenvalue of summand a


def _barycentric(facets: np.ndarray, tol: float):
    """``(drop, rest, weights)`` with ``facets[drop] = -weights @ rest``, or
    None when the level-1 polytope ``{x : facets @ x <= 1}`` is unbounded.

    ``g+1`` facets in ``g`` variables bound the polytope iff they have rank
    ``g`` and a strictly positive dependency; then every drop-one system is
    nonsingular with positive weights, so the best-conditioned one decides
    (smallest singular value at least 1e-10, every weight above ``tol``).
    Level 1 decides every level: compressing a point to a unit vector gives
    a level-1 point, and these reach each ``||X_j||``.
    """
    g = facets.shape[1]
    sig_min = [np.linalg.svd(np.delete(facets, drop, axis=0), compute_uv=False)[-1]
               for drop in range(g + 1)]
    drop = int(np.argmax(sig_min))
    if sig_min[drop] < 1e-10:
        return None
    rest = np.delete(facets, drop, axis=0)
    weights = -(facets[drop] @ np.linalg.inv(rest))
    if not np.all(weights > tol):
        return None
    return drop, rest, weights


def is_free_simplex(a, tol: float = TOL, seed=0) -> SimplexReport:
    """Decide whether the free spectrahedron of ``a`` is a free simplex.

    Requires a minimal defining tuple that commutes, with exactly g+1
    inequivalent one-dimensional summands, and a bounded spectrahedron.
    Facet data is read off the joint diagonalization, and boundedness is
    decided exactly on the facet matrix by :func:`_barycentric`. ``seed``
    reaches only the witness search of :func:`minimal_defining`.
    """
    a = pencil.as_tuple(a, what="pencil")
    g = a.shape[0]
    md = minimal_defining(a, tol=tol, seed=seed)
    b = md.tuple
    facets = _joint_diagonal(b, tol)  # (g+1, g) when a simplex
    if facets is None:
        reason = "minimal defining tuple is not simultaneously diagonal"
    elif b.shape[1] != g + 1:
        reason = f"minimal commuting tuple has {b.shape[1]} summands, need g+1={g + 1}"
    elif _barycentric(facets, tol) is None:
        reason = "boundedness check returned unbounded"
    else:
        verts = np.stack([np.linalg.solve(np.delete(facets, drop, axis=0), np.ones(g))
                          for drop in range(g + 1)])
        return SimplexReport(True, [], facets, verts, md)
    return SimplexReport(False, [reason], None, None, md)


@dataclass
class AffineMap:
    """Affine change of variables ``Y_j = sum_k linear[j, k] X_k + offset[j] I``."""

    linear: np.ndarray
    offset: np.ndarray

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.ndim == 1:
            x = x.reshape(-1, 1, 1)
        if x.ndim == 2:
            x = x[None]
        n = x.shape[1]
        eye = np.eye(n)
        return np.stack(
            [
                np.tensordot(self.linear[j], x, axes=1) + self.offset[j] * eye
                for j in range(self.linear.shape[0])
            ]
        )

    def to_json(self) -> dict:
        return {
            "linear": [[float(v) for v in row] for row in self.linear],
            "offset": [float(v) for v in self.offset],
        }


@dataclass
class NormalFormReport:
    """The normal-form map and its certificate: ``unitary* B_min unitary``
    equals the reference simplex pulled back through ``map``, where ``B_min``
    is the minimal tuple of ``simplex``. Readers re-check the map against the
    ``facets`` that :class:`SimplexReport` prints."""

    map: AffineMap
    dropped_facet: int
    unitary: np.ndarray
    simplex: SimplexReport

    def to_json(self) -> dict:
        return {
            "map": self.map.to_json(),
            "dropped_facet": int(self.dropped_facet),
        }


def simplex_normal_form(a, tol: float = TOL, seed=0) -> NormalFormReport:
    """Affine map carrying a free simplex onto the reference simplex.

    The ``g`` facets kept by :func:`_barycentric` are normalized so that the
    image is exactly the spectrahedron of :func:`reference_simplex`. The map
    ``Y_j = sum_k linear[j, k] X_k + offset[j] I`` pulls ``L_N`` back to
    ``P^{1/2} L_B P^{1/2}`` with ``P = I - sum_j offset_j N_j`` and
    ``B_k = P^{-1/2} (sum_j linear[j, k] N_j) P^{-1/2}``, all diagonal. By the
    Gleichstellensatz (Helton, Klep & McCullough, Math. Program. 2013) the map
    is right iff ``B`` is unitarily equivalent to the minimal tuple of ``a``;
    otherwise :class:`NumericalError` is raised.
    """
    a = pencil.as_tuple(a, what="pencil")
    g = a.shape[0]
    rep = is_free_simplex(a, tol=tol, seed=seed)
    if not rep.is_simplex:
        raise InputError(
            "normal form needs a free simplex; reasons: " + "; ".join(rep.reasons)
        )
    drop, s, bvec = _barycentric(rep.facets, tol)
    weights = bvec / (1.0 + bvec.sum())
    linear = -(2 * g + 1) * (weights[:, None] * s)
    offset = (2 * g + 1) * weights - 1.0
    amap = AffineMap(linear=linear, offset=offset)

    ref = reference_simplex(g).diagonal(axis1=1, axis2=2).real  # (g, g+1)
    p = 1.0 - offset @ ref
    if not np.all(p > 0):
        raise NumericalError("normal form sends the origin outside the reference simplex")
    pulled = np.stack([np.diag(row / p) for row in linear.T @ ref]).astype(complex)
    ok, unitary = unitarily_equivalent(rep.minimal.tuple, pulled, tol=tol)
    if not ok:
        raise NumericalError("pulled-back reference is not equivalent to the minimal tuple")
    return NormalFormReport(map=amap, dropped_facet=drop, unitary=unitary, simplex=rep)
