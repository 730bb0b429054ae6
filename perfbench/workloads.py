"""The four workloads: fixed, seeded operation lists with their checks.

``build(name, seed, workdir, smoke)`` returns the list of operations one
round runs. Each operation is a call into freespec (``run``) and a judgement
of its output by the checker in ``check.py`` (``check``). Inputs come from
``inputs.py`` (numpy alone) and ``freespec.gallery`` for the named models.
The same seed gives the same list; a smoke list is its first few operations.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import check
import inputs
from inputs import boundary_point, direct_sum, traceless_pencil

from freespec import cli, extreme, feasibility, gallery

#: how often each workload's seeded list repeats with fresh inputs: one
#: round then holds over 100 operations and, on a 2-core x86 VM with one
#: BLAS thread, runs for 17–30 s
CLASSIFY_REPS = 3
ORACLE_REPS = 3
HULL_REPS = 12
DROP_REPS = 4
SMOKE_OPS = 8


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str]]


def build(name: str, seed: int, workdir: str, smoke: bool = False) -> list[Op]:
    """The round's operations; ``smoke`` keeps only the first few."""
    rng = np.random.default_rng(seed)
    if name == "classify":
        ops = _classify(rng, workdir)
    elif name == "oracle":
        ops = _oracle(rng)
    elif name == "hull":
        ops = _hull(rng)
    elif name == "drop":
        ops = _drop(rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    # interleave the kinds of operation, so that a slow spell of the host
    # does not fall on one kind; the first operation, a cheap one, stays
    # first as the warm-up
    order = np.random.default_rng([seed, 1]).permutation(len(ops) - 1) + 1
    ops = ops[:1] + [ops[i] for i in order]
    return ops[:SMOKE_OPS] if smoke else ops


# ---------------------------------------------------------------------------
# classify: the full CLI verdict, in-process
# ---------------------------------------------------------------------------

#: boundary points scaled outward by this factor sit inside the +-tol
#: "boundary" band with min_eig about -5e-9, where the witnesses the program
#: returns do not verify; these inputs do not depend on the seed
NEAR_FACTOR = 1 + 5e-9
NEAR_SEED = 3


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _classify(rng, workdir: str) -> list[Op]:
    levels = (1, 2, 3, 4, 5, 6)
    models = {
        "cube2": gallery.cube(2).pencil,
        "cube3": gallery.cube(3).pencil,
        "spin": gallery.spin_disk().pencil,
        "wild": gallery.wild_disk().pencil,
        "simplex": gallery.simplex(2).pencil,
        "tv": gallery.tv_lift(1.0).pencil,
    }
    cases = []  # (model, point, expect)
    for rep in range(CLASSIFY_REPS):
        models[f"rand23.{rep}"] = traceless_pencil(2, 3, rng)
        models[f"rand34.{rep}"] = traceless_pencil(3, 4, rng)
        for name in ("cube2", "cube3", "spin", "wild", "simplex", "tv", f"rand23.{rep}",
                     f"rand34.{rep}"):
            a = models[name]
            for n in levels:
                cases.append((name, boundary_point(a, n, rng), {"member": "boundary"}))
                cases.append((name, 0.5 * boundary_point(a, n, rng), {"member": "interior"}))
            for n1, n2, shrink in ((1, 2, 1.0), (2, 3, 1.0), (3, 2, 0.5)):
                x = direct_sum(boundary_point(a, n1, rng), shrink * boundary_point(a, n2, rng))
                cases.append((name, x, {"member": "boundary", "reducible": True}))
        for n in levels:
            cases.append(("cube2", inputs.symmetry_tuple(2, n, rng),
                          {"member": "boundary", "arveson": True}))
            cases.append(("spin", inputs.circle_pair(n, rng),
                          {"member": "boundary", "arveson": True}))
            cases.append(("cube3", inputs.symmetry_tuple(3, n, rng),
                          {"member": "boundary", "arveson": True}))
    near_rng = np.random.default_rng(NEAR_SEED)
    for name in ("cube2", "spin", "wild"):
        x = NEAR_FACTOR * boundary_point(models[name], 2, near_rng)
        cases.append((name, x, {"near": True}))

    pencil_files = {}
    ops = []
    for i, (name, x, expect) in enumerate(cases):
        a = models[name]
        if name not in pencil_files:
            pencil_files[name] = _write_json(os.path.join(workdir, f"pencil_{name}.json"),
                                             inputs.tuple_json(a))
        point = _write_json(os.path.join(workdir, f"point_{i}.json"), inputs.tuple_json(x))
        out = os.path.join(workdir, f"out_{i}.json")
        argv = ["classify", "--pencil", pencil_files[name], "--point", point, "--out", out]
        ops.append(Op(f"classify/{name.split('.')[0]}/n{x.shape[1]}/{_kind(expect)}",
                      lambda argv=argv: cli.main(argv),
                      lambda rc, a=a, x=x, out=out, expect=expect:
                          check.check_classify(a, x, rc, _read_json(out) if rc == 0 else None,
                                               expect)))
    return ops


def _kind(expect: dict) -> str:
    if expect.get("near"):
        return "near"
    if expect.get("reducible"):
        return "sum"
    if expect.get("arveson"):
        return "arveson"
    return expect["member"]


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# oracle: the feasibility-solver dilation search
# ---------------------------------------------------------------------------

def _oracle(rng) -> list[Op]:
    # every (g, d, n) with g = 2, 3, d = 2..4 and n = 1..3 except g = 2, d = 4
    # above level 1, whose searches take up to 2 s each and would leave the
    # upper tail to a few operations
    configs = [(g, d, (1,) if (g, d) == (2, 4) else (1, 2, 3))
               for _ in range(ORACLE_REPS) for g in (2, 3) for d in (2, 3, 4)]
    ops = []
    for g, d, levels in configs:
        a = traceless_pencil(g, d, rng)
        for n in levels:
            # level-1 boundary points with g <= d are Arveson points, where
            # every direction runs out its stall window; two of each make
            # them a sixth of the list, so the 90th percentile falls among them
            boundary = 2 if n == 1 and g <= d else 1
            # interior points at g = 3, d = 4, level 2 cost what the median
            # operation costs; a group of them keeps the median inside it
            n_interior = 14 if (g, d, n) == (3, 4, 2) else 2
            for interior in (True,) * n_interior + (False,) * boundary:
                x = boundary_point(a, n, rng)
                ops.append(_oracle_op(a, 0.5 * x if interior else x, interior,
                                      f"oracle/g{g}d{d}/n{n}/"
                                      + ("interior" if interior else "boundary")))
    return ops


def _oracle_op(a, x, interior: bool, label: str) -> Op:
    cross = {}

    def judge(v):
        # the untimed cross-check, computed once per input
        if "arv" not in cross:
            cross["arv"] = extreme.is_arveson(a, x)
        arv = cross["arv"]
        return check.check_oracle(a, x, v.dilation_found, v.alpha, v.beta, arv.boundary,
                                  interior)

    return Op(label, lambda: extreme.dilation_oracle(a, x), judge)


# ---------------------------------------------------------------------------
# hull: membership and Arveson boundary in finitely generated hulls
# ---------------------------------------------------------------------------

#: arveson_in_hull's default normalization of the dilation column
HULL_DELTA = 1e-2


def stalled_member_point():
    """A compression that is a member by construction, on which the solver
    stops at two stall windows with residual 6.1e-3.

    It replays ``Omega = random_herm_tuple(2, 4, default_rng(2))`` and
    ``V = random_isometry(3, 4, rng)`` from ``freespec.linalg`` with numpy, so
    it does not depend on the seed.
    """
    rng = np.random.default_rng(2)
    omega = inputs.herm_tuple(2, 4, rng) / np.sqrt(2)
    v = inputs.isometry(3, 4, rng)
    return omega, inputs.compress(omega, v)


def _self_scaled(omega):
    """Scale a traceless generator into its own spectrahedron, with margin."""
    top = np.linalg.eigvalsh(inputs.hom(omega, omega))[-1]
    return 0.9 * omega / np.sqrt(top)


def _hull(rng) -> list[Op]:
    ops = []

    def member_op(label, omega, x, member, evidence=""):
        ops.append(Op(label, lambda: feasibility.hull_membership(omega, x),
                      lambda r: check.check_hull_membership(
                          omega, x, r.status,
                          None if r.certificate is None else r.certificate.choi,
                          None if r.certificate is None else r.certificate.isometry,
                          member, evidence)))

    def arveson_op(label, omega, x, boundary):
        ops.append(Op(label, lambda: feasibility.arveson_in_hull(omega, x, delta=HULL_DELTA),
                      lambda r: check.check_arveson_in_hull(omega, x, r.status, r.dilated,
                                                            HULL_DELTA, boundary)))

    simplices = {g: gallery.simplex(g).pencil for g in (1, 2, 3)}
    s2 = simplices[2]
    verts = {g: check.simplex_vertices(simplices[g]) for g in (1, 2)}
    # compressions V*(I_k ⊗ Omega)V of reference simplices, members: per
    # repetition 16 operations cost less than the 12 compressions of shape
    # (g, k, m) = (2, 2, 3) and 16 cost more, so the median falls inside that
    # group, and the 90th percentile inside the level-1 points outside the hull
    cheap = [(1, 1, 1), (2, 1, 1), (2, 1, 1), (1, 2, 2), (2, 1, 2), (2, 1, 2), (2, 2, 2),
             (2, 2, 2), (2, 1, 3), (2, 1, 3), (3, 1, 2), (3, 1, 2)]
    middle = [(2, 2, 3)] * 12
    costly = [(3, 1, 3), (3, 2, 3), (2, 2, 4), (3, 2, 4)]
    for _ in range(HULL_REPS):
        for g, k, m in cheap + middle + costly:
            omega = simplices[g]
            v = inputs.isometry(m, k * (g + 1), rng)
            member_op(f"hull/member/simplex{g}/k{k}m{m}", omega,
                      inputs.compress(omega, v, k), True)
        # random traceless generators scaled into their own spectrahedron, so
        # that points outside it are outside the hull
        for _ in range(2):
            omega = _self_scaled(traceless_pencil(2, 3, rng))
            v = inputs.isometry(2, 6, rng)
            member_op("hull/member/random/k2m2", omega, inputs.compress(omega, v, 2), True)
            x = 1.5 * boundary_point(omega, 2, rng)
            member_op("hull/outside/random", omega, x, False, "outside")
        for g in (2, 3):
            omega = simplices[g]
            x = 1.5 * boundary_point(omega, 2, rng)
            member_op(f"hull/outside/simplex{g}", omega, x, False, "outside")
        # level-1 points of D_Omega = {x, y >= -1, x + y <= 3} outside
        # mco(Omega) for the simplex in two variables
        d_verts = np.array([[-1.0, -1.0], [4.0, -1.0], [-1.0, 4.0]])
        gap = 0
        while gap < 8:
            p = (rng.dirichlet(np.ones(3)) @ d_verts).reshape(2, 1, 1)
            if check.simplex_hull_min_eig(verts[2], p) < -0.1:
                member_op("hull/gap/simplex2", s2, p.astype(complex), False, "simplex")
                gap += 1
        # lower-level compressions are not Arveson boundary points
        for m in (1, 2):
            v = inputs.isometry(m, 3, rng)
            arveson_op(f"hull/arveson/simplex2/compression{m}", s2, inputs.compress(s2, v),
                       False)
    # Arveson boundary points, fixed so that the costliest operations do not
    # vary with the seed: the direct sum of both vertex rows of the simplex
    # in one variable, and the row (1/3, 1/3) of the simplex in two
    for g, idx in ((1, [0, 1]), (2, [2])):
        x = np.stack([np.diag(verts[g][idx, j]) for j in range(g)]).astype(complex)
        arveson_op(f"hull/arveson/simplex{g}/vertices{len(idx)}", simplices[g], x, True)
    omega, x = stalled_member_point()
    member_op("hull/member/stalled-repro", omega, x, True)
    member_op("hull/gap/simplex2", s2, np.array([4.0, -1.0]).reshape(2, 1, 1).astype(complex),
              False, "simplex")
    return ops


# ---------------------------------------------------------------------------
# drop: membership in projections of spectrahedra
# ---------------------------------------------------------------------------

def _drop(rng) -> list[Op]:
    ops = []

    def drop_op(label, a, x, member, tv_level_one=False):
        ops.append(Op(label, lambda: feasibility.spectrahedrop_membership(a, 2, x),
                      lambda r: check.check_drop(a, x, r.status, r.hidden, member,
                                                 tv_level_one)))

    tv = gallery.tv_lift(1.0).pencil
    # per repetition 18 operations cost less than interior points of the TV
    # screen at level 3 and 19 cost more, so the median falls inside that
    # group of 14
    tv_counts = {1: (3, 3), 2: (2, 2), 3: (1, 14), 4: (2, 2)}
    sweep = [(4, 3, 2), (3, 5, 2), (4, 4, 2), (5, 4, 1), (6, 4, 1), (5, 5, 1), (6, 5, 1)]
    for _ in range(DROP_REPS):
        for n, (n_boundary, n_interior) in tv_counts.items():
            for interior in (False,) * n_boundary + (True,) * n_interior:
                x = boundary_point(tv, n, rng)[:2]
                drop_op(f"drop/tv/n{n}/" + ("interior" if interior else "boundary"), tv,
                        0.5 * x if interior else x, True, n == 1)
        outside = 0
        while outside < 2:
            x, y = rng.uniform(-1.4, 1.4, size=2)
            if 1 - x ** 2 - y ** 4 < -0.1:
                drop_op("drop/tv/n1/outside", tv,
                        np.array([x, y]).reshape(2, 1, 1).astype(complex), False, True)
                outside += 1
        # random traceless pencils in three variables, the last one hidden,
        # over d*n from 12 to 30
        for d, n, copies in sweep:
            for _ in range(copies):
                a = traceless_pencil(3, d, rng)
                drop_op(f"drop/random/dn{d * n}/boundary", a, boundary_point(a, n, rng)[:2],
                        True)
                drop_op(f"drop/random/dn{d * n}/interior", a,
                        0.5 * boundary_point(a, n, rng)[:2], True)
    ex = gallery.tv_exceptional_point()
    drop_op("drop/tv/exceptional", tv, np.stack([ex["x"], ex["y"]]), True)
    return ops
