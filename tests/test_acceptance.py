"""Acceptance battery: ten end-to-end checks at desk scale.

Each criterion is a single test so the run prints one pass/fail line per
criterion. All randomness is seeded; every expected value is either derived
in-line or verified against an independent construction.
"""
import numpy as np
import pytest

from freespec import extreme, feasibility, gallery, linalg, pencil, structure
from conftest import boundary_point, random_bounded_pencil, wild_corank1_pair
import oracles


def conj_tuple(u, x):
    return np.stack([u.conj().T @ xj @ u for xj in x])


# ---------------------------------------------------------------------------
# 1. cube boundary
# ---------------------------------------------------------------------------

def test_criterion_01_cube_boundary():
    tol = 1e-8
    checked = 0
    for i in range(50):
        g = 2 + (i % 2)
        n = 1 + (i % 4)
        x = gallery.symmetry_tuple(n, g, seed=i)
        a = gallery.cube(g).pencil
        assert extreme.is_arveson(a, x, tol=tol).boundary, i
        assert extreme.is_euclidean_extreme(a, x, tol=tol).extreme, i
        checked += 1
    assert checked == 50

    rng = linalg.default_rng(101)
    slack = 0
    for i in range(50):
        g = 2 + (i % 2)
        n = 1 + (i % 4)
        a = gallery.cube(g).pencil
        x = linalg.random_herm_tuple(g, n, rng)
        # normalize into the cube and force slack on the first coordinate
        x = np.stack([xj / max(1.0, np.abs(np.linalg.eigvalsh(xj)).max()) for xj in x])
        x[0] *= np.sqrt(1.0 - 1e-3) / max(1.0, np.sqrt(np.abs(np.linalg.eigvalsh(x[0] @ x[0])).max()))
        assert np.abs(np.linalg.eigvalsh(x[0] @ x[0])).max() <= 1.0 - 1e-3 + 1e-12
        assert pencil.membership(a, x, tol=tol).is_member
        v = extreme.is_euclidean_extreme(a, x, tol=tol)
        assert not v.extreme, i
        assert v.witness is not None and v.t > 0
        assert pencil.membership(a, x + v.t * v.witness, tol=1e-7).is_member
        assert pencil.membership(a, x - v.t * v.witness, tol=1e-7).is_member
        slack += 1
    assert slack == 50


# ---------------------------------------------------------------------------
# 2. spin disk characterization
# ---------------------------------------------------------------------------

def test_criterion_02_spin_disk():
    spin = gallery.spin_disk().pencil
    rng = linalg.default_rng(202)
    samples = []
    for i in range(50):
        n = 1 + (i % 4)
        x = gallery.spin_boundary_point(rng.uniform(0, 2 * np.pi, size=n))
        assert extreme.is_arveson(spin, x).boundary, i
        samples.append(x)

    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    noncommuting = [np.stack([sz / 2, sx / 2])]
    while len(noncommuting) < 20:
        h = linalg.random_herm_tuple(2, 2 + len(noncommuting) % 2, rng)
        hit = pencil.scale_to_boundary(spin, h)
        if hit is None:
            continue
        x = hit[1]
        if np.abs(x[0] @ x[1] - x[1] @ x[0]).max() > 1e-6:
            noncommuting.append(x)
    for i, x in enumerate(noncommuting):
        v = extreme.is_arveson(spin, x)
        assert not v.boundary, i
        z = extreme.column_dilation(x, v.t * v.alpha)
        assert pencil.membership(spin, z, tol=1e-7).is_member, i
        samples.append(x)

    # commute and I - X1^2 - X2^2 = 0 if and only if Arveson, on every sample
    for x in samples:
        assert extreme.is_arveson(spin, x).boundary == oracles.spin_arveson_expected(x)


# ---------------------------------------------------------------------------
# 3. kernel test against the dilation oracle
# ---------------------------------------------------------------------------

def test_criterion_03_kernel_vs_oracle(pencil_pool):
    rng = linalg.default_rng(303)
    disagreements = 0
    total = 0
    while total < 200:
        a = pencil_pool[total % len(pencil_pool)]
        n = 1 + (total % 4)
        x = boundary_point(a, n, rng)
        if total % 5 == 4:
            x = 0.5 * x  # mix in interior points
        kernel_says = extreme.is_arveson(a, x).boundary
        oracle = extreme.dilation_oracle(a, x, seed=total)
        if oracle.dilation_found == kernel_says:
            disagreements += 1
        total += 1
    assert total == 200
    assert disagreements == 0


# ---------------------------------------------------------------------------
# 4. interlacing blocks vs augmented diagonals
# ---------------------------------------------------------------------------

def test_criterion_04_interlacing():
    rng = linalg.default_rng(404)
    for case in range(100):
        k = 2 + case % 3
        d = np.sort(rng.standard_normal(k) * 2.0)
        while k > 1 and np.diff(d).min() < 1e-3:
            d = np.sort(rng.standard_normal(k) * 2.0)
        a = rng.standard_normal(k)
        a[np.abs(a) < 1e-2] = 0.5  # keep the column away from zero
        e = float(rng.standard_normal())
        m = np.zeros((k + 1, k + 1))
        m[:k, :k] = np.diag(d)
        m[:k, k] = a
        m[k, :k] = a
        m[k, k] = e
        fs = list(d) + [e] + list(rng.standard_normal(19 - k))
        assert len(fs) == 20
        for f in fs:
            aug = np.zeros((k + 1, k + 1))
            aug[:k, :k] = np.diag(d)
            aug[k, k] = f
            flag, _ = structure.unitarily_equivalent(m[None], aug[None])
            assert not flag, (case, f)


# ---------------------------------------------------------------------------
# 5. free simplices
# ---------------------------------------------------------------------------

def test_criterion_05_free_simplex():
    rng = linalg.default_rng(505)
    for g in (2, 3):
        n_ref = structure.reference_simplex(g)
        d = g + 1

        # (a) compressions of ampliations are hull members
        for i in range(25):
            k = 1 + i % 2
            m = 1 + i % 3
            amp = pencil.direct_sum([n_ref] * k)
            v = linalg.random_isometry(m, d * k, rng)
            x = conj_tuple(v, amp)
            rep = feasibility.hull_membership(n_ref, x)
            assert rep.status == feasibility.MEMBER, (g, i)
            assert rep.residual <= 1e-6, (g, i)

        # (b) direct sums of level-1 vertices are in the Arveson boundary
        rows = [tuple(n_ref[j, i, i].real for j in range(g)) for i in range(d)]
        x = pencil.direct_sum([np.array([[[v]] for v in rows[0]]),
                               np.array([[[v]] for v in rows[1]])])
        rep = feasibility.arveson_in_hull(n_ref, x)
        assert rep.status == feasibility.BOUNDARY, g

        # (c) sampled polar duality (mco{N})° = D_N, checked by the test oracle
        for level in (1, 2):
            dual = oracles.polar_dual_check(n_ref, level=level, samples=100,
                                            seed=50 + g)
            assert dual.counterexamples == 0, (g, level)
            assert dual.samples == 100

        # (d) recognition plus certified normal form, re-checked on samples
        rep = structure.is_free_simplex(n_ref)
        assert rep.is_simplex, g
        nf = structure.simplex_normal_form(n_ref)
        checked, mism = oracles.normal_form_mismatches(n_ref, nf.map, samples=50)
        assert checked >= 50
        assert mism == 0, g


# ---------------------------------------------------------------------------
# 6. TV screen exceptional point
# ---------------------------------------------------------------------------

def test_criterion_06_tv_screen():
    entry = gallery.tv_lift(1.0)
    ex = gallery.tv_exceptional_point()
    x, y, w = ex["x"], ex["y"], ex["w"]
    mu = 2.0 / (3.0 + np.sqrt(5.0))

    rep = feasibility.spectrahedrop_membership(entry.pencil, entry.visible_vars,
                                               np.stack([x, y]))
    assert rep.status == feasibility.MEMBER
    assert rep.residual <= 1e-6

    me = linalg.min_eig(gallery.tv_poly(x, y))
    assert me < 0
    assert abs(me - mu * mu * (3.0 - np.sqrt(10.0))) <= 1e-9

    j = w - y @ y
    wj = np.linalg.eigvalsh(j)
    assert wj[0] >= -1e-9
    assert wj[-1] > 1e-9
    assert abs(wj[0]) <= 1e-9  # rank one: the small eigenvalue vanishes

    assert abs(np.linalg.norm(w, 2) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# 7. wild disk
# ---------------------------------------------------------------------------

def test_criterion_07_wild_disk():
    wd = gallery.wild_disk().pencil
    rng = linalg.default_rng(707)

    # (a) the specialized test agrees with the generic kernel route
    agreements = 0
    for i in range(100):
        n = 1 + i % 4
        kind = i % 3
        if kind == 0 and n >= 2:
            x, y = wild_corank1_pair(rng, n=n)
        elif kind == 1:
            sp = gallery.spin_boundary_point(rng.uniform(0, 2 * np.pi, size=n))
            x, y = sp[0], sp[1]
        else:
            x = linalg.random_herm(n, rng, scale=0.4)
            y = linalg.random_herm(n, rng, scale=0.4)
            x, y = x.astype(complex), y.astype(complex)
            while linalg.min_eig(gallery.wild_poly(x, y)) < 1e-6:
                x, y = 0.5 * x, 0.5 * y
        direct = oracles.wild_arveson_test(x, y).arveson
        kernel = extreme.is_arveson(wd, np.stack([x, y])).boundary
        assert direct == kernel, i
        agreements += 1
    assert agreements == 100

    # (b) explicit one-step lifts for oracle-generated corank-one pairs
    lifted = 0
    for i in range(20):
        x, y = wild_corank1_pair(rng, n=2)
        assert not oracles.wild_arveson_test(x, y).arveson, i
        rep = gallery.lift_one(x, y)
        defect = np.abs(gallery.wild_poly(rep.x_lift, rep.y_lift)).max()
        assert defect <= 1e-8, i
        assert np.abs(rep.x_lift[:2, :2] - x).max() < 1e-12
        assert np.abs(rep.y_lift[:2, :2] - y).max() < 1e-12
        lifted += 1
    assert lifted == 20

    # (c) size-3 pairs with at most one kernel direction are never Arveson
    for i in range(20):
        if i % 2 == 0:
            x, y = wild_corank1_pair(rng, n=3)
        else:
            x = 0.4 * linalg.random_herm(3, rng).astype(complex)
            y = 0.4 * linalg.random_herm(3, rng).astype(complex)
            while linalg.min_eig(gallery.wild_poly(x, y)) < 1e-6:
                x, y = 0.5 * x, 0.5 * y
        rep = oracles.wild_arveson_test(x, y)
        assert rep.kernel_dim <= 1, i
        assert not rep.arveson, i


# ---------------------------------------------------------------------------
# 8. decomposition round trip
# ---------------------------------------------------------------------------

def test_criterion_08_decomposition_round_trip():
    rng = linalg.default_rng(808)
    for case in range(50):
        g = 2 + case % 2
        sizes = [1 + int(rng.integers(3)) for _ in range(1 + int(rng.integers(3)))]
        blocks = [linalg.random_herm_tuple(g, s, rng) for s in sizes]
        mults = [1 + int(rng.integers(3)) for _ in blocks]
        parts = []
        for b, m in zip(blocks, mults):
            parts.extend([b] * m)
        x = pencil.direct_sum(parts)
        u = linalg.random_unitary(x.shape[1], rng)
        xu = conj_tuple(u, x)

        dec = structure.decompose_irreducibles(xu)
        got = sorted(zip(dec.block_sizes, dec.multiplicities))
        want = sorted(zip(sizes, mults))
        assert got == want, case
        # every recovered class matches one of the planted blocks
        matched = set()
        for rb in dec.blocks:
            hit = None
            for idx, b in enumerate(blocks):
                if idx in matched or b.shape != rb.shape:
                    continue
                if structure.unitarily_equivalent(b, rb)[0]:
                    hit = idx
                    break
            assert hit is not None, case
            matched.add(hit)
        err = np.abs(conj_tuple(dec.unitary, xu) - dec.reassemble()).max()
        assert err <= 1e-7, case


# ---------------------------------------------------------------------------
# 9. hierarchy sandwich across the gallery
# ---------------------------------------------------------------------------

def test_criterion_09_hierarchy_sandwich():
    rng = linalg.default_rng(909)
    pencils = [gallery.cube(2).pencil, gallery.cube(3).pencil,
               gallery.interval().pencil, gallery.spin_disk().pencil,
               gallery.wild_disk().pencil, structure.reference_simplex(2),
               structure.reference_simplex(3), gallery.tv_lift(1.0).pencil]
    total = 0
    while total < 500:
        a = pencils[total % len(pencils)]
        n = 1 + total % 3
        x = boundary_point(a, n, rng)
        arv = extreme.is_arveson(a, x)
        euc = extreme.is_euclidean_extreme(a, x)
        irr = extreme.is_irreducible(x)
        if arv.boundary:
            assert euc.extreme, total
        ab = extreme.is_absolute_extreme(a, x)
        if ab.absolute:
            assert irr.irreducible and arv.boundary, total
        st = extreme.matrix_extreme_status(a, x)
        if st.status == "yes":
            assert irr.irreducible and arv.boundary, total
        if st.status == "no":
            assert (not irr.irreducible) or (not euc.extreme), total
        total += 1
    assert total == 500


# ---------------------------------------------------------------------------
# 10. level-one classification: square grid and circle
# ---------------------------------------------------------------------------

def test_criterion_10_level_one():
    cube = gallery.cube(2).pencil
    extremes = []
    for i in range(16):
        t = -1.0 + 2.0 * i / 15.0
        for pt in ((t, 1.0), (t, -1.0), (1.0, t), (-1.0, t)):
            x = np.array([[[pt[0]]], [[pt[1]]]])
            if extreme.is_euclidean_extreme(cube, x).extreme:
                extremes.append(pt)
    grid = {(round(p[0], 9), round(p[1], 9)) for p in extremes}
    assert grid == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}

    spin = gallery.spin_disk().pencil
    for i in range(64):
        t = 2.0 * np.pi * i / 64.0
        x = np.array([[[np.cos(t)]], [[np.sin(t)]]])
        assert extreme.is_euclidean_extreme(spin, x).extreme, i
        assert extreme.is_arveson(spin, x).boundary, i
