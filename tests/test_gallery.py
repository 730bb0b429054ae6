"""Worked example families: cube, spin/wild disks, simplices, lifted TV set."""
import numpy as np
import pytest

from freespec import extreme, gallery, linalg, pencil, structure
from freespec.errors import InputError
import oracles
from conftest import wild_corank1_pair


def scalar_pair(u, v):
    return np.array([[[float(u)]], [[float(v)]]])


# ---------------------------------------------------------------------------
# cube and spin disk
# ---------------------------------------------------------------------------

def test_spin_pencil_at_origin():
    out = pencil.eval_monic(gallery.spin_disk().pencil, np.zeros((2, 1, 1)))
    assert np.abs(out - np.eye(2)).max() < 1e-15


def test_cube_membership_displays():
    cube = gallery.cube(2).pencil
    assert pencil.membership(cube, scalar_pair(1.0, 1.0)).status == pencil.BOUNDARY
    assert pencil.membership(cube, scalar_pair(1.1, 0.0)).status == pencil.OUTSIDE
    assert pencil.membership(cube, scalar_pair(0.3, -0.9)).status == pencil.INTERIOR


@pytest.mark.parametrize("n,g", [(1, 2), (3, 2), (2, 3)])
def test_symmetry_tuple_properties(n, g, seed=0):
    x = gallery.symmetry_tuple(n, g, seed=seed)
    assert x.shape == (g, n, n)
    for xj in x:
        assert np.abs(xj @ xj - np.eye(n)).max() < 1e-9
    if n == 1:
        assert set(np.round(x.ravel().real).astype(int)) <= {-1, 1}
    assert extreme.is_arveson(gallery.cube(g).pencil, x).boundary


def test_spin_boundary_point_properties():
    x = gallery.spin_boundary_point([0.3, 2.0, 4.4])
    spin = gallery.spin_disk().pencil
    assert pencil.membership(spin, x).status == pencil.BOUNDARY
    assert np.abs(x[0] @ x[1] - x[1] @ x[0]).max() < 1e-12
    assert np.abs(x[0] @ x[0] + x[1] @ x[1] - np.eye(3)).max() < 1e-12
    assert oracles.spin_arveson_expected(x)


def test_spin_arveson_expected_rejects_noncommuting():
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert not oracles.spin_arveson_expected(np.stack([sz / 2, sx / 2]))


# ---------------------------------------------------------------------------
# wild disk
# ---------------------------------------------------------------------------

def test_wild_pencil_matches_polynomial_membership():
    # the Schur-complement pencil carves out exactly {I - X^2 - Y^2 >= 0}
    wd = gallery.wild_disk().pencil
    rng = linalg.default_rng(3)
    for _ in range(8):
        x = linalg.random_herm_tuple(2, 2, rng, scale=0.6)
        inside_poly = linalg.min_eig(gallery.wild_poly(x[0], x[1])) >= -1e-10
        assert pencil.membership(wd, x).is_member == inside_poly


def test_wild_arveson_vacuous_on_vanishing_pairs():
    sp = gallery.spin_boundary_point([0.3, 1.0])
    rep = oracles.wild_arveson_test(sp[0], sp[1])
    assert rep.arveson
    assert rep.kernel_dim == 2  # kernel of p is everything: nothing to dilate


def test_wild_arveson_interior_is_false():
    rep = oracles.wild_arveson_test(np.zeros((1, 1), complex), np.zeros((1, 1), complex))
    assert not rep.arveson
    assert rep.kernel_dim == 0


@pytest.mark.parametrize("n", [2, 3])
def test_wild_corank_one_pairs_never_arveson(n):
    rng = linalg.default_rng(40 + n)
    for _ in range(5):
        x, y = wild_corank1_pair(rng, n=n)
        rep = oracles.wild_arveson_test(x, y)
        assert rep.kernel_dim == 1
        assert not rep.arveson


@pytest.mark.parametrize("n", [2, 3])
def test_wild_test_agrees_with_kernel_route(n):
    wd = gallery.wild_disk().pencil
    rng = linalg.default_rng(50 + n)
    cases = [wild_corank1_pair(rng, n=n) for _ in range(3)]
    sp = gallery.spin_boundary_point(np.linspace(0.2, 2.0, n))
    cases.append((sp[0], sp[1]))
    for x, y in cases:
        direct = oracles.wild_arveson_test(x, y).arveson
        kernel = extreme.is_arveson(wd, np.stack([x, y])).boundary
        assert direct == kernel


def test_lift_one_reaches_vanishing_boundary():
    rng = linalg.default_rng(7)
    for _ in range(4):
        x, y = wild_corank1_pair(rng, n=2)
        rep = gallery.lift_one(x, y)
        assert rep.residual <= 1e-8
        assert oracles.vanishing_boundary_test("wild", rep.x_lift, rep.y_lift)
        # the top-left compression returns the input exactly
        assert np.abs(rep.x_lift[:2, :2] - x).max() < 1e-12
        assert np.abs(rep.y_lift[:2, :2] - y).max() < 1e-12
        # vanishing pairs are vacuously in the boundary
        assert oracles.wild_arveson_test(rep.x_lift, rep.y_lift).arveson


def test_lift_one_rejects_scalar_vanishing_pair():
    with pytest.raises(InputError):
        gallery.lift_one(np.array([[0.6]], complex), np.array([[0.8]], complex))


def test_lift_one_rejects_interior():
    with pytest.raises(InputError):
        gallery.lift_one(0.1 * np.eye(2, dtype=complex), 0.1 * np.eye(2, dtype=complex))


# ---------------------------------------------------------------------------
# vanishing boundary predicate and the direct dilation search
# ---------------------------------------------------------------------------

def test_vanishing_boundary_predicate():
    sp = gallery.spin_boundary_point([0.0, 1.2])
    assert oracles.vanishing_boundary_test("wild", sp[0], sp[1])
    z = np.zeros((1, 1))
    assert not oracles.vanishing_boundary_test("wild", z, z)
    ex = gallery.tv_exceptional_point()
    assert not oracles.vanishing_boundary_test("tv", ex["x"], ex["y"])
    with pytest.raises(InputError):
        oracles.vanishing_boundary_test("disc", z, z)


def test_dilation_search_finds_nothing_on_vanishing_points():
    for angles in ([0.0], [0.3, 1.1]):
        sp = gallery.spin_boundary_point(angles)
        rep = oracles.dilation_search("wild", sp[0], sp[1])
        assert not rep.dilation_found


def test_dilation_search_dilates_interior():
    z = np.zeros((1, 1))
    rep = oracles.dilation_search("wild", z, z)
    assert rep.dilation_found
    x, y = rep.witness[0], rep.witness[1]
    assert linalg.min_eig(gallery.wild_poly(x, y)) >= -1e-8


def test_dilation_search_rejects_outside_points():
    big = 2.0 * np.eye(1, dtype=complex)
    with pytest.raises(InputError):
        oracles.dilation_search("wild", big, big)


# ---------------------------------------------------------------------------
# lifted TV set
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.5, 1.0])
def test_tv_lift_scaling_relations(a):
    entry = gallery.tv_lift(a)
    assert entry.visible_vars == 2
    gamma = entry.aux["gamma"]
    assert abs(gamma ** 4 - (1.0 + a * a)) < 1e-12
    assert abs(entry.aux["hidden_scale"] - gamma ** 2) < 1e-12
    assert abs(entry.aux["hidden_shift"] - a) < 1e-12


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_tv_lift_characterizes_hat_set(a):
    # scalar oracle: (x, y, w) with the hidden coordinate rescaled lies in the
    # pencil iff 1 - x^2 - w^2 >= 0 and w >= y^2
    entry = gallery.tv_lift(a)
    gamma2 = entry.aux["hidden_scale"]
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(60):
        x, y = rng.uniform(-1.1, 1.1, size=2)
        w = rng.uniform(-0.2, 1.2)
        in_hat = (1.0 - x * x - w * w >= 1e-9) and (w - y * y >= 1e-9)
        pt = np.array([[[x]], [[y]], [[gamma2 * w - a]]])
        got = pencil.membership(entry.pencil, pt).status == pencil.INTERIOR
        if got == in_hat:
            hits += 1
        else:
            # disagreements may only happen within tolerance of the boundary
            margin = min(abs(1.0 - x * x - w * w), abs(w - y * y))
            assert margin < 1e-6
    assert hits >= 55


def test_tv_zero_point_member():
    entry = gallery.tv_lift(1.0)
    assert pencil.membership(entry.pencil, np.zeros((3, 1, 1))).is_member


def test_exceptional_point_frozen_constants():
    ex = gallery.tv_exceptional_point()
    x, y, w = ex["x"], ex["y"], ex["w"]
    mu = 2.0 / (3.0 + np.sqrt(5.0))
    assert abs(ex["mu"] - mu) < 1e-15 if "mu" in ex else True
    assert abs(mu - 0.3819660113) < 1e-9
    assert np.abs(w - mu * np.array([[2.0, 1.0], [1.0, 1.0]])).max() < 1e-12
    assert np.abs(y - np.sqrt(mu) * np.diag([1.0, 0.0])).max() < 1e-12
    # norm of W is exactly one by the choice of mu
    assert abs(np.linalg.norm(w, 2) - 1.0) < 1e-12
    # defining relation of the lifted point
    assert np.abs(np.eye(2) - x @ x - w @ w).max() < 1e-12
    # J = W - Y^2 is rank-one PSD
    j = w - y @ y
    assert np.abs(j - mu * np.ones((2, 2))).max() < 1e-12
    wj = np.linalg.eigvalsh(j)
    assert wj[0] > -1e-12 and wj[1] > 1e-3
    # the projection exits the unlifted set: min eig mu^2 (3 - sqrt(10)) < 0
    me = linalg.min_eig(gallery.tv_poly(x, y))
    assert abs(me - mu * mu * (3.0 - np.sqrt(10.0))) < 1e-9
    assert me < -1e-3


def test_tv_hat_point_classes():
    ex = gallery.tv_exceptional_point()
    x, y, w = ex["x"], ex["y"], ex["w"]
    c = oracles.tv_hat_point_class(x, y, w)
    assert c.in_family and c.label == oracles.TV_CLASS_PROJECTS_OUTSIDE
    assert c.j_rank == 1 and c.poly_min_eig < -1e-3

    # J = 0 branch: w = y^2 with 1 - x^2 - y^4 = 0
    t = 0.7
    yv = np.array([[t]], dtype=complex)
    xv = np.array([[np.sqrt(1 - t ** 4)]], dtype=complex)
    c2 = oracles.tv_hat_point_class(xv, yv, yv @ yv)
    assert c2.in_family and c2.label == oracles.TV_CLASS_NO_GAP

    # breaking the displayed condition reports not-in-family, not an error
    bump = 2.0 * np.outer([1.0, 0.0], [1.0, 0.0]).astype(complex)
    c3 = oracles.tv_hat_point_class(x, y, y @ y + bump)
    assert not c3.in_family and c3.label is None


def test_tv_hat_from_hidden_rescales():
    entry = gallery.tv_lift(1.0)
    ex = gallery.tv_exceptional_point()
    raw = entry.aux["hidden_scale"] * ex["w"] - entry.aux["hidden_shift"] * np.eye(2)
    assert np.abs(oracles.tv_hat_from_hidden(entry, raw) - ex["w"]).max() < 1e-12


# ---------------------------------------------------------------------------
# simplices and the registry
# ---------------------------------------------------------------------------

def test_reference_entries_match_structure_module():
    assert np.abs(gallery.simplex(2).pencil - structure.reference_simplex(2)).max() == 0
    assert np.abs(gallery.build("naimark").pencil - structure.reference_simplex(2)).max() == 0


def test_simplex_membership_characterization():
    # X in the reference simplex iff every X_j >= -I and sum X_j <= (g+1) I
    n = structure.reference_simplex(2)
    rng = linalg.default_rng(19)
    for _ in range(10):
        x = linalg.random_herm_tuple(2, 2, rng, scale=2.0)
        direct = all(linalg.min_eig(xj + np.eye(2)) >= -1e-10 for xj in x)
        direct = direct and linalg.min_eig(3.0 * np.eye(2) - x.sum(axis=0)) >= -1e-10
        assert pencil.membership(n, x).is_member == direct


def test_registry_builds_every_name():
    for name in gallery.GALLERY_NAMES:
        entry = gallery.build(name)
        assert entry.pencil.ndim == 3
        # registry entries round-trip through the JSON wrapper
        back = pencil.tuple_from_json(entry.to_json())
        assert np.abs(back - entry.pencil).max() < 1e-15


def test_registry_rejects_unknown_name():
    with pytest.raises(InputError):
        gallery.build("dodecahedron")
