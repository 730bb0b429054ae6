"""Command-line interface: verdicts, determinism, exit codes."""
import json

import numpy as np
import pytest

from freespec import cli, gallery, linalg, pencil
from freespec.errors import NumericalError
from conftest import separator_holds, wild_corank1_pair


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture()
def files(tmp_path):
    """Write the tuple/point JSON files the commands read."""
    def write(name, arr_or_entry):
        path = tmp_path / f"{name}.json"
        if isinstance(arr_or_entry, gallery.GalleryEntry):
            path.write_text(json.dumps(arr_or_entry.to_json()))
        else:
            pencil.write_tuple(path, np.asarray(arr_or_entry, dtype=complex))
        return str(path)
    return write


SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_member_interval(files, capsys):
    out = run_json(capsys, "member",
                   "--pencil", files("a", gallery.interval().pencil),
                   "--point", files("x", np.array([[[0.5]]])))
    assert out["status"] == "interior"
    assert abs(out["min_eig"] - 0.5) < 1e-12
    assert out["kernel_dim"] == 0


def test_classify_pauli_pair_on_cube(files, capsys):
    out = run_json(capsys, "classify",
                   "--pencil", files("a", gallery.cube(2).pencil),
                   "--point", files("x", np.stack([SZ, SX])))
    assert out["membership"]["status"] == "boundary"
    assert out["euclidean"]["extreme"] is True
    assert out["arveson"]["boundary"] is True
    assert out["irreducible"]["irreducible"] is True
    assert out["absolute"]["absolute"] is True
    assert out["matrix_extreme"]["status"] == "yes"


def test_classify_interval_midpoint(files, capsys):
    out = run_json(capsys, "classify",
                   "--pencil", files("a", gallery.interval().pencil),
                   "--point", files("x", np.array([[[0.0]]])))
    assert out["membership"]["status"] == "interior"
    assert out["euclidean"]["extreme"] is False
    assert "witness" in out["euclidean"]
    assert out["arveson"]["boundary"] is False
    assert out["absolute"]["absolute"] is False
    assert out["matrix_extreme"]["status"] == "no"


def test_classify_commuting_spin_pair(files, capsys):
    out = run_json(capsys, "classify",
                   "--pencil", files("a", gallery.spin_disk().pencil),
                   "--point", files("x", gallery.spin_boundary_point([0.0, np.pi / 2])))
    assert out["arveson"]["boundary"] is True
    assert out["irreducible"]["irreducible"] is False
    assert out["absolute"]["absolute"] is False


def test_classify_outside_point_skips_extremes(files, capsys):
    out = run_json(capsys, "classify",
                   "--pencil", files("a", gallery.interval().pencil),
                   "--point", files("x", np.array([[[3.0]]])))
    assert out["membership"]["status"] == "outside"
    assert out["euclidean"] is None and out["arveson"] is None


def test_hull_member_vertex_row(files, capsys):
    naimark = gallery.build("naimark").pencil
    out = run_json(capsys, "hull-member",
                   "--generator", files("om", naimark),
                   "--point", files("x", np.array([[[-1.0]], [[0.0]]])))
    assert out["status"] == "member"
    assert out["certificate"]["kraus_rank"] >= 1
    assert out["residual"] <= 1e-6


def test_hull_member_gap_point_prints_a_separator(files, capsys):
    # (4, -1) lies in D_N but outside mco(N); the printed pencil proves it
    naimark = gallery.build("naimark").pencil
    x = np.array([[[4.0]], [[-1.0]]])
    out = run_json(capsys, "hull-member",
                   "--generator", files("om", naimark),
                   "--point", files("x", x))
    assert out["status"] == "not_member"
    assert "certificate" not in out
    h = pencil.tuple_from_json(out["separator"]["h"])
    assert h.shape == (3, 1, 1)
    assert separator_holds(naimark, x, h)
    assert out["separator"]["value"] < 0


def test_include_witness(files, capsys):
    out = run_json(capsys, "include",
                   "--inner", files("c", gallery.cube(2).pencil),
                   "--outer", files("s", gallery.spin_disk().pencil),
                   "--samples", "20")
    assert out["status"] == "not_included"
    w = pencil.tuple_from_json(out["witness"])
    assert pencil.membership(gallery.cube(2).pencil, w).is_member


def test_drop_member_tv_exceptional(files, capsys):
    entry = gallery.tv_lift(1.0)
    ex = gallery.tv_exceptional_point()
    out = run_json(capsys, "drop-member",
                   "--pencil", files("tv", entry),
                   "--point", files("x", np.stack([ex["x"], ex["y"]])))
    assert out["status"] == "member"
    assert out["residual"] <= 1e-6
    hidden = pencil.tuple_from_json(out["hidden"])
    w_hat = (hidden[0] + entry.aux["hidden_shift"] * np.eye(2)) / entry.aux["hidden_scale"]
    assert np.abs(w_hat - ex["w"]).max() < 1e-6


def test_drop_member_takes_no_tol(files, capsys):
    # the projected-membership solver has no tolerance for --tol to set
    entry = gallery.tv_lift(1.0)
    with pytest.raises(SystemExit) as exc:
        cli.main(["drop-member", "--pencil", files("tv", entry),
                  "--point", files("x", np.zeros((2, 1, 1))), "--tol", "1e-3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flag", [("classify", "--pencil"),
                                          ("hull-member", "--generator"),
                                          ("decompose", None)])
def test_deterministic_subcommands_take_no_seed(files, capsys, command, flag):
    # classify, hull-member and decompose draw nothing at random: --seed has
    # nothing to set
    args = [command] + ([flag, files("a", gallery.cube(2).pencil)] if flag else [])
    args += ["--point", files("x", np.zeros((2, 1, 1)))]
    assert run(capsys, *args)[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--seed", "3"])
    assert exc.value.code == 2


def test_drop_member_requires_visible(files, capsys):
    entry = gallery.tv_lift(1.0)
    code, _ = run(capsys, "drop-member",
                  "--pencil", files("bare", entry.pencil),
                  "--point", files("x", np.zeros((2, 1, 1))))
    assert code == 2  # bare tuple file carries no visible_vars


def test_decompose_doubled_pauli(files, capsys):
    doubled = pencil.direct_sum([np.stack([SZ, SX])] * 2)
    out = run_json(capsys, "decompose", "--point", files("x", doubled))
    assert len(out["classes"]) == 1
    assert out["classes"][0]["size"] == 2
    assert out["classes"][0]["multiplicity"] == 2


def test_simplex_check_verdicts(files, capsys):
    yes = run_json(capsys, "simplex-check",
                   "--pencil", files("n", gallery.build("naimark").pencil))
    assert yes["simplex"]["is_simplex"] is True
    assert set(yes["normal_form"]) == {"map", "dropped_facet"}
    no = run_json(capsys, "simplex-check",
                  "--pencil", files("c", gallery.cube(2).pencil))
    assert no["simplex"]["is_simplex"] is False
    assert no["normal_form"] is None


def test_simplex_check_unbounded_diagonal_pencil(files, capsys):
    # g + 1 commuting facets with no positive dependency: unbounded, so no
    # simplex and no normal form to attempt
    facets = np.array([[-0.11, -0.57, 0.23], [0.53, 0.57, 0.28],
                       [0.75, 0.95, -1.11], [-0.38, 0.87, 0.49]])
    a = np.stack([np.diag(col) for col in facets.T])
    out = run_json(capsys, "simplex-check", "--pencil", files("a", a))
    assert out["simplex"] == {"is_simplex": False,
                              "reasons": ["boundedness check returned unbounded"]}
    assert out["normal_form"] is None


def test_dual_check_is_gone(files, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dual-check", "--generator", files("om", gallery.build("naimark").pencil)])
    assert exc.value.code == 2


def test_gallery_naimark(capsys):
    out = run_json(capsys, "gallery", "naimark")
    a = pencil.tuple_from_json(out)
    assert a.shape == (2, 3, 3)
    assert np.abs(a - gallery.build("naimark").pencil).max() < 1e-15


def test_gallery_writes_file(tmp_path, capsys):
    path = tmp_path / "spin.json"
    code, out = run(capsys, "gallery", "spin-disk", "--out", str(path))
    assert code == 0 and out == ""
    a = pencil.tuple_from_json(json.loads(path.read_text()))
    assert np.abs(a - gallery.spin_disk().pencil).max() < 1e-15


def test_lift_one_command(files, capsys):
    x, y = wild_corank1_pair(linalg.default_rng(13), n=2)
    out = run_json(capsys, "lift-one", "--point", files("p", np.stack([x, y])))
    assert out["residual"] <= 1e-8
    lifted = pencil.tuple_from_json(out["pair"])
    assert lifted.shape == (2, 3, 3)
    assert np.abs(lifted[0][:2, :2] - x).max() < 1e-12


# ---------------------------------------------------------------------------
# determinism and round trips
# ---------------------------------------------------------------------------

def test_output_is_deterministic(files, capsys):
    argv = ["classify",
            "--pencil", files("a", gallery.spin_disk().pencil),
            "--point", files("x", gallery.spin_boundary_point([0.7, 2.1]))]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_consecutive_calls_share_no_state(files, tmp_path, capsys):
    # the parser is built once per process; a later call must not inherit
    # the earlier call's options (here --out)
    target = tmp_path / "verdict.json"
    code, out = run(capsys, "classify",
                    "--pencil", files("a", gallery.interval().pencil),
                    "--point", files("x", np.array([[[0.0]]])),
                    "--out", str(target))
    assert code == 0 and out == ""
    written = target.read_text()
    code, out = run(capsys, "member",
                    "--pencil", files("a", gallery.interval().pencil),
                    "--point", files("x", np.array([[[0.5]]])))
    assert code == 0
    assert json.loads(out)["status"] == "interior"
    assert target.read_text() == written
    assert json.loads(written)["membership"]["status"] == "interior"


def test_gallery_roundtrip_is_lossless(tmp_path, capsys):
    # full-precision floats survive stdout -> file -> parse
    out = run_json(capsys, "gallery", "tv-screen", "--a", "0.7")
    a = pencil.tuple_from_json(out)
    assert np.abs(a - gallery.tv_lift(0.7).pencil).max() < 1e-15


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_file_exits_2(capsys):
    code = cli.main(["member", "--pencil", "/no/such/file.json",
                     "--point", "/also/missing.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"g": 1, "n": 1}')
    good = tmp_path / "x.json"
    pencil.write_tuple(good, np.array([[[0.0]]]))
    code = cli.main(["member", "--pencil", str(bad), "--point", str(good)])
    assert code == 2


@pytest.mark.parametrize("point", [
    {"g": 1, "n": -1, "matrices": [[]]},
    {"g": 2, "n": 1, "matrices": [[[["x", 0]]], [[[0, 0]]]]},
    {"g": "two", "n": 1, "matrices": [[[[0, 0]]], [[[0, 0]]]]},
])
def test_classify_malformed_point_exits_2(files, tmp_path, capsys, point):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(point))
    code = cli.main(["classify", "--pencil", files("a", gallery.cube(2)),
                     "--point", str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_classify_point_outside_half_the_witness_slack_exits_3(files, capsys):
    spin = gallery.spin_disk().pencil
    h = linalg.random_herm_tuple(2, 2, linalg.default_rng(3))
    x = (1 + 5e-9) * pencil.scale_to_boundary(spin, h)[1]
    code = cli.main(["classify", "--pencil", files("a", spin), "--point", files("x", x)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--level", "0"), ("--samples", "-3")])
def test_include_rejects_bad_search_sizes(files, capsys, flag, value):
    interval = gallery.interval().pencil
    code = cli.main(["include", "--inner", files("b", interval),
                     "--outer", files("a", interval), flag, value])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_numerical_failure_exits_3(monkeypatch, capsys):
    def boom(args):
        raise NumericalError("forced failure")
    monkeypatch.setitem(cli._COMMANDS, "member", boom)
    code = cli.main(["member", "--pencil", "x", "--point", "y"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
