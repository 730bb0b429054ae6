"""Tests of the benchmark itself: the checker flags corrupted outputs, and
every workload runs end to end in smoke mode.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from freespec import cli, extreme, feasibility, gallery  # noqa: E402


def _classify(tmp_path, a, x):
    pencil = tmp_path / "a.json"
    point = tmp_path / "x.json"
    out = tmp_path / "out.json"
    pencil.write_text(json.dumps(inputs.tuple_json(a)))
    point.write_text(json.dumps(inputs.tuple_json(x)))
    rc = cli.main(["classify", "--pencil", str(pencil), "--point", str(point),
                   "--out", str(out)])
    return rc, json.loads(out.read_text())


def test_checker_flags_a_corrupted_witness(tmp_path):
    a = gallery.cube(2).pencil
    x = inputs.boundary_point(a, 2, np.random.default_rng(0))
    rc, out = _classify(tmp_path, a, x)
    assert check.check_classify(a, x, rc, out, {"member": "boundary"})[0] == check.OK
    assert not out["euclidean"]["extreme"]
    bad = copy.deepcopy(out)
    bad["euclidean"]["t"] *= 1e3
    assert check.check_classify(a, x, rc, bad, {"member": "boundary"})[0] == check.FAILED


def test_checker_flags_a_flipped_verdict(tmp_path):
    a = gallery.cube(2).pencil
    rng = np.random.default_rng(1)
    x = inputs.symmetry_tuple(2, 2, rng)
    expect = {"member": "boundary", "arveson": True}
    rc, out = _classify(tmp_path, a, x)
    assert check.check_classify(a, x, rc, out, expect)[0] == check.OK
    bad = copy.deepcopy(out)
    bad["arveson"]["boundary"] = False
    assert check.check_classify(a, x, rc, bad, expect)[0] == check.WRONG

    y = 0.5 * inputs.boundary_point(a, 2, rng)
    rc, out = _classify(tmp_path, a, y)
    bad = copy.deepcopy(out)
    bad["euclidean"] = {"extreme": True, "kernel_dim": 0, "solution_dim": 0}
    assert check.check_classify(a, y, rc, bad, {"member": "interior"})[0] == check.WRONG


def test_checker_flags_a_choi_certificate_off_by_1e_3():
    omega = gallery.simplex(2).pencil
    v = inputs.isometry(2, 3, np.random.default_rng(2))
    x = inputs.compress(omega, v)
    rep = feasibility.hull_membership(omega, x)
    cert = rep.certificate
    assert check.check_hull_membership(omega, x, rep.status, cert.choi, cert.isometry,
                                       True)[0] == check.OK
    choi = cert.choi.copy()
    choi[0, 0] += 1e-3
    assert check.check_hull_membership(omega, x, rep.status, choi, cert.isometry,
                                       True)[0] == check.FAILED
    assert check.check_hull_membership(omega, x, rep.status, cert.choi, cert.isometry,
                                       False)[0] == check.WRONG


def test_checker_flags_an_oracle_that_gives_up_on_an_interior_point():
    rng = np.random.default_rng(4)
    a = inputs.traceless_pencil(2, 3, rng)
    x = 0.5 * inputs.boundary_point(a, 2, rng)
    v = extreme.dilation_oracle(a, x)
    assert v.dilation_found
    assert check.check_oracle(a, x, True, v.alpha, v.beta, False, True)[0] == check.OK
    assert check.check_oracle(a, x, False, None, None, False, True)[0] == check.FAILED
    # on a boundary point not finding a dilation is no claim
    y = inputs.boundary_point(a, 2, rng)
    assert check.check_oracle(a, y, False, None, None, False, False)[0] == check.OK


def test_simplex_hull_test_matches_construction():
    omega = gallery.simplex(2).pencil
    verts = check.simplex_vertices(omega)
    rng = np.random.default_rng(3)
    inside = inputs.compress(omega, inputs.isometry(3, 6, rng), copies=2)
    assert check.simplex_hull_min_eig(verts, inside) >= -1e-12
    outside = np.array([4.0, -1.0]).reshape(2, 1, 1)
    assert check.simplex_hull_min_eig(verts, outside) < 0


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace,
                 "--smoke"])
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], proc.stderr
    assert res["attempted"] >= 1
    if trace == "1":
        from tracer import LAYER_METRICS
        assert set(res["metrics"]) == {n for n, _ in LAYER_METRICS} | {"trace.overhead_s"}
    else:
        assert {"setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mb"} <= set(res["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "classify", "--seed", "1", "--seconds", "1"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
