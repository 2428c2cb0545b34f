"""Command-line interface: outputs, exit codes, and serialization round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeinv
from treeinv import cli
from treeinv.catalog import catalog, catalog_names, get_fixture, random_map
from treeinv.jacobian import analyze
from treeinv.mapfile import save_map


@pytest.fixture
def t32_path(tmp_path):
    path = tmp_path / "t32.map"
    save_map(get_fixture("triangular-3-2"), path)
    return str(path)


def test_trees_golden(capsys):
    assert cli.run(["trees", "--d", "3", "--internal", "4"]) == 0
    out = capsys.readouterr().out
    assert "369600" in out
    assert "N=9" in out


def test_trees_enumerate_agrees(capsys):
    assert cli.run(["trees", "--d", "2", "--internal", "3", "--enumerate"]) == 0
    out = capsys.readouterr().out
    assert "90" in out


@pytest.mark.parametrize("d", ["0", "1"])
def test_trees_arity_below_two_exits_2(capsys, d):
    assert cli.run(["trees", "--d", d, "--internal", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "arity d" in captured.err


def test_check_golden_fields(capsys, t32_path):
    assert cli.run(["check", "--map", t32_path]) == 0
    out = capsys.readouterr().out
    assert "unit_jacobian   = true" in out
    assert "nilpotency      = 3" in out
    assert "traces_vanish   = true" in out
    assert "gabber_bound    = 4" in out
    assert "poly_inverse    = 4" in out


def test_check_json_schema(capsys, t32_path):
    assert cli.run(["check", "--map", t32_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "map": "triangular-3-2",
        "n": 3,
        "d": 2,
        "unit_jacobian": True,
        "nilpotency_order": 3,
        "traces_vanish": True,
        "gabber_bound": 4,
        "polynomial_inverse_degree": 4,
    }


def test_check_skips_degree_probe_on_non_unit_map(capsys, tmp_path):
    # a non-unit map has no polynomial inverse, so no degree probe runs; on
    # this n=4, d=3 map a probe to its cap of 30 runs for well over 30 s
    path = tmp_path / "r43.map"
    save_map(random_map(4, 3, seed=1), path)
    assert cli.run(["check", "--map", str(path)]) == 0
    out = capsys.readouterr().out
    assert "unit_jacobian   = false" in out
    assert "poly_inverse    = none (Jacobian not unit)" in out
    assert cli.run(["check", "--map", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unit_jacobian"] is False
    assert payload["polynomial_inverse_degree"] is None


def test_missing_map_file_exits_2(capsys):
    assert cli.run(["invert", "--map", "no-such-file.map"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_map_exits_2_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("map x\nn 2\nd 2\nw 1 5 5 1/2\nend\n")
    assert cli.run(["check", "--map", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err


def test_unknown_verb_exits_2(capsys):
    assert cli.run(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert cli.run(["trees", "--d", "2", "--internal", "1", "--nope"]) == 2
    capsys.readouterr()


def test_invert_both_methods_catalog(tmp_path, capsys):
    # the d=2 maps at degree 7 hit the 7484400-tree stratum: needs a raised budget
    for pmap in catalog():
        path = tmp_path / f"{pmap.name}.map"
        save_map(pmap, path)
        rc = cli.run(
            [
                "invert",
                "--map",
                str(path),
                "--degree",
                "7",
                "--method",
                "both",
                "--budget",
                "8000000",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, (pmap.name, out)
        assert "agree" in out


# the tree methods' default cap: the largest cap at most max(10, d^(n-1) + d)
# whose top stratum fits the default budget (V = 5 for d = 2, V = 4 for d = 3)
TREE_DEFAULT_DEGREE = {
    "univar-2": 6,
    "univar-3": 10,
    "triangular-2-2": 6,
    "triangular-2-3": 10,
    "triangular-3-2": 6,
    "triangular-4-3": 10,
    "m2zero-2-2": 6,
    "random-2-2": 6,
}


def test_invert_both_methods_default_degree_fits_budget(tmp_path, capsys):
    assert sorted(TREE_DEFAULT_DEGREE) == sorted(catalog_names())
    for pmap in catalog():
        path = tmp_path / f"{pmap.name}.map"
        save_map(pmap, path)
        rc = cli.run(["invert", "--map", str(path), "--method", "both", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0, pmap.name
        assert payload["agreement"] is True and payload["verified"] is True
        assert payload["degree"] == TREE_DEFAULT_DEGREE[pmap.name]
    # the fixed point keeps its own default cap, and an explicit degree is still refused
    assert cli.run(["invert", "--map", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 10
    assert cli.run(["invert", "--map", str(path), "--method", "trees", "--degree", "7"]) == 2
    assert "7484400 trees" in capsys.readouterr().err


def test_invert_budget_exceeded_exits_2(t32_path, capsys):
    rc = cli.run(
        ["invert", "--map", t32_path, "--degree", "7", "--method", "trees", "--budget", "10"]
    )
    assert rc == 2
    assert "budget" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_invert_trees_cap_below_one_exits_2(t32_path, capsys, degree):
    assert cli.run(["invert", "--map", t32_path, "--degree", degree, "--method", "trees"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"degree cap must be >= 1, got {degree}" in captured.err


def test_invert_json_rationals(capsys, tmp_path):
    path = tmp_path / "u2.map"
    save_map(get_fixture("univar-2"), path)
    assert cli.run(["invert", "--map", path.as_posix(), "--degree", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    comp = payload["series"][0]
    coeffs = {tuple(t["monomial"]): t["coeff"] for t in comp}
    assert coeffs[(1,)] == "1/1"
    assert coeffs[(4,)] == "5/8"


# Non-integer coefficients: series are held over one shared denominator,
# so these pin that every printed coefficient is a reduced p/q and that
# terms come in graded-lex order.
GOLDEN_MAP = "map golden-2-2\nn 2\nd 2\nw 1 1 2 1/2\nw 2 1 1 -2/3\nw 2 2 2 3/4\nend\n"


def _terms(*pairs) -> list[dict]:
    return [{"monomial": list(m), "coeff": c} for m, c in pairs]


def test_invert_json_golden_rationals(capsys, tmp_path):
    path = tmp_path / "golden.map"
    path.write_text(GOLDEN_MAP)
    assert cli.run(["invert", "--map", str(path), "--degree", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "map": "golden-2-2",
        "n": 2,
        "d": 2,
        "degree": 4,
        "method": "fixedpoint",
        "series": [
            _terms(
                ((1, 0), "1/1"), ((1, 1), "1/2"), ((1, 2), "7/16"), ((3, 0), "-1/6"),
                ((1, 3), "29/64"), ((3, 1), "-11/24"),
            ),
            _terms(
                ((0, 1), "1/1"), ((0, 2), "3/8"), ((2, 0), "-1/3"), ((0, 3), "9/32"),
                ((2, 1), "-7/12"), ((0, 4), "135/512"), ((2, 2), "-29/32"), ((4, 0), "11/72"),
            ),
        ],
        "verified": True,
    }


def test_zfun_golden_rationals(capsys, tmp_path):
    path = tmp_path / "golden.map"
    path.write_text(GOLDEN_MAP)
    assert cli.run(["zfun", "--map", str(path), "--degree", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "map golden-2-2: partition series to degree 3",
        "  log Z = 5/4 y2 + 7/8 y2^2 - 3/4 y1^2 + 161/192 y2^3 - 7/4 y1^2 y2",
        "  Z     = 1 + 5/4 y2 + 53/32 y2^2 - 3/4 y1^2 + 289/128 y2^3 - 43/16 y1^2 y2",
        "  Z * JF(G(y)) = 1: True",
    ]
    assert cli.run(["zfun", "--map", str(path), "--degree", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["log_z"] == _terms(
        ((0, 1), "5/4"), ((0, 2), "7/8"), ((2, 0), "-3/4"), ((0, 3), "161/192"), ((2, 1), "-7/4")
    )
    assert payload["z"] == _terms(
        ((0, 0), "1/1"), ((0, 1), "5/4"), ((0, 2), "53/32"), ((2, 0), "-3/4"),
        ((0, 3), "289/128"), ((2, 1), "-43/16"),
    )


def test_zfun_univar2(capsys, tmp_path):
    path = tmp_path / "u2.map"
    save_map(get_fixture("univar-2"), path)
    assert cli.run(["zfun", "--map", str(path), "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "Z * JF(G(y)) = 1: True" in out
    assert "3/2" in out and "5/2" in out


def test_zfun_self_normalized_fixture(capsys, tmp_path):
    path = tmp_path / "m2.map"
    save_map(get_fixture("m2zero-2-2"), path)
    assert cli.run(["zfun", "--map", str(path), "--degree", "8"]) == 0
    out = capsys.readouterr().out
    assert "self-normalized" in out


def test_verify_theorem1_passes(capsys, tmp_path):
    path = tmp_path / "u2.map"
    save_map(get_fixture("univar-2"), path)
    assert cli.run(["verify-theorem1", "--map", str(path), "--degree", "40"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_verify_theorem1_fails_with_tiny_tol(capsys, tmp_path):
    path = tmp_path / "u2.map"
    save_map(get_fixture("univar-2"), path)
    rc = cli.run(
        ["verify-theorem1", "--map", str(path), "--degree", "10", "--tol", "1e-18"]
    )
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol", "inf"], "tolerance"),
        (["--tol", "-1"], "tolerance"),
        (["--tol", "nan"], "tolerance"),
        (["--samples", "-1"], "non-negative"),
    ],
)
def test_verify_theorem1_refuses_what_it_cannot_judge(capsys, tmp_path, flags, message):
    path = tmp_path / "u2.map"
    save_map(get_fixture("univar-2"), path)
    assert cli.run(["verify-theorem1", "--map", str(path), "--degree", "10", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "w, flags, quantity",
    [
        ("1" + "0" * 400, [], "||w||"),
        ("1/1" + "0" * 400, [], "||w||"),
        ("1/1" + "0" * 310, [], "radius"),
        ("1" + "0" * 200, ["--degree", "3"], "series coefficient"),
    ],
    ids=["w=1e400", "w=1e-400", "w=1e-310", "w=1e200"],
)
def test_verify_theorem1_refuses_a_map_outside_the_range_of_a_double(capsys, tmp_path, w, flags, quantity):
    path = tmp_path / "w.map"
    path.write_text(f"map w\nn 1\nd 2\nw 1 1 1 {w}\nend\n")
    assert cli.run(["verify-theorem1", "--map", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and quantity in captured.err


def test_catalog_name_round_trip_through_check(tmp_path, capsys):
    for name in catalog_names():
        assert cli.run(["catalog", "--name", name]) == 0
        text = capsys.readouterr().out
        path = tmp_path / f"{name}.map"
        path.write_text(text)
        assert cli.run(["check", "--map", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        verdict = analyze(get_fixture(name))
        assert payload["unit_jacobian"] == verdict.unit_jacobian
        assert payload["nilpotency_order"] == verdict.nilpotency_order
        assert payload["traces_vanish"] == verdict.traces_vanish


def test_catalog_unknown_name_exits_2(capsys):
    assert cli.run(["catalog", "--name", "nope"]) == 2
    capsys.readouterr()


def test_entry_point_subprocess():
    # The child sees neither pytest's pythonpath setting nor sys.path, so it
    # is pointed at the directory this process imported treeinv from.
    src = str(Path(treeinv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "treeinv.cli", "trees", "--d", "2", "--internal", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "6" in proc.stdout
