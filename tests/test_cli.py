"""Command-line interface: outputs, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from kedges import PointSet, format_point_set, load_point_set, save_point_set
from kedges.cli import main
from helpers import convex_polygon, random_point_set


@pytest.fixture
def hexagon_file(tmp_path):
    path = tmp_path / "hex.txt"
    save_point_set(convex_polygon(6), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_text(capsys, hexagon_file):
    code, out, _ = run(capsys, ["census", hexagon_file])
    assert code == 0
    assert "e-vector: 6 6 3" in out
    assert "halving edges: 3" in out


def test_census_csv_and_json(capsys, hexagon_file):
    code, out, _ = run(capsys, ["census", hexagon_file, "--csv"])
    assert code == 0
    assert out.splitlines()[0] == "n,k,e_k,E_k"
    assert out.splitlines()[1] == "6,0,6,6"
    code, out, _ = run(capsys, ["census", hexagon_file, "--json"])
    assert json.loads(out) == {"n": 6, "e": [6, 6, 3], "E": [6, 12, 15], "halving": 3}


def test_crossings_methods(capsys, hexagon_file):
    code, out, _ = run(capsys, ["crossings", hexagon_file])
    assert code == 0 and "crossings (identity): 15" in out
    code, out, err = run(capsys, ["crossings", hexagon_file, "--method", "both"])
    assert code == 0
    assert "crossings (bruteforce): 15" in out
    assert "crossings (identity): 15" in out
    # timings go to stderr so stdout stays deterministic
    assert "s" in err and "0.0" in err


def test_bounds_contains_known_value(capsys):
    code, out, _ = run(capsys, ["bounds", "--n", "19"])
    assert code == 0
    assert "crossing lower bound: 1318" in out
    assert "halving upper bound: 56" in out


def test_bounds_json(capsys):
    code, out, _ = run(capsys, ["bounds", "--n", "13", "--json"])
    obj = json.loads(out)
    assert obj["crossing_lower_bound"] == 229
    assert obj["halving_upper_bound"] == 31
    assert [r["simple"] for r in obj["rows"]] == [3, 9, 18, 30, 45]


def test_epsilon(capsys):
    code, out, _ = run(capsys, ["epsilon", "--t0", "0.4981", "--json"])
    assert code == 0
    assert 1.3e-6 <= json.loads(out)["epsilon"] <= 1.5e-6


def test_generate_deterministic(capsys):
    code, first, _ = run(capsys, ["generate", "--kind", "random-disc", "--n", "10", "--seed", "1"])
    assert code == 0
    code, second, _ = run(capsys, ["generate", "--kind", "random-disc", "--n", "10", "--seed", "1"])
    assert first == second
    S = PointSet(
        tuple(int(v) for v in line.split())
        for line in first.splitlines()
        if line and not line.startswith("#") and len(line.split()) == 2
    )
    assert len(S) == 10


def test_generate_to_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, out, _ = run(
        capsys, ["generate", "--kind", "convex", "--n", "8", "--out", str(path)]
    )
    assert code == 0 and out == ""
    code, out, _ = run(capsys, ["generate", "--kind", "convex", "--n", "8"])
    assert path.read_text() == out


def test_unwritable_output_is_an_input_error(capsys, tmp_path):
    missing = tmp_path / "missing"
    src = tmp_path / "s.txt"
    save_point_set(convex_polygon(5), src)
    for argv in (
        ["generate", "--kind", "convex", "--n", "5", "--out", str(missing / "x.txt")],
        ["reduce", str(src), "--trace", str(missing / "t.json")],
        ["reduce", str(src), "--out", str(missing / "r.txt")],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error: cannot write")


def test_reduce_summary_and_trace(capsys, tmp_path):
    src = tmp_path / "s.txt"
    save_point_set(random_point_set(__import__("random").Random(12), 8, radius=40), src)
    trace_path = tmp_path / "t.json"
    out_path = tmp_path / "r.txt"
    code, out, _ = run(
        capsys,
        ["reduce", str(src), "--trace", str(trace_path), "--out", str(out_path)],
    )
    assert code == 0
    assert "hull: " in out and "-> 3" in out
    obj = json.loads(trace_path.read_text())
    assert set(obj) == {"before", "after", "steps"}
    assert obj["after"]["hull_size"] == 3
    for st in obj["steps"]:
        assert set(st) == {"moved", "direction", "stop", "events"}
        num, den = st["stop"].split("/")
        assert int(den) > 0 and int(num) > 0
        for ev in st["events"]:
            assert set(ev) == {"t", "pair", "k", "delta"}
            assert ev["delta"] == 2 * ev["k"] - 8 + 3
    T = load_point_set(out_path)
    assert len(T) == 8


def test_verify_ok_and_exit_codes(capsys, tmp_path, hexagon_file):
    code, out, _ = run(capsys, ["verify", hexagon_file])
    assert code == 0 and "verify: OK" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("not a point set\n")
    code, _, err = run(capsys, ["census", str(bad)])
    assert code == 2 and "error:" in err

    collinear = tmp_path / "col.txt"
    collinear.write_text("3\n0 0\n1 1\n2 2\n")
    code, _, err = run(capsys, ["verify", str(collinear)])
    assert code == 2

    code, _, err = run(capsys, ["bounds", "--n", "3"])
    assert code == 2

    code, _, err = run(capsys, ["generate", "--kind", "random-disc", "--n", "9", "--scale", "1"])
    assert code == 1

    # a grid row holds at most two points in general position, so more
    # than ten points on the default grid of five rows is bad input
    for n in ("11", "26"):
        code, _, err = run(capsys, ["generate", "--kind", "grid-search", "--n", n])
        assert code == 2 and "exceeds 10: the 5 rows" in err


def test_verify_many_seeded_sets(capsys, tmp_path):
    import random

    rng = random.Random(2024)
    for trial in range(100):
        S = random_point_set(rng, rng.randint(4, 11), radius=60)
        path = tmp_path / ("s%03d.txt" % trial)
        save_point_set(S, path)
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 0, out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kedges.cli", "bounds", "--n", "19"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1318" in proc.stdout
