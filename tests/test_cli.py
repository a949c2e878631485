"""Command-line interface: outputs, exit codes, determinism."""

import json
import subprocess
import sys
from itertools import combinations

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


def test_generate_grid_search_up_to_two_points_per_row(capsys, tmp_path):
    # with n = 10 every row of the default grid holds two points, and no
    # random sample is in general position; n = 9 comes from the sampler
    for n in (9, 10):
        path = tmp_path / ("grid%d.txt" % n)
        code, _, _ = run(capsys, ["generate", "--kind", "grid-search", "--n", str(n), "--out", str(path)])
        assert code == 0
        pts = [(p.x, p.y) for p in load_point_set(path)]
        assert len(set(pts)) == n
        assert all(max(abs(x), abs(y)) <= 2 for x, y in pts)
        for a, b, c in combinations(pts, 3):
            assert (b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0])
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 0, out


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


def test_cross_check_outputs_are_pinned(capsys, tmp_path):
    # stdout of the cross-checking commands, byte for byte, on a seeded
    # 40-point disc set
    path = str(tmp_path / "disc40.txt")
    code, _, _ = run(capsys, ["generate", "--kind", "random-disc", "--n", "40", "--seed", "5", "--out", path])
    assert code == 0
    expected = {
        ("verify", path): "verify: OK (n=40)\n",
        ("crossings", path, "--method", "both"): (
            "n: 40\ncrossings (bruteforce): 68126\ncrossings (identity): 68126\n"
        ),
        ("crossings", path, "--method", "both", "--json"): (
            '{"crossings": 68126, "methods": ["bruteforce", "identity"], "n": 40}\n'
        ),
        ("crossings", path, "--method", "both", "--csv"): (
            "n,method,crossings\n40,bruteforce,68126\n40,identity,68126\n"
        ),
        ("generate", "--kind", "grid-search", "--n", "8", "--scale", "3", "--seed", "9"): (
            "# generated: kind=grid-search n=8 seed=9 scale=3\n8\n"
            "3 0\n0 2\n0 3\n-2 -3\n-1 2\n2 0\n-1 -2\n-2 3\n"
        ),
    }
    for argv, out in expected.items():
        code, got, _ = run(capsys, list(argv))
        assert (code, got) == (0, out), argv
