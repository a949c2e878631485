"""Command-line interface: outputs, exit codes, determinism."""

import importlib
import json
import os
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kedges import PointSet, format_point_set, load_point_set
from kedges.cli import main
from kedges.generators import KINDS
from helpers import convex_polygon, random_point_set


@pytest.fixture
def hexagon_file(tmp_path):
    path = tmp_path / "hex.txt"
    path.write_text(format_point_set(convex_polygon(6)), encoding="ascii")
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


def test_bounds_rejects_n_above_the_cap(capsys):
    # bound_table builds about n / 2 rows, and a 400-digit n used to end
    # in an OverflowError traceback from the square-root bound
    code, out, _ = run(capsys, ["bounds", "--n", "100000", "--csv"])
    assert code == 0 and out.startswith("n,k,simple,refined,sqrt,best\n")
    for n in ("100001", "9" * 400):
        code, out, err = run(capsys, ["bounds", "--n", n])
        assert (code, out, err) == (2, "", "error: --n exceeds 100000\n")


def test_generate_rejects_grid_radius_above_the_cap(capsys):
    # grid search lists all (2r+1)^2 cells before searching: r = 256 peaks
    # near 46 MB, and nothing bounded the radius before
    code, out, _ = run(capsys, ["generate", "--kind", "grid-search", "--n", "5", "--scale", "256"])
    assert code == 0 and out.startswith("# generated: kind=grid-search n=5 seed=0 scale=256\n5\n")
    for scale in ("257", "9" * 400):
        code, out, err = run(capsys, ["generate", "--kind", "grid-search", "--n", "5", "--scale", scale])
        assert (code, out, err) == (2, "", "error: grid radius exceeds 256\n")


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
    src.write_text(format_point_set(convex_polygon(5)), encoding="ascii")
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
    S = random_point_set(__import__("random").Random(12), 8, radius=40)
    src.write_text(format_point_set(S), encoding="ascii")
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
        path.write_text(format_point_set(S), encoding="ascii")
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


_GENERATE_USAGE = (
    "usage: kedges generate [-h] --kind\n"
    "                       {random-disc,convex,three-cluster,grid-search} --n N\n"
    "                       [--seed SEED] [--scale SCALE] [--out FILE]\n"
)


def test_cli_surface_is_pinned(capsys, monkeypatch, hexagon_file):
    # help, usage errors and the exit-1 errors, byte for byte: the
    # handlers import their modules late, and none of this may move
    monkeypatch.setenv("COLUMNS", "80")
    commands = "{census,crossings,bounds,reduce,generate,epsilon,verify}"
    expected = {
        ("--help",): (0, (
            "usage: kedges [-h]\n              %s ...\n\n"
            "Exact edge censuses, crossing numbers, bounds and hull reduction for planar\n"
            "point sets in general position.\n\npositional arguments:\n  %s\n"
            "    census              edge vector and halving count of a point set\n"
            "    crossings           rectilinear crossing number of a point set\n"
            "    bounds              lower-bound table for n points\n"
            "    reduce              reduce the convex hull to a triangle\n"
            "    generate            emit a deterministic point set\n"
            "    epsilon             asymptotic gain integral\n"
            "    verify              cross-check every computation on a point set\n\n"
            "options:\n  -h, --help            show this help message and exit\n"
        ) % (commands, commands), ""),
        ("generate", "--help"): (0, _GENERATE_USAGE + (
            "\noptions:\n  -h, --help            show this help message and exit\n"
            "  --kind {random-disc,convex,three-cluster,grid-search}\n"
            "  --n N                 number of points (>= 3)\n"
            "  --seed SEED           generator seed\n"
            "  --scale SCALE         coordinate radius (0 = per-kind default)\n"
            "  --out FILE            write to a file instead of stdout\n"
        ), ""),
        ("generate", "--kind", "bogus", "--n", "5"): (2, "", _GENERATE_USAGE + (
            "kedges generate: error: argument --kind: invalid choice: 'bogus' (choose from"
            " 'random-disc', 'convex', 'three-cluster', 'grid-search')\n"
        )),
        # a GenerationError
        ("generate", "--kind", "random-disc", "--n", "5000", "--scale", "3"): (
            1, "", "error: could not place 5000 points in general position in a disc of radius 3\n"
        ),
    }
    for argv, want in expected.items():
        assert run(capsys, list(argv)) == want, argv

    import kedges.crossings

    def broken(e):
        raise kedges.crossings.CensusError("identity yielded -1 crossings for n=%d" % e.n)

    monkeypatch.setattr(kedges.crossings, "crossings_from_census", broken)
    assert run(capsys, ["crossings", hexagon_file]) == (
        1, "", "error: identity yielded -1 crossings for n=6\n"
    )


_FOOTPRINT = r"""
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("kedges."))

import kedges
seen = {"import kedges": loaded()}
import kedges.cli
seen["import kedges.cli"] = loaded()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[" ".join(argv)] = [kedges.cli.main(argv), loaded()]
print(json.dumps(seen))
"""


def test_each_command_imports_only_what_it_runs(tmp_path):
    # one fresh interpreter per subcommand; generate runs a non-searching
    # kind, then grid search, which alone needs the bounds module
    path = str(tmp_path / "p.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("4\n0 0\n10 1\n3 9\n4 3\n")
    runs = [
        [["census", path]],
        [["crossings", path]],
        [["bounds", "--n", "6"]],
        [["reduce", path]],
        [["generate", "--kind", "convex", "--n", "4"], ["generate", "--kind", "grid-search", "--n", "4"]],
        [["verify", path]],
        [["epsilon", "--t0", "0.4"]],
    ]
    import kedges

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kedges.__file__)))
    seen = {}
    for argvs in runs:
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT, json.dumps(argvs)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        seen.update(json.loads(proc.stdout))
    assert seen.pop("import kedges") == []
    assert seen.pop("import kedges.cli") == ["kedges.cli"]
    for command, (code, modules) in seen.items():
        assert code == 0, command
        name = command.split()[0] if "grid-search" not in command else "grid-search"
        assert ("kedges.motion" in modules) == (name == "reduce"), command
        assert ("kedges.checks" in modules) == (name == "verify"), command
        assert ("kedges.bounds" in modules) == (name in ("bounds", "epsilon", "verify", "grid-search")), command


def test_package_exports_resolve_lazily_to_their_home_objects(monkeypatch):
    import kedges

    assert kedges.__all__ == sorted(kedges._HOME)
    for name in kedges.__all__:
        home = importlib.import_module("kedges." + kedges._HOME[name])
        obj = getattr(home, name)
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name
        # drop the cached binding so each lookup goes through __getattr__
        monkeypatch.delitem(vars(kedges), name, raising=False)
        assert getattr(kedges, name) is obj, name
        monkeypatch.delitem(vars(kedges), name)
        ns = {}
        exec("from kedges import %s" % name, ns)
        assert ns[name] is obj, name
    for name in kedges.__all__:
        monkeypatch.delitem(vars(kedges), name)
    assert set(kedges.__all__) <= set(dir(kedges))
    ns = {}
    exec("from kedges import *", ns)
    assert {k: v for k, v in ns.items() if k != "__builtins__"} == {
        name: getattr(importlib.import_module("kedges." + kedges._HOME[name]), name)
        for name in kedges.__all__
    }
    ns = {}
    exec("from kedges import census", ns)
    assert ns["census"] is importlib.import_module("kedges.census")
    with pytest.raises(AttributeError, match="no_such_name"):
        kedges.no_such_name


# ------------------------------------------------------------- fuzz

_COMMANDS = ("census", "crossings", "bounds", "reduce", "generate", "verify", "epsilon")
_junk = st.sampled_from(["", "-", "--", "x", "1e3", "0x10", "nan", "inf", "-0", "#", "\u0661"])
_small_int = st.integers(-5, 200).map(str)
# bounds --n is drawn up to 200 or past the command's cap of 100,000,
# where it is rejected: bound_table builds about n/2 rows
_bounds_n = _small_int | st.integers(100_001, 10 ** 400).map(str)
_scale = st.integers(-1, 6).map(str) | st.integers(257, 10 ** 400).map(str)


@st.composite
def _mostly(draw, good, bad):
    """A draw from ``good`` about three times in four, else from ``bad``."""
    return draw(good if draw(st.integers(0, 3)) < 3 else bad)


@st.composite
def _point_file_text(draw):
    """At most 12 lines: a count (mostly the right one), then rows of two
    integers of up to 200 bits: three or more distinct ones, or any
    number mixed with junk rows."""
    big = st.integers(-(2 ** 200), 2 ** 200).map(str)
    pair = st.tuples(big, big).map(" ".join)
    junk_row = st.lists(big | _junk | st.just("9" * 400), max_size=3).map(" ".join)
    rows = draw(st.lists(pair, min_size=3, max_size=11, unique=True) | st.lists(pair | junk_row, max_size=11))
    return "\n".join([draw(_mostly(st.just(str(len(rows))), _small_int | _junk))] + rows) + "\n"


@st.composite
def _argv(draw):
    """An argv for one of the seven subcommands, mostly well formed;
    FILE stands for the point file and OUT for a writable path."""
    command = draw(st.sampled_from(_COMMANDS))
    fmt = draw(_mostly(st.just([]), st.sampled_from([["--json"], ["--csv"], ["--json", "--csv"]])))
    if command in ("census", "crossings", "reduce", "verify"):
        argv = [command, draw(_mostly(st.just("FILE"), st.sampled_from(["OUT", "FILE/x"])))]
        if command == "crossings":
            argv += draw(st.sampled_from([[], ["--method", "brute"], ["--method", "both"], ["--method", "x"]]))
        if command == "reduce":
            argv += draw(st.sampled_from([[], ["--trace", "OUT"], ["--out", "OUT"], ["--out", "FILE/x"]]))
        if command != "verify":
            argv += fmt
    elif command == "bounds":
        argv = ["bounds", "--n", draw(_mostly(_bounds_n, _junk))] + fmt
    elif command == "generate":
        # n stays small: random-disc retries up to 200,000 draws; the
        # radius is small or past grid search's cap of 256, where that
        # kind is rejected: it lists every cell of its grid
        argv = ["generate", "--kind", draw(_mostly(st.sampled_from(KINDS), _junk))]
        argv += ["--n", draw(_mostly(st.integers(-2, 14).map(str), _junk))]
        argv += draw(st.sampled_from([[], ["--out", "OUT"]]))
        argv += ["--seed", draw(_mostly(st.integers(-1, 2 ** 64).map(str), _junk))]
        argv += ["--scale", draw(_mostly(_scale, _junk))]
    else:
        t0 = _mostly(st.floats(0, 0.5), st.floats()).map(repr) | _junk
        argv = ["epsilon", "--t0", draw(t0)] + fmt
    return argv + draw(_mostly(st.just([]), _junk.map(lambda token: [token])))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(text=_point_file_text(), argv=_argv())
def test_main_returns_an_exit_code_on_fuzzed_input(fuzz_dir, text, argv):
    points, out = fuzz_dir / "points.txt", fuzz_dir / "out.txt"
    points.write_text(text, encoding="utf-8")
    argv = [a.replace("FILE", str(points)).replace("OUT", str(out)) for a in argv]
    assert main(argv) in (0, 1, 2)
