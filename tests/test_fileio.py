"""Point-set file parsing, formatting and the packaged data sets."""

import sys

import pytest

from kedges import (
    PointSet,
    PointSetFormatError,
    format_point_set,
    load_point_set,
    packaged_point_set,
    parse_point_set,
    save_point_set,
)


def test_parse_with_comments_and_blanks():
    S = parse_point_set("# comment\n\n3\n0 0\n# mid comment\n4 1\n\n2 5\n")
    assert [(p.x, p.y) for p in S] == [(0, 0), (4, 1), (2, 5)]


def test_format_parse_round_trip():
    S = PointSet([(-3, 7), (11, 0), (2, -9), (5, 5)])
    text = format_point_set(S, comment="two\nlines")
    assert text.startswith("# two\n# lines\n4\n")
    assert parse_point_set(text) == S


def test_save_load_round_trip(tmp_path):
    S = PointSet([(0, 0), (40, 1), (17, 33)])
    path = tmp_path / "s.txt"
    save_point_set(S, path, comment="saved")
    assert load_point_set(path) == S


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only comments\n",
        "abc\n1 2\n",
        "2\n0 0\n1 1\n",
        "3\n0 0\n1 1\n",
        "3\n0 0\n1 1\n2 2\n3 3\n",
        "3\n0 0\n1 1\n2 2 2\n",
        "3\n0 0\n1 1\nx y\n",
        "3\n0 0\n1 1\n2 2\n",  # collinear
        "3\n0 0\n0 0\n2 3\n",  # duplicate
        "3\n0 0\n1.5 2\n4 1\n",  # not integers
        "3\n0 0\n1_0 2\n4 1\n",  # digit separator
        "3\n0 0\n\u0661\u0662 2\n4 1\n",  # Arabic-Indic digits
        "\u0663\n0 0\n1 2\n4 1\n",  # non-ASCII count
        "3\n0 0\n0x1 2\n4 1\n",
    ],
)
def test_malformed_inputs_raise(text):
    with pytest.raises(PointSetFormatError):
        parse_point_set(text)


def test_error_messages_carry_line_numbers():
    with pytest.raises(PointSetFormatError) as info:
        parse_point_set("# c\n3\n0 0\n1 1\nbad line\n")
    assert "line 5" in str(info.value)


def test_overlong_coordinate_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    text = "3\n0 0\n1 " + "7" * (limit + 100) + "\n2 5\n"
    with pytest.raises(PointSetFormatError) as info:
        parse_point_set(text)
    msg = str(info.value)
    assert "line 3" in msg and "%d-digit" % limit in msg
    assert len(msg) < 200


def test_collinear_triple_reports_file_lines():
    with pytest.raises(PointSetFormatError) as info:
        parse_point_set("# c\n3\n\n0 0\n1 1\n# gap\n2 2\n")
    msg = str(info.value)
    assert "indices (0, 1, 2)" in msg
    assert "lines 4, 5, 7" in msg


def test_missing_file(tmp_path):
    with pytest.raises(PointSetFormatError):
        load_point_set(tmp_path / "nope.txt")


def test_non_ascii_file_names_the_file(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"3\n0 0\n1 \xff\n2 5\n")
    with pytest.raises(PointSetFormatError) as info:
        load_point_set(path)
    msg = str(info.value)
    assert msg.startswith("cannot read %s: not ASCII text" % path)
    assert "0xff" in msg


def test_packaged_halving_maximizer():
    S = packaged_point_set("halving_max_n8.txt")
    assert len(S) == 8
    with pytest.raises(FileNotFoundError):
        packaged_point_set("no_such_data.txt")
