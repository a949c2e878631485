"""Reading and writing point-set files.

The format is line oriented: the first content line holds n, the next
n content lines hold two whitespace-separated integer coordinates
each.  Integers are ASCII decimal, ``[+-]?[0-9]+``.  Blank lines and
lines starting with ``#`` are ignored.
"""

from __future__ import annotations

import re
import sys
from importlib import resources
from pathlib import Path

from .geometry import GeneralPositionError, PointSet


_INTEGER = re.compile(r"[+-]?[0-9]+")


class PointSetFormatError(ValueError):
    """The file is not a well-formed point-set description."""


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _excerpt(line: str) -> str:
    """repr of line, cut to its first 40 characters."""
    return repr(line) if len(line) <= 40 else repr(line[:40]) + "..."


def _integers(fields, lineno: int, line: str, malformed: str):
    """The fields as ints, each ASCII ``[+-]?[0-9]+`` (int() alone also
    takes ``1_0`` and non-ASCII digits)."""
    if not all(_INTEGER.fullmatch(f) for f in fields):
        raise PointSetFormatError("line %d: %s, got %s" % (lineno, malformed, _excerpt(line)))
    try:
        return [int(f) for f in fields]
    except ValueError:  # well-formed digits fail only CPython's int-string limit
        raise PointSetFormatError(
            "line %d: an integer exceeds Python's %d-digit int-string limit, got %s"
            % (lineno, sys.get_int_max_str_digits(), _excerpt(line))
        ) from None


def parse_point_set(text: str) -> PointSet:
    lines = list(_content_lines(text))
    if not lines:
        raise PointSetFormatError("no content lines in point-set input")
    lineno, head = lines[0]
    (n,) = _integers([head], lineno, head, "expected the point count")
    if n < 3:
        raise PointSetFormatError("a point set needs at least 3 points, file declares %d" % n)
    if len(lines) - 1 != n:
        raise PointSetFormatError(
            "file declares %d points but has %d coordinate lines" % (n, len(lines) - 1)
        )
    pts = []
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise PointSetFormatError(
                "line %d: expected two coordinates, got %s" % (lineno, _excerpt(line))
            )
        pts.append(tuple(_integers(fields, lineno, line, "coordinates must be integers")))
    try:
        return PointSet(pts)
    except GeneralPositionError as exc:
        where = ", ".join("%d" % lines[1 + i][0] for i in exc.triple)
        raise PointSetFormatError("invalid point set: %s (lines %s)" % (exc, where)) from exc
    except ValueError as exc:
        raise PointSetFormatError("invalid point set: %s" % exc) from exc


def load_point_set(path) -> PointSet:
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise PointSetFormatError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise PointSetFormatError(
            "cannot read %s: not ASCII text (byte 0x%02x at offset %d)"
            % (path, exc.object[exc.start], exc.start)
        ) from exc
    return parse_point_set(text)


def format_point_set(S: PointSet, comment: str = "") -> str:
    out = []
    for line in comment.splitlines():
        out.append(("# " + line).rstrip())
    out.append("%d" % len(S))
    for p in S:
        out.append("%d %d" % (p.x, p.y))
    return "\n".join(out) + "\n"


def save_point_set(S: PointSet, path, comment: str = "") -> None:
    Path(path).write_text(format_point_set(S, comment), encoding="ascii")


def packaged_point_set(name: str) -> PointSet:
    """Load one of the point sets shipped under ``kedges/data``."""
    path = resources.files(__package__).joinpath("data").joinpath(name)
    text = path.read_text(encoding="ascii")
    return parse_point_set(text)
