"""Reading and writing point-set files.

The format is line oriented: the first content line holds n, the next
n content lines hold two whitespace-separated integer coordinates
each.  Blank lines and lines starting with ``#`` are ignored.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .geometry import GeneralPositionError, PointSet


class PointSetFormatError(ValueError):
    """The file is not a well-formed point-set description."""


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_point_set(text: str) -> PointSet:
    lines = list(_content_lines(text))
    if not lines:
        raise PointSetFormatError("no content lines in point-set input")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise PointSetFormatError(
            "line %d: expected the point count, got %r" % (lineno, head)
        ) from None
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
                "line %d: expected two coordinates, got %r" % (lineno, line)
            )
        try:
            pts.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise PointSetFormatError(
                "line %d: coordinates must be integers, got %r" % (lineno, line)
            ) from None
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
