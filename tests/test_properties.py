"""Property tests over generated point sets (hypothesis, derandomized)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kedges import (
    PointSet,
    PointSetFormatError,
    apply_motion,
    crossings_bruteforce,
    crossings_via_identity,
    cumulative,
    edge_vector_bruteforce,
    edge_vector_sweep,
    exact_lcr_from_E,
    hull_size,
    parse_point_set,
    reduce_to_triangle,
)


def _collinear(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])


@st.composite
def point_sets(draw, bound, clusters=False):
    """An integer point set in general position, 4 to 14 points with
    coordinates in [-bound, bound]: of a drawn list of distinct points,
    each is kept that is on no line through two kept points (naive
    triple check).  With ``clusters``, every point lies within 1000 of
    one of two or three centers, so that from one cluster the points of
    another one sit at nearly the same angle."""
    n = draw(st.integers(4, 14))
    coord = st.integers(-bound, bound)
    point = st.tuples(coord, coord)
    if clusters:
        centers = draw(st.lists(point, min_size=2, max_size=3))
        offset = st.integers(-1000, 1000)
        point = st.builds(
            lambda c, dx, dy: (c[0] + dx, c[1] + dy), st.sampled_from(centers), offset, offset
        )
    drawn = draw(st.lists(point, min_size=n, max_size=3 * n, unique=True))
    pts = []
    for c in drawn:
        if not any(_collinear(a, b, c) for i, a in enumerate(pts) for b in pts[i + 1:]):
            pts.append(c)
    assume(len(pts) >= n)
    return PointSet(pts[:n])


big_point_sets = point_sets(2 ** 200) | point_sets(2 ** 200, clusters=True)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(point_sets(20) | point_sets(2 ** 64))
def test_reduce_to_triangle_postconditions_and_replay(S):
    T, trace = reduce_to_triangle(S)
    assert hull_size(T) == 3
    assert trace.after.hull_size == 3
    deltas = [ev.crossing_delta for step in trace.steps for ev in step.events]
    assert all(d < 0 for d in deltas)
    assert sum(deltas) == trace.after.crossings - trace.before.crossings
    R = S
    for step in trace.steps:
        R = apply_motion(R, step.moved, step.ray, step.stop)
    assert R == T
    if len(S) <= 9:
        assert trace.after.crossings == crossings_bruteforce(T).crossings


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(big_point_sets)
def test_sweep_census_equals_brute_force(S):
    assert edge_vector_sweep(S) == edge_vector_bruteforce(S)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(big_point_sets)
def test_identity_crossings_equal_brute_force_and_cumulative_form(S):
    crossings = crossings_via_identity(S).crossings
    assert crossings == crossings_bruteforce(S).crossings
    assert crossings == exact_lcr_from_E(cumulative(edge_vector_bruteforce(S)))


# tokens close to the point-set grammar: integers, near-integers that
# int() alone would accept, an integer over CPython's int-string limit,
# comment marks and arbitrary short text
_integer = st.integers(-50, 50).map(str)
_token = st.one_of(
    _integer,
    st.sampled_from(["1_0", "\u0661\u0662", "+3", "-0", "0x10", "1e3", "#", "9" * 4400]),
    st.text(max_size=4),
)


@st.composite
def point_set_texts(draw):
    """Text shaped like a point-set file: a count line, often the right
    count, then three to six rows of two small integers or of zero to
    three tokens."""
    row = st.tuples(_integer, _integer) | st.lists(_token, max_size=3)
    rows = draw(st.lists(row.map(" ".join), min_size=3, max_size=6))
    head = draw(st.just(str(len(rows))) | _token)
    return "\n".join([head] + rows)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.text() | point_set_texts())
def test_parse_point_set_raises_only_format_errors(text):
    try:
        S = parse_point_set(text)
    except PointSetFormatError:
        return
    assert isinstance(S, PointSet)
