"""Property tests over generated point sets (hypothesis, derandomized)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kedges import (
    GeneralPositionError,
    GeneratorSpec,
    PointSet,
    PointSetFormatError,
    apply_motion,
    coord_bits,
    crossings_bruteforce,
    crossings_via_identity,
    cumulative,
    edge_vector_bruteforce,
    edge_vector_sweep,
    exact_lcr_from_E,
    generate,
    hull_size,
    parse_point_set,
    reduce_to_triangle,
)
from kedges.geometry import _clear_denominators
from helpers import clear_denominators_by_fractions


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


def _naive_rejection(pts):
    """Why a naive check rejects the list: the first repeated point
    (with its first occurrence), else the lexicographically first
    collinear index triple by the cubic scan, else None."""
    n = len(pts)
    for j in range(n):
        for i in range(j):
            if pts[i] == pts[j]:
                return ("duplicate point at indices (%d, %d)" % (i, j), None)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if _collinear(pts[i], pts[j], pts[k]):
                    return (None, (i, j, k))
    return None


# coordinates in -3..3, so that duplicates and collinear triples are
# common; distinct points half of the time, so that collinear triples
# are not hidden behind a duplicate
_small_point = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.lists(_small_point, min_size=3, max_size=10, unique=True)
    | st.lists(_small_point, min_size=3, max_size=10)
)
def test_point_set_accepts_exactly_what_the_naive_check_accepts(pts):
    want = _naive_rejection(pts)
    try:
        S = PointSet(pts)
    except GeneralPositionError as exc:
        assert want == (None, exc.triple)
    except ValueError as exc:
        assert want == (str(exc), None)
    else:
        assert want is None
        assert [tuple(p) for p in S] == pts


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


@st.composite
def random_disc_sets(draw):
    """A random-disc set of 5 to 30 points with a radius of 2^4 to 2^40,
    of every bit length in that range."""
    n = draw(st.integers(5, 30))
    e = draw(st.integers(5, 40))
    radius = draw(st.integers(2 ** (e - 1), 2 ** e))
    return generate(GeneratorSpec("random-disc", n, draw(st.integers(0, 2 ** 32)), scale=radius))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(random_disc_sets())
def test_reduce_to_triangle_keeps_coordinates_near_input_size(S):
    T, trace = reduce_to_triangle(S)
    assert coord_bits(T) <= coord_bits(S) + 64
    R = S
    for step in trace.steps:
        R = apply_motion(R, step.moved, step.ray, step.stop)
    assert R == T


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


def _census_and_crossings(S):
    return edge_vector_sweep(S), crossings_via_identity(S).crossings


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data(), point_sets(20) | big_point_sets)
def test_census_and_crossings_ignore_point_order(data, S):
    shuffled = PointSet(data.draw(st.permutations(list(S))))
    assert _census_and_crossings(shuffled) == _census_and_crossings(S)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    point_sets(20) | big_point_sets,
    st.lists(st.integers(-1000, 1000), min_size=6, max_size=6),
    st.sampled_from([1, -1]),
)
def test_census_and_crossings_survive_integer_affine_maps(S, coeffs, flip):
    # (a, b; c, d) + (e, f); flip negates the second row, and with it
    # the determinant, so mirror images are drawn as often as not
    a, b, c, d, e, f = coeffs
    c, d = flip * c, flip * d
    assume(a * d - b * c != 0)
    T = PointSet([(a * p.x + b * p.y + e, c * p.x + d * p.y + f) for p in S])
    assert _census_and_crossings(T) == _census_and_crossings(S)


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


coordinates = st.integers(-(2 ** 70), 2 ** 70) | st.fractions(max_denominator=2 ** 40)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=12))
def test_clear_denominators_scales_like_fractions(coords):
    # the scale comes from the non-integer coordinates alone; the oracle
    # makes every coordinate a Fraction and must give the same points
    assert _clear_denominators(coords) == clear_denominators_by_fractions(coords)
