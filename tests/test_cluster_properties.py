"""Property tests: the cluster shortcuts against their slow paths.

The same two differentials as in ``test_clusters``, with Hypothesis
drawing the inputs: the tags of a point from sorted cuts against every
balanced split, and a block's radii from one sort against the per-vertex
rule.  Two more pin what the cluster layer states once: the collapse,
equality and hash shared by both point classes, and the tagging
homotopy's endpoints.  The last six check the integer geometry against
its Fraction-arithmetic oracles in ``util``: region statistics and
contraction, the region report's retraction check, damping factors and
the damped payload, level blocks, the radii of blocks with at most ``m``
members, and the gauge's exit radius.
Runs are derandomized, so every run draws the same examples.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from momentangle import (
    PartitionedSmashPoint,
    SuspensionPoint,
    anchored,
    cluster_radii,
    contract_toward_center,
    damped_coordinate,
    enumerate_balanced_splits,
    full_skeleton,
    in_cluster_region,
    in_split_region,
    mask_vertices,
    partition_from_point,
    pinch_map,
    pinched_composite,
    radial_gauge,
    radial_gauge_inverse,
    simplex,
    split_center,
    split_region_statistics,
    split_tags,
    tagging_homotopy,
    tagging_map,
)
from momentangle import verify
from momentangle.clusters import (
    _blocked_obstruction,
    _damped_point,
    _damping_factors,
    _gauge_radius,
    _scaled,
)

from util import (
    brute_split_tags,
    fraction_damping_factors,
    fraction_gauge_radius,
    fraction_level_blocks,
    fraction_retraction_holds,
    fraction_split_region_statistics,
    per_vertex_cluster_radius,
    per_vertex_radii,
)

F = Fraction

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300,
                    database=None)
FEWER = settings(PROPERTY, max_examples=200)

# small denominators make ties; 2^20 is the samplers' grid
DENOMINATORS = st.sampled_from((1, 2, 3, 4, 8, 2**20))


@st.composite
def cube_points(draw, n=None, split=None):
    """A point of the open cube for n = 2..9 (or ``n``), often near a split center.

    The center is that of ``split`` when one is given.
    """
    if n is None:
        n = draw(st.integers(2, 9))
    d = draw(DENOMINATORS.filter(lambda d: d > 1))
    splits = enumerate_balanced_splits(n)
    if splits and draw(st.booleans()):
        center = split_center(*(split or draw(st.sampled_from(splits))), n)
        # nudges below 1/(4n) keep the point inside the cube
        nudge = st.integers(-(d - 1), d - 1).map(lambda a: F(a, 4 * n * d))
        return tuple(c + draw(nudge) for c in center)
    coordinate = st.integers(-(d - 1), d - 1).map(lambda a: F(a, d))
    return tuple(draw(coordinate) for _ in range(n - 1))


@st.composite
def blocks(draw):
    """A point of n = 1..12 coordinates and a block of its vertices."""
    n = draw(st.integers(1, 12))
    d = draw(DENOMINATORS)
    coordinate = st.integers(-4 * d, 4 * d).map(lambda a: F(a, d))
    z = tuple(draw(coordinate) for _ in range(n))
    block = draw(st.integers(0, (1 << n) - 1)) << 1
    return z, block


@PROPERTY
@given(cube_points())
def test_split_tags_is_the_brute_scan(y):
    brute = brute_split_tags(y)
    assert split_tags(y) == brute
    routed = pinch_map(y)
    assert (routed is None) == (not brute)
    if brute:
        assert routed[0] == brute[0]


@PROPERTY
@given(blocks())
def test_cluster_radii_is_the_per_vertex_rule(case):
    z, block = case
    radii = cluster_radii(z, block)
    assert radii == {
        i: per_vertex_cluster_radius(z, block, i) for i in mask_vertices(block)
    }
    if block.bit_count() <= len(z) // 3:
        # a block of at most m members has no cluster to leave: radius 0
        assert set(radii.values()) <= {F(0)}


# the interval ends (collapsing) and a few interior values, so draws tie
GRID = st.sampled_from((F(-1), F(-1, 2), F(0), F(1, 2), F(1)))
COORDINATES = st.lists(GRID, max_size=2).map(tuple)
SUSPENSION_POINTS = st.one_of(
    st.just(SuspensionPoint.basepoint()),
    st.builds(SuspensionPoint, COORDINATES, COORDINATES))
SMASH_POINTS = st.one_of(
    st.just(PartitionedSmashPoint.basepoint()),
    st.builds(PartitionedSmashPoint, GRID, COORDINATES, COORDINATES))


@FEWER
@given(SUSPENSION_POINTS, SUSPENSION_POINTS, SMASH_POINTS, SMASH_POINTS)
def test_point_collapse_equality_and_hash(s, t, p, q):
    for a, b in ((s, t), (p, q)):
        base = type(a).basepoint()
        # every collapsed representative is the basepoint, and only they are
        assert (a == base) is a.is_basepoint
        if a.is_basepoint:
            assert hash(a) == hash(base) and repr(a) == repr(base)
        if a == b:
            assert hash(a) == hash(b)
    for a in (s, t):
        for b in (p, q):
            assert a != b and b != a


FOUR_EDGES = full_skeleton(4, 1)


@st.composite
def smash_payloads(draw, complex):
    """A point of the complex's smashed model: a face's interior, ends elsewhere."""
    face = draw(st.sampled_from(sorted(complex.faces)))
    interior = st.integers(-7, 7).map(lambda a: F(a, 8))
    ends = st.sampled_from((F(-1), F(1)))
    return tuple(draw(interior if face & (1 << i) else ends)
                 for i in range(1, complex.n + 1))


@FEWER
@given(cube_points(4), smash_payloads(FOUR_EDGES))
def test_tagging_homotopy_endpoints(params, payload):
    omega = SuspensionPoint(params, payload)
    assert tagging_homotopy(FOUR_EDGES, omega, 0) == tagging_map(FOUR_EDGES, omega)
    assert tagging_homotopy(FOUR_EDGES, omega, 1) == \
        pinched_composite(FOUR_EDGES, omega)


# ----------------------------------------------------------------------
# the integer geometry against its Fraction oracles

SPLIT_SIZES = st.sampled_from((2, 4, 5, 6, 7, 8, 9))  # n = 3 has no split
TIMES = st.sampled_from((F(0), F(1, 4), F(1, 3), F(3, 4), F(1)))


@st.composite
def split_cases(draw):
    """A balanced split of n and a cube point, half the time near its center."""
    n = draw(SPLIT_SIZES)
    split = draw(st.sampled_from(enumerate_balanced_splits(n)))
    return draw(cube_points(n, split)), split


@FEWER
@given(split_cases(), TIMES)
def test_region_statistics_are_the_fraction_rule(case, t):
    y, (low, high) = case
    stats = split_region_statistics(y, low, high)
    assert stats == fraction_split_region_statistics(y, low, high)
    assert in_split_region(y, low, high) is (stats is not None)
    z = anchored(y)
    spread = (max(z) - min(z)) / len(z)
    assert in_cluster_region(y) is all(
        r < spread for r in per_vertex_radii(z, (1 << (len(z) + 1)) - 2).values())
    if stats is not None:
        center = split_center(low, high, len(z))
        assert contract_toward_center(y, low, high, t) == tuple(
            (1 - t) * c + t * b for c, b in zip(y, center))


REPORT_TIMES = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


@FEWER
@given(st.integers(4, 9), st.integers(0, 2**32))
def test_retraction_check_is_the_fraction_rule(n, seed):
    # the region report's own draws, uniform and near split centres; at a
    # wrong n the spread law fails at t > 0, so both versions say False
    checked = 0
    for y in verify._report_params(random.Random(seed), n, 16):
        for low, high in split_tags(y):
            for m in (n, n - 1, n + 1):
                holds = verify._retraction_holds(y, low, high, m, REPORT_TIMES)
                assert holds is fraction_retraction_holds(
                    y, low, high, m, REPORT_TIMES)
                assert holds is (m == n)
            checked += 1
    assert checked


# anchors of n = 1..9 coordinates, among them constant ones
ANCHORS = st.one_of(
    cube_points().map(anchored),
    st.integers(1, 9).map(lambda n: (F(0),) * n),
)
PAYLOAD_VALUES = st.sampled_from((F(-1), F(-1, 2), F(0), F(1, 3), F(1)))


@FEWER
@given(ANCHORS, st.data())
def test_damping_is_the_fraction_formula(z, data):
    try:
        factors = fraction_damping_factors(z)
    except ValueError:
        # a constant anchor has no spread to damp against
        with pytest.raises(ValueError):
            _damping_factors(_scaled(z)[0])
        with pytest.raises(ValueError):
            damped_coordinate(z, 1, 0)
        return
    weights, width = _damping_factors(_scaled(z)[0])
    assert tuple(F(w, width) for w in weights) == factors
    payload = data.draw(st.tuples(*[PAYLOAD_VALUES] * len(z)))
    t = data.draw(TIMES)
    for i, (x, f) in enumerate(zip(payload, factors), start=1):
        assert damped_coordinate(z, i, x) == (1 + x) * f - 1
    # a simplex has every face, so the damped point never escapes
    point = _damped_point(simplex(len(z)), F(1, 2), z, payload, "escaped", t)
    assert point.payload == tuple(
        (1 - t) * x + t * ((1 + x) * f - 1) for x, f in zip(payload, factors))


@st.composite
def levels(draw):
    """Values on the ascending vertices of a mask, drawn from few levels.

    Few levels make ties, so level blocks of every size turn up,
    singletons and blocks of at most ``m = n // 3`` members among them.
    """
    vertices = draw(st.integers(1, (1 << 9) - 1)) << 1
    count = vertices.bit_count()
    d = draw(DENOMINATORS)
    level = st.integers(-2 * d, 2 * d).map(lambda a: F(a, d))
    pool = draw(st.lists(level, min_size=1, max_size=4))
    values = tuple(draw(st.sampled_from(pool)) for _ in range(count))
    return values, vertices


@FEWER
@given(levels(), st.data())
def test_level_blocks_are_the_fraction_partition(case, data):
    values, vertices = case
    blocks = fraction_level_blocks(values, mask_vertices(vertices))
    assert partition_from_point(values, vertices_mask=vertices) == blocks
    # the obstruction reads the same blocks off an anchor on 1..n
    n = len(values)
    K = full_skeleton(n, data.draw(st.integers(0, max(n - 1, 0))))
    payload = data.draw(st.tuples(*[PAYLOAD_VALUES] * n))
    support = sum(1 << k for k, c in enumerate(payload, start=1) if -1 < c < 1)
    failing = [b for b in fraction_level_blocks(values, range(1, n + 1))
               if not K.is_face(support & b)]
    expected = (failing[0], support) if failing else None
    assert _blocked_obstruction(K, _scaled(values)[0], payload) == expected


@FEWER
@given(split_cases())
def test_gauge_radius_is_the_fraction_ray(case):
    y, (low, high) = case
    n = len(y) + 1
    center = split_center(low, high, n)
    offset = tuple(c - b for c, b in zip(y, center))
    assume(any(offset))
    radius = fraction_gauge_radius(low, high, offset)
    assert _gauge_radius(low, high, _scaled(offset)[0]) == radius
    # the inverse gauge along the same ray, from a cube point
    w = tuple(c / max(abs(c) for c in offset) / 2 for c in offset)
    assert radial_gauge_inverse(low, high, w) == tuple(
        b + c * fraction_gauge_radius(low, high, w) for b, c in zip(center, w))
    if in_split_region(y, low, high):
        assert radial_gauge(low, high, y) == tuple(c / radius for c in offset)
