"""Property tests: the cluster shortcuts against their slow paths.

The same two differentials as in ``test_clusters``, with Hypothesis
drawing the inputs: the tags of a point from sorted cuts against every
balanced split, and a block's radii from one sort against the per-vertex
rule.  Two more pin what the cluster layer states once: the collapse,
equality and hash shared by both point classes, and the tagging
homotopy's endpoints.  Runs are derandomized, so every run draws the same
examples.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from momentangle import (
    PartitionedSmashPoint,
    SuspensionPoint,
    cluster_radii,
    enumerate_balanced_splits,
    full_skeleton,
    mask_vertices,
    pinch_map,
    pinched_composite,
    split_center,
    split_tags,
    tagging_homotopy,
    tagging_map,
)

from util import brute_split_tags, per_vertex_cluster_radius

F = Fraction

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300,
                    database=None)
FEWER = settings(PROPERTY, max_examples=200)

# small denominators make ties; 2^20 is the samplers' grid
DENOMINATORS = st.sampled_from((1, 2, 3, 4, 8, 2**20))


@st.composite
def cube_points(draw, n=None):
    """A point of the open cube for n = 2..9 (or ``n``), often near a split center."""
    if n is None:
        n = draw(st.integers(2, 9))
    d = draw(DENOMINATORS.filter(lambda d: d > 1))
    splits = enumerate_balanced_splits(n)
    if splits and draw(st.booleans()):
        center = split_center(*draw(st.sampled_from(splits)), n)
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
    assert cluster_radii(z, block) == {
        i: per_vertex_cluster_radius(z, block, i) for i in mask_vertices(block)
    }


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
