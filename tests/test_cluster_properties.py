"""Property tests: the cluster shortcuts against their slow paths.

The same two differentials as in ``test_clusters``, with Hypothesis
drawing the inputs: the tags of a point from sorted cuts against every
balanced split, and a block's radii from one sort against the per-vertex
rule.  Runs are derandomized, so every run draws the same examples.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from momentangle import (
    cluster_radii,
    enumerate_balanced_splits,
    mask_vertices,
    pinch_map,
    split_center,
    split_tags,
)

from util import brute_split_tags, per_vertex_cluster_radius

F = Fraction

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300,
                    database=None)

# small denominators make ties; 2^20 is the samplers' grid
DENOMINATORS = st.sampled_from((1, 2, 3, 4, 8, 2**20))


@st.composite
def cube_points(draw):
    """A point of the open cube for n = 2..9, often near a split center."""
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
