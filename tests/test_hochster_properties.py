"""Property tests: the Hochster scan's vertex removal against other routes.

The scan gives a subset with a ghost or dominated vertex the groups of
the smaller subset.  Hypothesis draws flag complexes of graphs on at most
seven vertices, some with ghost vertices, and checks the scan two ways:
its series against the Koszul oracle, which shares no code with it, and
its summands under a relabelling of the vertices, which changes which
vertex each subset drops.  Runs are derandomized, so every run draws the
same examples.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from momentangle import (
    SimplicialComplex,
    flag_from_graph,
    hochster_decomposition,
    koszul_oracle,
    mask_vertices,
    poincare_series,
    vertex_mask,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100,
                    database=None)


@st.composite
def flag_complexes(draw):
    """The flag complex of a graph on n = 1..7, restricted to a vertex subset."""
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs),
                           max_size=len(pairs)))
    K = flag_from_graph(n, [e for e, keep in zip(pairs, chosen) if keep])
    if draw(st.booleans()):
        K = K.restriction(draw(st.integers(0, (1 << n) - 1)) << 1)
    return K


def relabel(K, order):
    """K with vertex v renamed ``order[v - 1]``."""
    def move(mask):
        return vertex_mask(order[v - 1] for v in mask_vertices(mask))
    return SimplicialComplex(K.n, (move(f) for f in K.facets)), move


@PROPERTY
@given(flag_complexes())
def test_series_is_the_koszul_oracle(K):
    assert K.is_flag
    for field in ("Q", "F2"):
        oracle = koszul_oracle(K, field, K.n + K.dim + 1)
        assert poincare_series(K, field) == oracle, K.facets


@PROPERTY
@given(flag_complexes(), st.data())
def test_summands_follow_a_relabelling(K, data):
    order = data.draw(st.permutations(range(1, K.n + 1)))
    L, move = relabel(K, order)
    for coeffs in ("Z", "F2"):
        moved = {move(s.subset_mask): s.shifted_groups
                 for s in hochster_decomposition(K, coeffs)}
        found = {s.subset_mask: s.shifted_groups
                 for s in hochster_decomposition(L, coeffs)}
        assert found == moved, (K.facets, order)
