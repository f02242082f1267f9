"""Property tests: the Hochster scan against other routes.

The scan gives a subset with a ghost or dominated vertex the groups of
the smaller subset.  Hypothesis draws flag complexes of graphs on at most
seven vertices, some with ghost vertices, and checks the scan two ways:
its series against the Koszul oracle, which shares no code with it, and
its summands under a relabelling of the vertices, which changes which
vertex each subset drops.

Every other subset reads its faces off K's facets cut down to it.  That
is checked against the restricted complexes: summand by summand against
``hochster_by_restriction``, and mask by mask for the faces, the cone
test and the neighbourliness read off the face counts.  Runs are
derandomized, so every run draws the same examples.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from momentangle import (
    SimplicialComplex,
    flag_from_graph,
    full_mask,
    hochster_decomposition,
    koszul_oracle,
    mask_vertices,
    new_complex,
    poincare_series,
    vertex_mask,
)
from momentangle.complexes import neighbourliness_from_counts
from momentangle.homology import _restricted_faces
from momentangle.homology import face_levels

from util import (
    fixture_complex,
    gnp_flag,
    hochster_by_restriction,
    random_antichain_complex,
    seeded,
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


@st.composite
def scan_inputs(draw):
    """Seeded flag complexes on at most nine vertices and seeded random
    antichains, either with up to two ghost vertices added, {∅} and RP².
    The seed picks the sizes, so small draws still reach n = 9."""
    kind = draw(st.sampled_from(("flag", "antichain", "empty", "rp2")))
    rng = seeded(draw(st.integers(0, 10 ** 6)))
    if kind == "flag":
        K = gnp_flag(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7)))
    elif kind == "antichain":
        K = random_antichain_complex(rng, rng.randint(1, 7))
    elif kind == "empty":
        return new_complex(rng.randint(0, 3), [])
    else:
        K = fixture_complex("rp2.json")
    return SimplicialComplex(min(K.n + rng.randint(0, 2), 9), K.facets)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(scan_inputs())
def test_scan_matches_the_restrictions(K):
    for coeffs in ("Z", "Q", "F2", "F3"):
        found = [(s.subset_mask, s.shifted_groups)
                 for s in hochster_decomposition(K, coeffs)]
        expected = [(s.subset_mask, s.shifted_groups)
                    for s in hochster_by_restriction(K, coeffs)]
        assert found == expected, (K.n, K.facets, coeffs)


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1).map(lambda f: f << 1),
                         max_size=6))))
def test_faces_read_off_the_facets_are_the_restrictions(drawn):
    n, facets = drawn
    K = SimplicialComplex(n, facets)
    for mask in range(0, full_mask(n) + 1, 2):
        sub = K.restriction(mask)
        faces, apex = _restricted_faces(sorted(
            {f & mask for f in K.facets}, key=int.bit_count, reverse=True))
        counts = [len(level) for level in face_levels(faces)]
        assert faces == sub.faces
        assert (apex != 0) == sub.is_cone
        assert neighbourliness_from_counts(counts) == sub.support_neighbourliness
