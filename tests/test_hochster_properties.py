"""Property tests: the Hochster scan against other routes.

The scan settles a subset by three vertex rules before it computes any
homology.  A ghost vertex is dropped.  On a flag complex the link of v
in K_I is K_L, L = N(v) ∩ I, and the Mayer–Vietoris sequence of
K_I = K_{I∖v} ∪ v * K_L gives the other two: a vertex with an acyclic
link gives I the groups of I∖v, and otherwise a vertex with an acyclic
deletion gives I the link's groups shifted up one degree.  Hypothesis
draws flag complexes of graphs on at most seven vertices, some with
ghost vertices, and checks the scan two ways: its series against the
Koszul oracle, which shares no code with it, and its summands under a
relabelling of the vertices, which changes which vertex each subset
settles by.

Every other subset takes the closed form of a full skeleton, or reads
its faces off K's facets cut down to it.  That is checked against the
restricted complexes: summand by summand against
``hochster_by_restriction``, which drops only ghost and dominated
vertices (strong collapses) and builds every other subset's restricted
complex, so it shares neither the vertex rules nor the closed forms, on
skeleta with facets added above them and
neighbourly random complexes as well as flag complexes, and mask by mask
for the faces, the cone test and the neighbourliness read off the face
counts.  Runs are derandomized, so every run draws the same examples.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from momentangle import (
    SimplicialComplex,
    flag_from_graph,
    full_mask,
    full_skeleton,
    hochster_decomposition,
    koszul_oracle,
    mask_vertices,
    new_complex,
    poincare_series,
    random_complex,
    vertex_mask,
)
from momentangle.homology import ChainComplex

from util import (
    fixture_complex,
    gnp_flag,
    hochster_by_restriction,
    random_antichain_complex,
    record_by_subsets,
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
    """Seeded flag complexes on at most nine vertices, seeded random
    antichains, k-skeleta on at most eight vertices with up to three
    facets added above them, and neighbourly ``random_complex`` inputs,
    each with up to two ghost vertices added; {∅} and RP².  The seed
    picks the sizes, so small draws still reach n = 9.  The skeleta and
    the neighbourly inputs reach the closed-form cores, and the facets
    added above a skeleton the cores that a facet meets in more than m
    vertices."""
    kind = draw(st.sampled_from(("flag", "antichain", "skeleton", "random",
                                 "empty", "rp2")))
    rng = seeded(draw(st.integers(0, 10 ** 6)))
    if kind == "flag":
        K = gnp_flag(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7)))
    elif kind == "antichain":
        K = random_antichain_complex(rng, rng.randint(1, 7))
    elif kind == "skeleton":
        n = rng.randint(1, 8)
        k = rng.randint(-1, n - 1)
        facets = list(full_skeleton(n, k).facets)
        for _ in range(rng.randint(0, 3)):
            size = rng.randint(min(k + 2, n), n)
            facets.append(vertex_mask(rng.sample(range(1, n + 1), size)))
        K = SimplicialComplex(n, facets)
    elif kind == "random":
        n = rng.randint(1, 8)
        K = random_complex(n, rng.randint(0, n), rng.choice((0.2, 0.5)),
                           rng.randrange(10 ** 6))
    elif kind == "empty":
        return new_complex(rng.randint(0, 3), [])
    else:
        K = fixture_complex("rp2.json")
    return SimplicialComplex(min(K.n + rng.randint(0, 2), 9), K.facets)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
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
    """The record of K's facets cut down to I, as the scan reads it, and
    the restriction K_I read the faces, face counts, apex and support
    neighbourliness of the subset oracle, which tests every submask of
    the support against the cut facets."""
    n, facets = drawn
    K = SimplicialComplex(n, facets)
    for mask in range(0, full_mask(n) + 1, 2):
        cut = [f & mask for f in K.facets]
        want = record_by_subsets(cut)
        chain, sub = ChainComplex(cut), K.restriction(mask)
        assert chain.apex == want["apex"]
        assert chain.support_neighbourliness == want["support_neighbourliness"]
        assert chain.levels == want["levels"]
        assert sub.faces == want["faces"]
        assert sub.f_vector == want["f_vector"]
        assert sub.cone_apex == (mask_vertices(want["apex"]) or (0,))[0]
        assert sub.support_neighbourliness == want["support_neighbourliness"]

