"""Property tests of the pair engine.

The splitting verdict does not see vertex labels.  Relabelling the
vertices of K is a simplicial isomorphism, so Z_K and every pair map
keep their homotopy types.  Only the canonical pair order changes, which
can move the witness of a ``NotCoH`` verdict but not the outcome, the
hypothesis, or how many pairs stay undecided.  Hypothesis draws
complexes from facet lists on three to seven vertices, some with ghost
vertices.

A pair map's matrices do not depend on the generator-count shortcut:
``CrossProductMap.matrix`` equals the unshortcut oracle in every degree
over every battery coefficient.  The pairs lie in seeded
``random_complex`` draws with five to seven vertices, or across two such
draws laid side by side with most of their join.  The 100 examples take
about 3 s (CPython 3.11, one core).

The engine reads each K_I off K's facets cut down to I.  What it reads
(cone apex, dimension, support, neighbourliness, face levels, the table
of integral groups and the connectivity read off it) and the calculators
built on it equal the route that builds ``K.restriction(I)``
(``util.record_by_restriction``), on every mask of seeded complexes with
at most seven vertices, some of them ghosts, and of the torsion corpus of
``test_golod._uct_complexes``.

Runs are derandomized, so every run draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from momentangle import (
    CochainCalculator,
    SimplicialComplex,
    full_mask,
    full_skeleton,
    iter_disjoint_pairs,
    mask_vertices,
    random_complex,
    reduced_cohomology,
    shifted_join,
    splitting_verdict,
    vertex_mask,
)
from momentangle.golod import DEFAULT_BATTERY, _PairEngine

from util import (
    cross_product_matrix_by_cochains,
    fixture_complex,
    random_antichain_complex,
    record_by_restriction,
    seeded,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=80,
                    database=None)


@st.composite
def complexes(draw):
    """A complex on n = 3..7 from one to eight random faces."""
    n = draw(st.integers(3, 7))
    faces = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    return SimplicialComplex(n, (bits << 1 for bits in faces))


@PROPERTY
@given(complexes(), st.data())
def test_verdict_is_invariant_under_relabelling(K, data):
    order = data.draw(st.permutations(range(1, K.n + 1)))
    relabelled = SimplicialComplex(K.n, (
        vertex_mask(order[v - 1] for v in mask_vertices(f)) for f in K.facets))
    a, b = splitting_verdict(K), splitting_verdict(relabelled)
    assert a.outcome == b.outcome, (K.facets, order)
    assert a.hypothesis_holds == b.hypothesis_holds
    assert len(a.unknown_pairs) == len(b.unknown_pairs)


@st.composite
def pairs_in_random_complexes(draw):
    """A seeded ``random_complex`` on n = 5..7 and a disjoint pair of
    nonempty vertex sets: three times in four, when there is one, a pair
    where a cross product of the sides' classes has the degree of a class
    of the union; otherwise each vertex goes to I, to J or to neither."""
    n = draw(st.integers(5, 7))
    K = random_complex(n, draw(st.integers(0, 2)),
                       draw(st.sampled_from((0.3, 0.6, 1.0))),
                       draw(st.integers(0, 10 ** 6)))
    degrees = {mask: {d for d, g in reduced_cohomology(
                   K.restriction(mask)).items() if not g.is_zero}
               for mask in range(2, 1 << (n + 1), 2)}
    linked = [(i, j) for i, j in iter_disjoint_pairs(n)
              if any(p + q + 1 in degrees[i | j]
                     for p in degrees[i] for q in degrees[j])]
    if linked and draw(st.integers(0, 3)):
        return (K, *draw(st.sampled_from(linked)))
    sides = draw(st.lists(st.sampled_from("IJ-"), min_size=n, max_size=n)
                 .filter(lambda s: "I" in s and "J" in s))
    subset_i, subset_j = (vertex_mask(v for v, side in enumerate(sides, 1)
                                      if side == label) for label in "IJ")
    return K, subset_i, subset_j


@st.composite
def pairs_across_random_joins(draw):
    """Seeded ``random_complex`` draws on a and b vertices, a + b = 5..7,
    side by side, with all but at most three facets of their join: I and
    J are the two sides, so the pair map is rarely zero."""
    def side(size):
        return random_complex(size, draw(st.integers(1, 2)),
                              draw(st.sampled_from((0, 0.3, 0.6))),
                              draw(st.integers(0, 10 ** 6)))
    a = draw(st.integers(2, 4))
    b = draw(st.integers(max(2, 5 - a), 7 - a))
    left, right = side(a), [g << a for g in side(b).facets]
    joined = [f | g for f in left.facets for g in right]
    dropped = draw(st.sets(st.integers(0, len(joined) - 1), max_size=3))
    K = SimplicialComplex(a + b, list(left.facets) + right + [
        f for k, f in enumerate(joined) if k not in dropped])
    return K, full_mask(a), full_mask(a + b) ^ full_mask(a)


@settings(PROPERTY, max_examples=100)
@given(st.one_of(pairs_in_random_complexes(), pairs_across_random_joins()))
def test_cross_product_matrices_match_the_unshortcut_oracle(pair):
    K, subset_i, subset_j = pair
    for coeffs in DEFAULT_BATTERY:
        got = _PairEngine(K).induced_map(subset_i, subset_j, coeffs)
        want = _PairEngine(K).induced_map(subset_i, subset_j, coeffs)
        for d in got.degrees():
            assert got.matrix(d) == cross_product_matrix_by_cochains(want, d), \
                (K.facets, subset_i, subset_j, coeffs, d)


def assert_engine_reads_the_restriction(K, calculator_masks, masks=None):
    """The record of every mask in ``masks`` (by default all), and the
    calculators of ``calculator_masks`` over the battery, against the
    ``K.restriction`` route."""
    engine = _PairEngine(K)
    for mask in masks or range(0, full_mask(K.n) + 1, 2):
        chain = engine.chain(mask)
        want = record_by_restriction(K, mask)
        got = {"apex": chain.apex, "dim": chain.dim, "support": chain.support,
               "support_neighbourliness": chain.support_neighbourliness,
               "levels": chain.levels,
               "integral_groups": chain.integral_groups,
               "connectivity": chain.connectivity}
        assert got == {key: want[key] for key in got}, (K.facets, mask)
        if mask not in calculator_masks:
            continue
        oracle = CochainCalculator(want["restriction"].facets, "Z")
        for coeffs in DEFAULT_BATTERY:
            mine, theirs = engine.calculator(mask, coeffs), oracle.over(coeffs)
            for d in range(-1, chain.dim + 2):
                assert mine.integral_group(d) == theirs.integral_group(d)
            for d in theirs.degrees():
                generators = theirs.generators(d)
                assert mine.orders(d) == theirs.orders(d)
                assert mine.generators(d) == generators
                cocycles = list(generators)
                if d >= 0:
                    # a sum of generators plus a coboundary
                    image = theirs.coboundary_matrix(d - 1).apply(
                        [1] * len(theirs.faces(d - 1)))
                    cocycles.append([sum(column) for column in
                                     zip(image, *generators)])
                for cocycle in cocycles:
                    assert mine.class_coordinates(d, cocycle) \
                        == theirs.class_coordinates(d, cocycle), \
                        (K.facets, mask, coeffs, d)


@st.composite
def ghosted_complexes(draw):
    """A seeded complex on n = 1..7 vertices, drawn by
    ``random_antichain_complex`` or by ``random_complex`` (with a full
    skeleton, so that windows start above -1), restricted away from a
    drawn set of ghost vertices, and three masks for the calculators."""
    n = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        K = random_antichain_complex(seeded(seed), n)
    else:
        K = random_complex(n, draw(st.integers(0, min(n, 3))),
                           draw(st.sampled_from((0.3, 0.6))), seed)
    ghosts = vertex_mask(draw(st.sets(st.integers(1, n), max_size=2)))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1).map(lambda m: m << 1),
                          min_size=3, max_size=3))
    return K.restriction(full_mask(n) & ~ghosts), set(masks)


@settings(PROPERTY, max_examples=100)
@given(ghosted_complexes())
def test_engine_records_match_the_restrictions(drawn):
    assert_engine_reads_the_restriction(*drawn)


def test_engine_records_match_the_restrictions_on_torsion():
    # the corpus of ``test_golod._uct_complexes``: every full subcomplex
    # of RP² (all with calculators) and of ΣRP², and of RP² * RP² the
    # first RP² joined with each full subcomplex of the second on at most
    # three vertices or on all six (its Tor class in degree 4)
    rp2 = fixture_complex("rp2.json")
    assert_engine_reads_the_restriction(rp2, set(range(0, 1 << 7, 2)))
    suspended = shifted_join(rp2, full_skeleton(2, 0))
    assert_engine_reads_the_restriction(suspended, {full_mask(8)})
    joins = [full_mask(6) | bits << 7 for bits in range(1 << 6)
             if bits.bit_count() in (0, 1, 2, 3, 6)]
    assert_engine_reads_the_restriction(shifted_join(rp2, rp2),
                                        {full_mask(6) | 0b111 << 7}, joins)
