"""Property test: the splitting verdict does not see vertex labels.

Relabelling the vertices of K is a simplicial isomorphism, so Z_K and
every pair map keep their homotopy types.  Only the canonical pair order
changes, which can move the witness of a ``NotCoH`` verdict but not the
outcome, the hypothesis, or how many pairs stay undecided.  Hypothesis
draws complexes from facet lists on three to seven vertices, some with ghost
vertices.  Runs are derandomized, so every run draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from momentangle import (
    SimplicialComplex,
    mask_vertices,
    splitting_verdict,
    vertex_mask,
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
