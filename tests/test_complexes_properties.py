"""Property tests of the complex layer's facet prune.

``SimplicialComplex`` keeps a face only if no larger kept facet contains
it, and tests each face only against the facets kept at strictly larger
sizes.  Hypothesis draws face lists of mixed sizes on up to ten
vertices, with repeated faces and nested chains, and compares the kept
facets with ``util.prune_by_every_facet``, which tests each face
against every facet kept so far.  Runs are derandomized, so every run
draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from momentangle import SimplicialComplex, full_mask

from util import prune_by_every_facet


@st.composite
def face_lists(draw):
    """A vertex count and faces on it: drawn masks, some of them again,
    and some submasks of drawn ones, shuffled."""
    n = draw(st.integers(0, 10))
    masks = st.integers(0, full_mask(n)).map(lambda m: m & full_mask(n))
    faces = draw(st.lists(masks, max_size=24))
    if faces:
        picks = st.sampled_from(faces)
        faces += draw(st.lists(picks, max_size=6))
        faces += [f & draw(masks) for f in draw(st.lists(picks, max_size=6))]
    return n, draw(st.permutations(faces))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(face_lists())
def test_prune_matches_the_all_facet_prune(drawn):
    n, faces = drawn
    assert SimplicialComplex(n, faces).facets == prune_by_every_facet(faces)
