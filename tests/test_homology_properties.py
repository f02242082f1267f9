"""Property tests: reduced (co)homology against building every matrix.

``_reduced_groups`` knows the ranks of ∂_0 (the augmentation), of ∂_1
(the vertex count minus the number of connected components) and of the
bottom boundary of a neighbourly window without building a matrix.
``util.reduced_groups_by_matrices`` builds every boundary matrix and
ranks it by a Smith form or a rank mod p.  The two are compared over
every coefficient system of the battery, in windows starting at -1, 0
and 1, on drawn complexes with isolated vertices, several components and
ghost vertices, and on named ones.  Runs are derandomized, so every run
draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from momentangle import (
    SimplicialComplex,
    cycle_complex,
    new_complex,
    reduced_cohomology,
    reduced_homology,
)
from momentangle.homology import DEFAULT_BATTERY

from util import (
    fixture_complex,
    octahedron_boundary,
    random_antichain_complex,
    record_by_subsets,
    reduced_groups_by_matrices,
    seeded,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=120,
                    database=None)

NAMED = [
    SimplicialComplex(0),                            # {∅}
    new_complex(1, [[1]]),                           # one vertex
    new_complex(8, [[1, 2], [2, 3], [2, 4], [5, 6], [7]]),  # a forest, a ghost
    cycle_complex(5),
    fixture_complex("rp2.json"),
    octahedron_boundary(),
]


@st.composite
def scattered_complexes(draw):
    """A random complex of small facets, plus isolated and ghost vertices.

    Facets of at most ``max_size`` vertices on 1..n leave several
    components; vertices n+1.. are added as isolated vertices, then
    ghosts above them.
    """
    n = draw(st.integers(1, 7))
    max_size = draw(st.integers(1, 4))
    K = random_antichain_complex(seeded(draw(st.integers(0, 2**32))), n,
                                 max_facets=draw(st.integers(1, 6)),
                                 max_size=max_size)
    isolated = draw(st.integers(0, 2))
    ghosts = draw(st.integers(0, 2))
    facets = list(K.facets) + [1 << v for v in range(n + 1, n + isolated + 1)]
    return SimplicialComplex(n + isolated + ghosts, facets)


def assert_matches_matrices(K):
    levels = record_by_subsets(K.facets)["levels"]
    for coeffs in DEFAULT_BATTERY:
        for window in (None, (-1, K.dim), (0, K.dim), (1, K.dim)):
            for routine, cohomology in ((reduced_homology, False),
                                        (reduced_cohomology, True)):
                expected = reduced_groups_by_matrices(levels, coeffs, window,
                                                      cohomology)
                assert routine(K, coeffs, window) == expected, \
                    (K.facets, coeffs, window, cohomology)


@pytest.mark.parametrize("K", NAMED, ids=["empty", "vertex", "forest",
                                          "cycle5", "rp2", "octahedron"])
def test_named_complexes_match_every_matrix(K):
    assert_matches_matrices(K)


@PROPERTY
@given(scattered_complexes())
def test_groups_match_every_matrix(K):
    assert_matches_matrices(K)
