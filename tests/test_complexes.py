"""Bitmask complex layer: construction, invariants, generators."""

import pytest

from momentangle import (
    SimplicialComplex,
    boundary_simplex,
    cycle_complex,
    flag_from_graph,
    full_mask,
    full_skeleton,
    mask_vertices,
    new_complex,
    random_complex,
    shifted_join,
    simplex,
    single_non_face,
    vertex_mask,
)
from momentangle.complexes import iter_submasks, lowest_vertex

from util import all_complexes_on, random_antichain_complex, seeded


def test_mask_helpers_roundtrip():
    assert vertex_mask([3, 1, 5]) == 0b101010
    assert list(mask_vertices(0b101010)) == [1, 3, 5]
    assert full_mask(4) == 0b11110
    assert lowest_vertex(0b1100) == 2
    subs = list(iter_submasks(0b110))
    assert subs == [0b110, 0b100, 0b010, 0b000]


def test_construction_canonicalizes():
    K = new_complex(4, [[2, 1], [1, 2], [3]])
    assert K.facets == (vertex_mask([1, 2]), vertex_mask([3]))
    # faces swallowed by larger facets disappear
    L = new_complex(3, [[1], [1, 2], [1, 2, 3]])
    assert L.facets == (vertex_mask([1, 2, 3]),)
    assert L.is_simplex
    # the empty complex {∅} is the one with a single empty facet
    E = new_complex(2, [])
    assert E.facets == (0,)
    assert E.dim == -1
    assert E.faces == frozenset({0})


def test_equality_and_hash():
    assert cycle_complex(4) == new_complex(4, [[1, 2], [2, 3], [3, 4], [4, 1]])
    assert hash(cycle_complex(4)) == hash(cycle_complex(4))
    assert cycle_complex(4) != cycle_complex(5)


def test_invariants_on_named_complexes():
    c4 = cycle_complex(4)
    assert c4.dim == 1
    assert c4.f_vector == (1, 4, 4)
    assert c4.euler_characteristic == 0
    assert sorted(c4.minimal_non_faces) == sorted(
        [vertex_mask([1, 3]), vertex_mask([2, 4])])
    assert c4.neighbourliness == 1
    assert c4.is_third_neighbourly

    b3 = boundary_simplex(3)
    assert b3.dim == 1
    assert b3.euler_characteristic == 0
    assert b3.minimal_non_faces == (vertex_mask([1, 2, 3]),)

    s = simplex(4)
    assert s.is_simplex and s.is_cone
    assert s.minimal_non_faces == ()
    assert s.neighbourliness == 4

    skel = full_skeleton(5, 1)
    assert skel.dim == 1
    assert skel.f_vector == (1, 5, 10)
    assert skel.neighbourliness == 2

    nf = single_non_face(6, 3)
    assert nf.minimal_non_faces == (vertex_mask([1, 2, 3]),)
    assert nf.neighbourliness == 2


def test_cone_detection():
    assert simplex(3).cone_apex == 1
    tri_plus = new_complex(4, [[1, 2, 4], [2, 3, 4], [1, 3, 4]])
    assert tri_plus.is_cone and tri_plus.cone_apex == 4
    assert not cycle_complex(4).is_cone
    # ghost vertices do not block apex detection
    ghost = new_complex(5, [[1, 2], [1, 3]])
    assert ghost.cone_apex == 1
    assert new_complex(2, []).is_cone is False


def test_support_and_ghosts():
    K = new_complex(5, [[2, 3], [3, 4]])
    assert sorted(mask_vertices(K.support)) == [2, 3, 4]
    assert K.neighbourliness == 0          # {1} is not a face
    assert K.support_neighbourliness == 1  # on the support, vertices are faces


def test_restriction_and_delete():
    c4 = cycle_complex(4)
    edge = c4.restriction(vertex_mask([1, 2]))
    assert edge.facets == (vertex_mask([1, 2]),)
    opposite = c4.restriction(vertex_mask([1, 3]))
    assert opposite.facets == (vertex_mask([1]), vertex_mask([3]))
    assert c4.vertex_delete(4).facets == (vertex_mask([1, 2]), vertex_mask([2, 3]))
    with pytest.raises(ValueError):
        c4.vertex_delete(9)


def test_join_requires_disjoint_supports():
    left = new_complex(4, [[1, 2]])
    right = new_complex(4, [[3], [4]])
    j = left.join(right)
    assert sorted(j.facets) == sorted(
        [vertex_mask([1, 2, 3]), vertex_mask([1, 2, 4])])
    with pytest.raises(ValueError):
        left.join(new_complex(4, [[2, 3]]))


def test_shifted_join_of_two_point_pairs_is_a_square():
    two = boundary_simplex(2)
    square = shifted_join(two, two)
    assert square.n == 4
    assert sorted(square.facets) == sorted(
        vertex_mask(e) for e in ([1, 3], [1, 4], [2, 3], [2, 4]))
    assert square.euler_characteristic == 0
    assert sorted(square.minimal_non_faces) == sorted(
        [vertex_mask([1, 2]), vertex_mask([3, 4])])


def test_flag_from_graph():
    # 4-cycle graph has no triangles: flag complex is the cycle itself
    edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
    assert flag_from_graph(4, edges) == cycle_complex(4)
    # adding one diagonal creates two triangles
    filled = flag_from_graph(4, edges + [(1, 3)])
    assert filled.dim == 2
    assert len(filled.facets) == 2


def test_serialization_roundtrip():
    for K in (cycle_complex(5), new_complex(3, []), single_non_face(6, 3)):
        assert SimplicialComplex.from_dict(K.to_dict()) == K
    for bad in ({"n": 3}, {"n": "3", "facets": []}, {"n": 3, "facets": [["a"]]},
                # JSON true loads as a bool, which Python counts as an int
                {"n": True, "facets": [[1]]}, {"n": 1, "facets": [[True]]}):
        with pytest.raises(ValueError):
            SimplicialComplex.from_dict(bad)


def test_vertex_bounds_enforced():
    with pytest.raises(ValueError):
        new_complex(3, [[0, 1]])
    with pytest.raises(ValueError):
        new_complex(3, [[1, 4]])
    with pytest.raises(ValueError):
        SimplicialComplex(-1, [])
    # zero vertices is fine: it is the complex {∅} with empty support
    assert SimplicialComplex(0).faces == frozenset({0})


def test_exhaustive_counts_small_n():
    # downward-closed families on a fixed labeled vertex set
    assert len(all_complexes_on(1)) == 2
    assert len(all_complexes_on(2)) == 5
    assert len(all_complexes_on(3)) == 19


def test_faces_closed_downward_property():
    rng = seeded(41)
    for _ in range(60):
        K = random_antichain_complex(rng, rng.randint(1, 6))
        faces = K.faces
        for f in faces:
            for sub in iter_submasks(f):
                assert sub in faces
        # minimal non-faces really are minimal and really are non-faces
        for nf in K.minimal_non_faces:
            assert not K.is_face(nf)
            for v in mask_vertices(nf):
                assert K.is_face(nf ^ (1 << v))


def test_neighbourliness_definition_matches_scan():
    import itertools
    rng = seeded(42)
    for _ in range(40):
        n = rng.randint(1, 6)
        K = random_antichain_complex(rng, n)
        k = K.neighbourliness
        for size in range(1, k + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                assert K.is_face(vertex_mask(combo))
        if k < n:
            assert any(
                not K.is_face(vertex_mask(c))
                for c in itertools.combinations(range(1, n + 1), k + 1))


def test_random_complex_honours_floor_and_seed():
    K1 = random_complex(7, 2, 0.5, 99)
    K2 = random_complex(7, 2, 0.5, 99)
    assert K1 == K2
    assert K1.neighbourliness >= 2
    assert random_complex(5, 0, 0.0, 1).n == 5
    with pytest.raises(ValueError):
        random_complex(5, 6, 0.5, 1)
    with pytest.raises(ValueError):
        random_complex(0, 0, 0.5, 1)
