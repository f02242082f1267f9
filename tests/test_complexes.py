"""Bitmask complex layer: construction, invariants, generators."""

import itertools
import math

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
from momentangle.complexes import (
    MAX_SKELETON_FACETS,
    iter_submasks,
    lowest_vertex,
)

from util import (
    all_complexes_on,
    brute_neighbourliness,
    fixture_complex,
    random_antichain_complex,
    record_by_subsets,
    seeded,
)


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


def _antichain_by_all_pairs(faces):
    """The facet rule before the size-ordered prune: keep each face that
    no other face contains."""
    faces = set(faces) or {0}
    return tuple(sorted(f for f in faces
                        if not any(f != g and f & ~g == 0 for g in faces)))


def test_size_ordered_prune_matches_all_pairs_rule():
    # the raw face lists that restrictions and joins feed the constructor
    rng = seeded(61)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 9)
        K = random_antichain_complex(rng, n, max_facets=12)
        for _ in range(4):
            mask = rng.randrange(1 << (n + 1)) & full_mask(n)
            raw = [f & mask for f in K.facets]
            assert K.restriction(mask).facets == _antichain_by_all_pairs(raw)
            checked += 1
        low = rng.randrange(1 << (n + 1)) & full_mask(n)
        left, right = K.restriction(low), K.restriction(full_mask(n) ^ low)
        raw = [f | g for f in left.facets for g in right.facets]
        assert left.join(right).facets == _antichain_by_all_pairs(raw)
        checked += 1
    assert checked == 300


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


def test_skeleton_neighbourliness_lists_no_faces():
    K = full_skeleton(20, 6)
    assert K.support_neighbourliness == 7
    assert "faces" not in K.__dict__ and "f_vector" not in K.__dict__
    assert "levels" not in K.record.__dict__
    assert "_listing" not in K.record.__dict__


def test_generators_refuse_a_bad_vertex_count_first():
    """Each generator checks n before it builds a mask, an edge list or
    an adjacency table, so a huge n is refused at once."""
    for build in (simplex, boundary_simplex, cycle_complex,
                  lambda n: single_non_face(n, 1),
                  lambda n: flag_from_graph(n, [])):
        with pytest.raises(ValueError, match="vertex count"):
            build(10**6)
    with pytest.raises(ValueError, match="vertex count"):
        full_skeleton(4 * 10**5, 2 * 10**5)


def test_restriction_and_delete():
    c4 = cycle_complex(4)
    edge = c4.restriction(vertex_mask([1, 2]))
    assert edge.facets == (vertex_mask([1, 2]),)
    opposite = c4.restriction(vertex_mask([1, 3]))
    assert opposite.facets == (vertex_mask([1]), vertex_mask([3]))
    deleted = c4.restriction(full_mask(4) ^ vertex_mask([4]))
    assert deleted.facets == (vertex_mask([1, 2]), vertex_mask([2, 3]))


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


def test_is_flag():
    for n in (4, 5, 6, 9):
        assert cycle_complex(n).is_flag
    # a flag complex restricted to part of its vertices keeps ghosts
    with_ghosts = flag_from_graph(6, [(1, 2), (2, 3), (1, 3), (3, 5)])
    with_ghosts = with_ghosts.restriction(vertex_mask([1, 2, 3, 5]))
    assert with_ghosts.support != full_mask(6)
    assert with_ghosts.is_flag
    assert new_complex(3, []).is_flag
    # the clique complex of either 1-skeleton is a simplex
    assert not boundary_simplex(3).is_flag
    assert not full_skeleton(5, 1).is_flag
    # the three-cycle is a non-flag control too: it bounds a missing triangle
    assert not cycle_complex(3).is_flag


def test_closed_neighbourhoods():
    c4 = cycle_complex(4)
    assert c4.closed_neighbourhoods == (0, vertex_mask([1, 2, 4]),
                                        vertex_mask([1, 2, 3]),
                                        vertex_mask([2, 3, 4]),
                                        vertex_mask([1, 3, 4]))
    # a ghost vertex has no neighbourhood, not even itself
    assert new_complex(3, [[1, 2]]).closed_neighbourhoods[3] == 0


def test_serialization_roundtrip():
    for K in (cycle_complex(5), new_complex(3, []), single_non_face(6, 3)):
        assert SimplicialComplex.from_dict(K.to_dict()) == K
    for bad in ({"n": 3}, {"n": "3", "facets": []}, {"n": 3, "facets": [["a"]]},
                # JSON true loads as a bool, which Python counts as an int
                {"n": True, "facets": [[1]]}, {"n": 1, "facets": [[True]]},
                # a facet naming a vertex twice
                {"n": 2, "facets": [[1, 1]]}, {"n": 3, "facets": [[2], [1, 3, 1]]}):
        with pytest.raises(ValueError):
            SimplicialComplex.from_dict(bad)


def test_vertex_bounds_enforced():
    with pytest.raises(ValueError):
        new_complex(3, [[0, 1]])
    with pytest.raises(ValueError):
        new_complex(3, [[1, 4]])
    # refused before the label is packed: 1 << 2^62 cannot be allocated
    with pytest.raises(ValueError, match="outside 1..3"):
        new_complex(3, [[1, 1 << 62]])
    with pytest.raises(ValueError, match="outside 1..3"):
        SimplicialComplex.from_dict({"n": 3, "facets": [[1, 100000000]]})
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


def brute_minimal_non_faces(K):
    """Every subset of {1..n} that is not a face while each of its
    one-smaller subsets is, by testing all 2^n subsets."""
    return tuple(sigma for sigma in iter_submasks(full_mask(K.n))
                 if not K.is_face(sigma)
                 and all(K.is_face(sigma ^ (1 << v))
                         for v in mask_vertices(sigma)))


def test_minimal_non_faces_match_the_subset_oracle():
    rng = seeded(43)
    corpus = [K for n in range(4) for K in all_complexes_on(n)]
    corpus += [SimplicialComplex(n) for n in range(8)]          # {∅}
    corpus += [full_skeleton(n, k) for n in range(1, 8) for k in range(n)]
    corpus += [new_complex(7, [[1, 2, 3], [3, 4]])]              # ghosts
    corpus += [flag_from_graph(n, [(v, v + 1) for v in range(1, n)])
               for n in range(2, 8)]
    corpus += [random_antichain_complex(rng, rng.randint(1, 7))
               for _ in range(80)]
    for K in corpus:
        assert K.minimal_non_faces == tuple(sorted(brute_minimal_non_faces(K)))
        want = record_by_subsets(K.facets)
        assert K.faces == want["faces"]
        assert K.f_vector == want["f_vector"]
        assert K.cone_apex == (mask_vertices(want["apex"]) or (0,))[0]


def test_minimal_non_faces_of_a_skeleton_are_the_next_size_up():
    # every set of at most 6 vertices is a face of the 5-skeleton on 13
    # vertices, so its minimal non-faces are all C(13, 7) = 1,716 7-sets
    assert full_skeleton(13, 5).minimal_non_faces == tuple(sorted(
        vertex_mask(c) for c in itertools.combinations(range(1, 14), 7)))


def test_neighbourliness_definition_matches_scan():
    import itertools
    rng = seeded(42)
    corpus = [random_antichain_complex(rng, rng.randint(1, 6))
              for _ in range(40)]
    # n = 0, and a filled triangle beside a ghost vertex
    corpus += [SimplicialComplex(0), new_complex(4, [[1, 2, 3]])]
    for K in corpus:
        n = K.n
        k = K.neighbourliness
        for size in range(1, k + 1):
            for combo in itertools.combinations(range(1, n + 1), size):
                assert K.is_face(vertex_mask(combo))
        if k < n:
            assert any(
                not K.is_face(vertex_mask(c))
                for c in itertools.combinations(range(1, n + 1), k + 1))


def test_neighbourliness_matches_the_subset_scan():
    rp2 = fixture_complex("rp2.json")
    corpus = [SimplicialComplex(0), SimplicialComplex(3), rp2,
              SimplicialComplex(rp2.n + 2, rp2.facets)]
    corpus += [simplex(n) for n in range(7)]
    for n in range(1, 9):
        for k in range(-1, n):
            corpus += [full_skeleton(n, k),
                       SimplicialComplex(n + 2, full_skeleton(n, k).facets)]
    rng = seeded(44)
    for _ in range(30):
        n = rng.randint(1, 8)
        K = random_complex(n, rng.randint(0, min(n, 3)), 0.5, rng.randrange(99))
        corpus += [K.restriction(bits << 1) for bits in range(1 << n)]
    for K in corpus:
        assert (K.support_neighbourliness
                == brute_neighbourliness(K, K.support)), K
        assert K.neighbourliness == brute_neighbourliness(K, full_mask(K.n)), K


def test_full_skeleton_facet_bound():
    # every skeleton on the 20 vertices a command reads at most still
    # builds; one more vertex, or C(30, 15) facets, is refused up front
    assert max(math.comb(20, k + 1) for k in range(20)) == MAX_SKELETON_FACETS
    for n, k in ((21, 9), (30, 14)):
        with pytest.raises(ValueError, match="facets"):
            full_skeleton(n, k)
    assert full_skeleton(21, 19) == boundary_simplex(21)


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
