"""Subset-cohomology decomposition, Poincaré series, wedge models, oracle."""

import math

import pytest

from momentangle import (
    ChainComplex,
    HomologyGroup,
    PoincareSeries,
    SimplicialComplex,
    TruncationError,
    boundary_simplex,
    cycle_complex,
    full_mask,
    full_skeleton,
    hochster_decomposition,
    koszul_oracle,
    new_complex,
    poincare_series,
    random_complex,
    reduced_cohomology,
    series_from_decomposition,
    shifted_join,
    simplex,
    single_non_face,
    vertex_mask,
    wedge_model,
)

from util import (
    fixture_complex,
    gnp_flag,
    octahedron_boundary,
    random_antichain_complex,
    removable_vertex,
    seeded,
)

UNIT = {0: 1}


def series_dict(complex, field="Q"):
    return poincare_series(complex, field).as_dict()


def oracle_dict(complex, field="Q"):
    top = complex.n + complex.dim + 1
    return koszul_oracle(complex, field, top).as_dict()


def test_named_series():
    assert series_dict(simplex(3)) == UNIT
    assert series_dict(new_complex(2, [])) == {0: 1, 1: 2, 2: 1}
    assert series_dict(boundary_simplex(2)) == {0: 1, 3: 1}
    assert series_dict(boundary_simplex(3)) == {0: 1, 5: 1}
    assert series_dict(cycle_complex(4)) == {0: 1, 3: 2, 6: 1}
    assert series_dict(single_non_face(6, 3)) == {0: 1, 5: 1}
    assert series_dict(single_non_face(9, 5)) == {0: 1, 9: 1}
    # a ghost vertex multiplies the series by (1 + t)
    two_plus_ghost = new_complex(3, [[1], [2]])
    assert series_dict(two_plus_ghost) == {0: 1, 1: 1, 3: 1, 4: 1}


def test_series_empty_complex_matches_cube_count():
    # {∅} on n vertices gives (1+t)^n
    for n in (1, 2, 3, 4):
        expected = PoincareSeries({0: 1, 1: 1})
        product = PoincareSeries(UNIT)
        for _ in range(n):
            product = product * expected
        assert poincare_series(new_complex(n, []), "Q") == product


def test_decomposition_subset_bookkeeping():
    c4 = cycle_complex(4)
    summands = hochster_decomposition(c4, "Z")
    by_mask = {s.subset_mask: s for s in summands}
    # the empty subset contributes the unit in degree 0
    assert 0 in by_mask
    assert by_mask[0].shifted_groups[0][0] == 0
    # the two diagonals contribute degree-3 classes
    for diag in ([1, 3], [2, 4]):
        s = by_mask[vertex_mask(diag)]
        assert [(d, g.rank) for d, g in s.shifted_groups] == [(3, 1)]
    # the full subset contributes the top class in degree 6
    full = by_mask[vertex_mask([1, 2, 3, 4])]
    assert [(d, g.rank) for d, g in full.shifted_groups] == [(6, 1)]
    # no other subsets appear
    assert len(summands) == 4
    # masks come back sorted
    assert [s.subset_mask for s in summands] == sorted(by_mask)


def test_decomposition_torsion_flag():
    rp2 = fixture_complex("rp2.json")
    summands = hochster_decomposition(rp2, "Z")
    torsioned = [s for s in summands
                 if any(g.torsion for _, g in s.shifted_groups)]
    assert len(torsioned) == 1
    top = torsioned[0]
    assert top.subset_mask == rp2.support
    assert top.as_dict()["torsion"] == {"9": [2]}
    # integral free ranks agree with the rational series
    assert series_from_decomposition(summands).as_dict() == series_dict(rp2)
    # but mod 2 the torsion shows up as extra rank
    assert series_dict(rp2, "F2") != series_dict(rp2)


def test_decomposition_matches_full_range_cohomology():
    """Each summand equals the shifted full-range cohomology of its
    restriction; cones and windowed-out degrees contribute nothing, and a
    subset settled by a vertex rule (a ghost vertex, an acyclic link or an
    acyclic deletion) reads a smaller subset's groups without changing
    them."""
    rng = seeded(35)
    corpus = [random_antichain_complex(rng, rng.randint(1, 6)) for _ in range(6)]
    corpus += [random_complex(6, floor, 0.5, seed)
               for floor in (2, 3) for seed in range(3)]
    rp2 = fixture_complex("rp2.json")
    corpus.append(rp2)   # Z torsion at the top
    # flag complexes, where the link and deletion rules apply
    corpus += [gnp_flag(rng, n, p) for n, p in ((6, 0.5), (7, 0.6), (8, 0.4),
                                                (9, 0.5), (10, 0.3))]
    corpus.append(gnp_flag(rng, 8, 0.6).restriction(vertex_mask([1, 2, 4, 5, 7])))
    corpus.append(new_complex(3, []))
    # non-flag controls; the torsion of RP² passes through two ghosts
    corpus += [boundary_simplex(3), full_skeleton(5, 1),
               SimplicialComplex(rp2.n + 2, rp2.facets)]
    for K in corpus:
        for coeffs in ("Z", "Q", "F2"):
            found = {s.subset_mask: list(s.shifted_groups)
                     for s in hochster_decomposition(K, coeffs)}
            for mask in range(0, full_mask(K.n) + 1, 2):
                shift = mask.bit_count() + 1
                full = reduced_cohomology(K.restriction(mask), coeffs)
                expected = [(d + shift, g) for d, g in sorted(full.items())
                            if not g.is_zero]
                assert found.get(mask, []) == expected, (K.facets, mask)


def test_scan_builds_only_the_cores(monkeypatch):
    """On the five-cycle, only the empty set builds a chain complex, and
    no subset builds a restriction.  A subset with a vertex whose link is
    acyclic takes the groups of the subset without it.  The empty set, the
    vertices, the non-edges and the whole cycle have no such vertex: a
    vertex's link in them is empty, with H̃^{-1}(∅) = Z, or two points.
    A vertex is a simplex, read off the closed form.  A non-edge is two
    points: deleting either leaves a point, which is acyclic, so it takes
    the empty link's H̃^{-1} = Z shifted up to H̃^0, in degree 0 + 3.  The
    whole cycle's deletions are paths, so it takes the two-point link's
    H̃^0 = Z shifted up to H̃^1."""
    c5 = cycle_complex(5)
    assert c5.is_flag   # cached, so the flag test's restriction is not counted
    built, restricted = [], []
    init = ChainComplex.__init__
    restriction = SimplicialComplex.restriction

    def recording(self, masks):
        init(self, masks)
        built.append(self.support)

    def recording_restriction(self, mask):
        restricted.append(mask)
        return restriction(self, mask)

    monkeypatch.setattr(ChainComplex, "__init__", recording)
    monkeypatch.setattr(SimplicialComplex, "restriction", recording_restriction)
    summands = {s.subset_mask: s for s in hochster_decomposition(c5, "Z")}
    assert sorted(built) == [0]
    assert restricted == []
    for v in range(1, 6):
        non_edge = vertex_mask([v, (v + 1) % 5 + 1])
        assert summands[non_edge].shifted_groups == ((3, HomologyGroup(1)),)


def scan_with_records(monkeypatch, K, coeffs):
    """The scan's summands, and the supports of the ``ChainComplex``
    records it builds."""
    built = []
    init = ChainComplex.__init__

    def recording(self, masks):
        init(self, masks)
        built.append(self.support)

    monkeypatch.setattr(ChainComplex, "__init__", recording)
    summands = hochster_decomposition(K, coeffs)
    monkeypatch.undo()
    return summands, built


def assert_summands_are_the_restrictions(K, summands, coeffs):
    found = {s.subset_mask: list(s.shifted_groups) for s in summands}
    for mask in range(0, full_mask(K.n) + 1, 2):
        shift = mask.bit_count() + 1
        full = reduced_cohomology(K.restriction(mask), coeffs)
        expected = [(d + shift, g) for d, g in sorted(full.items())
                    if not g.is_zero]
        assert found.get(mask, []) == expected, (K.facets, mask)


@pytest.mark.parametrize("K", [cycle_complex(n) for n in range(4, 10)]
                         + [octahedron_boundary()],
                         ids=[f"C{n}" for n in range(4, 10)] + ["octahedron"])
def test_cycles_and_the_octahedron_build_only_the_empty_record(
        monkeypatch, K):
    """Every nonempty subset of a flag cycle or of the octahedral 2-sphere
    is settled by a vertex rule or the closed form: a path or a cone is
    acyclic, so a deletion shifts its vertex's link up one degree."""
    assert K.is_flag
    summands, built = scan_with_records(monkeypatch, K, "Z")
    assert built == [0]
    assert_summands_are_the_restrictions(K, summands, "Z")


def test_link_rule_settles_a_core_with_no_dominated_vertex(monkeypatch):
    """In the seeded flag complex K below no vertex is dominated, and no
    vertex deletion is acyclic.  Vertex 2's link is the path 1-6-4-3,
    acyclic but not a cone, so K takes the groups of K without 2 and
    builds no record of its own: the scan builds three, for ∅ and two
    smaller cores."""
    K = gnp_flag(seeded(13), 7, 0.4)
    whole = full_mask(7)
    assert K.is_flag and K.support == whole
    neighbourhoods = {1 << v: closed
                      for v, closed in enumerate(K.closed_neighbourhoods)}
    assert removable_vertex(whole, whole, neighbourhoods) == 0
    link = neighbourhoods[1 << 2] & ~(1 << 2)
    assert link == vertex_mask([1, 3, 4, 6])
    assert not K.restriction(link).is_cone
    assert all(g.is_zero for g in reduced_cohomology(
        K.restriction(link), "Z").values())
    for v in range(1, 8):
        deletion = K.restriction(whole ^ 1 << v)
        assert any(not g.is_zero
                   for g in reduced_cohomology(deletion, "Z").values())
    summands, built = scan_with_records(monkeypatch, K, "Z")
    assert len(built) == 3 and whole not in built
    assert sorted(built) == [0, vertex_mask([1, 2, 4, 5, 7]),
                             vertex_mask([2, 3, 5, 6, 7])]
    assert_summands_are_the_restrictions(K, summands, "Z")


def test_skeleton_scan_builds_one_chain_complex(monkeypatch):
    """A skeleton has no facet above its neighbourliness, so every core
    but the empty set takes the closed form: the scan of the 2-skeleton
    on ten vertices builds one chain complex, that of I = ∅."""
    built = []
    init = ChainComplex.__init__

    def recording(self, masks):
        built.append(set(masks))
        init(self, masks)

    monkeypatch.setattr(ChainComplex, "__init__", recording)
    summands = hochster_decomposition(full_skeleton(10, 2), "Z")
    assert built == [{0}]
    assert len(summands) == 1 + 2 ** 10 - sum(
        math.comb(10, s) for s in range(4))


def test_oracle_matches_decomposition_on_random_complexes():
    rng = seeded(32)
    for _ in range(30):
        K = random_antichain_complex(rng, rng.randint(1, 6))
        for field in ("Q", "F2", "F3"):
            assert series_dict(K, field) == oracle_dict(K, field), K.facets


def test_oracle_guards():
    c4 = cycle_complex(4)
    with pytest.raises(TruncationError):
        koszul_oracle(c4, "Q", c4.n + c4.dim)
    with pytest.raises(ValueError):
        koszul_oracle(c4, "Z", 12)
    with pytest.raises(ValueError):
        koszul_oracle(new_complex(9, []), "Q", 40)
    with pytest.raises(ValueError):
        poincare_series(c4, "Z")
    # truncation below the top simply cuts the reported window
    partial = koszul_oracle(c4, "Q", 6)
    assert partial.as_dict() == {0: 1, 3: 2, 6: 1}


def test_join_multiplies_series():
    rng = seeded(33)
    for _ in range(20):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        if n1 + n2 > 8:
            continue
        A = random_antichain_complex(rng, n1)
        B = random_antichain_complex(rng, n2)
        joined = shifted_join(A, B)
        for field in ("Q", "F3"):
            assert poincare_series(joined, field) == \
                poincare_series(A, field) * poincare_series(B, field)


def test_wedge_model_spheres():
    nf = single_non_face(6, 3)
    model = wedge_model(nf)
    assert model.is_complete
    assert model.sphere_degrees == [5]
    assert model.as_dict()["spheres"] == [5]
    # the wedge-of-spheres series includes the basepoint unit
    assert model.series().as_dict() == {0: 1, 5: 1}

    c4_model = wedge_model(cycle_complex(4))
    assert c4_model.is_complete
    assert c4_model.sphere_degrees == [3, 3, 6]


def test_free_groups_two_degrees_apart_are_not_spheres():
    # a point disjoint from the boundary of a tetrahedron: free in degrees
    # 0 and 2, so the whole-set summand is free in ambient degrees 6 and
    # 8, two apart, where a top cell may be attached by η; spheres are
    # withheld, conservatively
    K = new_complex(5, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [5]])
    model = wedge_model(K)
    whole = model.summands[-1]
    assert whole.as_dict() == {"I": [1, 2, 3, 4, 5],
                               "degrees": {"6": 1, "8": 1}}
    assert not whole.is_spheres and whole.sphere_degrees == []
    assert all(s.is_spheres for s in model.summands[:-1])
    assert not model.is_complete
    assert model.as_dict()["spheres"] is None
    # with the boundary of a triangle the degrees are adjacent: spheres
    adjacent = wedge_model(new_complex(4, [[1, 2], [2, 3], [1, 3], [4]]))
    assert adjacent.summands[-1].as_dict()["degrees"] == {"5": 1, "6": 1}
    assert adjacent.is_complete
    assert adjacent.as_dict()["summands"][-1]["spheres"] == [5, 6]


def test_wedge_model_torsion_blocks_completeness():
    model = wedge_model(fixture_complex("rp2.json"))
    assert not model.is_complete
    assert model.as_dict()["spheres"] is None
    flagged = [s for s in model.summands if not s.is_spheres]
    assert len(flagged) == 1
    assert flagged[0].as_dict()["torsion"] == {"9": [2]}


def test_torsion_appears_only_with_a_torsioned_restriction():
    """The integral decomposition is torsion-free unless some full
    restriction has torsion in its reduced cohomology (mod-2 vs rational
    rank disagreement is the cheap proxy)."""
    rng = seeded(34)
    for _ in range(25):
        K = random_antichain_complex(rng, rng.randint(1, 6))
        has_torsion = any(
            any(g.torsion for _, g in s.shifted_groups)
            for s in hochster_decomposition(K, "Z"))
        assert has_torsion == (series_dict(K, "F2") != series_dict(K, "Q"))


def test_decomposition_vertex_guard():
    with pytest.raises(ValueError):
        hochster_decomposition(new_complex(21, []))


def test_decomposition_refuses_a_label_that_is_not_a_string():
    # a list is unhashable, so it must be refused before any cache sees it
    for label in (["Z"], ("Z",), 2):
        with pytest.raises(ValueError, match="not a string"):
            hochster_decomposition(cycle_complex(4), label)


def test_poincare_series_algebra():
    s = PoincareSeries({0: 1, 3: 2, 6: 1})
    assert s.rank(3) == 2 and s.rank(1) == 0
    assert s.max_degree == 6
    assert s.total_rank == 4
    assert s.truncate(3).as_dict() == {0: 1, 3: 2}
    assert (s * PoincareSeries({0: 1})) == s
    assert s.pretty() == "1 + 2t^3 + t^6"
    assert PoincareSeries({}).pretty() == "0"
    assert PoincareSeries({1: 1}).pretty() == "t"
    # zero ranks are dropped on construction
    assert PoincareSeries({2: 0}).as_dict() == {}
