"""Reduced (co)homology, cochain coordinates, induced maps, connectivity."""

import math
from fractions import Fraction

import pytest

from momentangle import (
    ChainComplex,
    CochainCalculator,
    HomologyGroup,
    InducedMap,
    SimplicialComplex,
    boundary_simplex,
    connectivity_certificate,
    cycle_complex,
    flag_from_graph,
    full_mask,
    full_skeleton,
    hochster_decomposition,
    mask_vertices,
    new_complex,
    random_complex,
    reduced_cohomology,
    reduced_homology,
    simplex,
    single_non_face,
    vertex_mask,
)
from momentangle import homology
from momentangle.homology import (
    DEFAULT_BATTERY,
    homology_degree_window,
    parse_coefficients,
)
from momentangle.linalg import (
    field_echelon,
    field_nullspace,
    field_rank,
    field_solve,
)

from util import (
    fixture_complex,
    octahedron_boundary,
    random_antichain_complex,
    seeded,
)


def groups_of(complex, coeffs="Z"):
    return {d: (g.rank, list(g.torsion))
            for d, g in reduced_homology(complex, coeffs).items()
            if not g.is_zero}


def test_parse_coefficients():
    assert parse_coefficients("Z") == ("Z", None)
    assert parse_coefficients("Q") == ("Q", None)
    assert parse_coefficients("F2") == ("F", 2)
    assert parse_coefficients("F13") == ("F", 13)
    for bad in ("F4", "F1", "R", "", "Fx"):
        with pytest.raises(ValueError):
            parse_coefficients(bad)


def test_named_spaces_integral_homology():
    # empty complex: one reduced class in degree -1
    assert groups_of(new_complex(3, [])) == {-1: (1, [])}
    # simplices are acyclic
    assert groups_of(simplex(4)) == {}
    # two points: a single reduced 0-class
    assert groups_of(boundary_simplex(2)) == {0: (1, [])}
    # circles: one 1-class
    assert groups_of(boundary_simplex(3)) == {1: (1, [])}
    assert groups_of(cycle_complex(4)) == {1: (1, [])}
    # 2-sphere
    assert groups_of(boundary_simplex(4)) == {2: (1, [])}
    # two disjoint circles on 6 vertices
    pair = new_complex(6, [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])
    assert groups_of(pair) == {0: (1, []), 1: (2, [])}


def test_projective_plane_homology_and_cohomology():
    rp2 = fixture_complex("rp2.json")
    assert groups_of(rp2) == {1: (0, [2])}
    # torsion climbs one degree in cohomology
    cogroups = {d: (g.rank, list(g.torsion))
                for d, g in reduced_cohomology(rp2, "Z").items()
                if not g.is_zero}
    assert cogroups == {2: (0, [2])}
    # mod-2 sees two classes, the rationals none
    assert groups_of(rp2, "F2") == {1: (1, []), 2: (1, [])}
    assert groups_of(rp2, "Q") == {}
    assert groups_of(rp2, "F3") == {}


def test_ghost_vertices_are_invisible_to_homology():
    K = new_complex(5, [[2, 3], [3, 4]])  # a path; 1 and 5 are ghosts
    assert groups_of(K) == {}


def test_chain_complex_structure():
    c4 = cycle_complex(4)
    chain = ChainComplex(c4.facets)
    assert chain.faces(-1) == [0]
    assert len(chain.faces(0)) == 4 and len(chain.faces(1)) == 4
    assert chain.boundary_matrix(0).num_rows == 1   # every vertex hits ∅
    assert chain.differential_squares_to_zero()
    rng = seeded(21)
    for _ in range(25):
        K = random_antichain_complex(rng, rng.randint(1, 6))
        assert ChainComplex(K.facets).differential_squares_to_zero()


def test_universal_coefficients_rank_bookkeeping():
    """dim H_d(F_p) = rank H_d(Z) + p-torsion in degrees d and d-1."""
    rng = seeded(22)
    complexes = [fixture_complex("rp2.json")]
    complexes += [random_antichain_complex(rng, rng.randint(1, 8))
                  for _ in range(500)]
    for K in complexes:
        integral = reduced_homology(K, "Z")
        for p in (2, 3):
            modular = reduced_homology(K, f"F{p}")
            for d, group in modular.items():
                expected = integral[d].rank
                expected += sum(1 for t in integral[d].torsion if t % p == 0)
                prev = integral.get(d - 1)
                if prev:
                    expected += sum(1 for t in prev.torsion if t % p == 0)
                assert group.rank == expected, (K.facets, p, d)
        rational = reduced_homology(K, "Q")
        assert all(rational[d].rank == integral[d].rank for d in rational)


def test_cohomology_matches_homology_ranks():
    rng = seeded(23)
    for _ in range(60):
        K = random_antichain_complex(rng, rng.randint(1, 7))
        for coeffs in ("Q", "F2", "F5"):
            hom = reduced_homology(K, coeffs)
            coh = reduced_cohomology(K, coeffs)
            assert {d: g.rank for d, g in hom.items()} == \
                   {d: g.rank for d, g in coh.items()}


def test_degree_window_is_safe():
    rng = seeded(24)
    for _ in range(40):
        K = random_antichain_complex(rng, rng.randint(1, 7))
        lo, hi = homology_degree_window(K)
        groups = reduced_homology(K, "Z")
        for d, g in groups.items():
            if not g.is_zero:
                assert lo <= d <= hi


def test_windowed_groups_match_full_range():
    """Inside the window, where the bottom boundary rank is known rather
    than computed, (co)homology equals the full-range computation."""
    rng = seeded(25)
    corpus = [random_antichain_complex(rng, rng.randint(1, 6)) for _ in range(6)]
    corpus += [random_complex(6, floor, 0.5, seed)
               for floor in (2, 3) for seed in range(3)]
    corpus.append(fixture_complex("rp2.json"))   # Z torsion at the top
    shortcuts = 0
    for K in corpus:
        for mask in range(0, full_mask(K.n) + 1, 2):
            sub = K.restriction(mask)
            window = homology_degree_window(sub)
            shortcuts += window[0] >= 0   # bottom rank taken as known
            for coeffs in ("Z", "Q", "F2"):
                for groups in (reduced_homology, reduced_cohomology):
                    full = groups(sub, coeffs)
                    windowed = groups(sub, coeffs, window)
                    assert windowed == {d: full[d] for d in windowed}
                    assert all(g.is_zero for d, g in full.items()
                               if d not in windowed)
    assert shortcuts > 400


def test_cochain_calculator_coordinates():
    for K in (cycle_complex(4), boundary_simplex(4),
              fixture_complex("rp2.json")):
        for coeffs in ("Z", "Q", "F2"):
            calc = CochainCalculator(K.facets, coeffs)
            for d in calc.degrees():
                gens = calc.generators(d)
                orders = calc.orders(d)
                assert len(gens) == len(orders)
                for i, g in enumerate(gens):
                    assert calc.is_cocycle(d, g)
                    coords = list(calc.class_coordinates(d, g))
                    expected = [0] * len(gens)
                    expected[i] = 1
                    assert coords == expected
                # a coboundary has zero class
                if d - 1 in calc.degrees() and calc.faces(d - 1):
                    delta = calc.coboundary_matrix(d - 1)
                    image = delta.apply(
                        [1] + [0] * (len(calc.faces(d - 1)) - 1))
                    assert calc.is_cocycle(d, image)
                    assert not any(calc.class_coordinates(d, image))


def _solve_route(calc, d):
    """Generators and a class-coordinates function that solve against the
    kernel basis per coboundary image and per vector: the route the
    free-column readout replaced."""
    p = calc.p
    dim_d = len(calc.faces(d))
    delta_rows = calc.coboundary_matrix(d).to_rows()
    one, zero = (1, 0) if p else (Fraction(1), Fraction(0))
    kernel = (field_nullspace(delta_rows, p) if delta_rows else
              [[one if i == j else zero for i in range(dim_d)]
               for j in range(dim_d)])
    kernel_rows = [[vec[i] for vec in kernel] for i in range(dim_d)]
    prev = calc.coboundary_matrix(d - 1)
    relation_rows = []
    for col in range(prev.num_cols):
        image = [v % p if p else v for v in prev.column(col)]
        relation_rows.append(field_solve(kernel_rows, image, p)
                             if kernel else [])
    rank_rel, rref, pivots = (field_echelon(relation_rows, p)
                              if relation_rows and kernel else (0, [], []))
    free = [j for j in range(len(kernel)) if j not in set(pivots)]

    def coordinates(vector):
        if not kernel:
            return ()
        z = field_solve(kernel_rows, [v % p if p else v for v in vector], p)
        for row, c in zip(rref[:rank_rel], pivots):
            f = z[c]
            if f:
                z = [(a - f * b) % p if p else a - f * b
                     for a, b in zip(z, row)]
        return tuple(z[j] for j in free)

    return [kernel[j] for j in free], coordinates


def test_free_column_readout_matches_solve_route():
    """The Q and F_p readings of the integral Smith forms present the
    same groups as the solve route, up to an invertible change of basis:
    the route's coordinates of the new generators form an invertible M,
    and on every cocycle its coordinates are the new ones times M."""
    rng = seeded(808)
    complexes = [random_complex(7, 2, 0.3, seed) for seed in range(3)]
    complexes += [random_complex(6, 1, 0.2, seed) for seed in range(4)]
    for seed in range(1, 5):
        K = random_complex(6, 1, 0.2, seed)
        complexes.append(K.restriction(vertex_mask([1, 2, 3])).join(
            K.restriction(vertex_mask([4, 5, 6]))))
    complexes.append(fixture_complex("rp2.json"))   # Tor generators over F2
    checked = nonzero = rejected = 0
    for K in complexes:
        for coeffs in ("Q", "F2", "F3", "F5"):
            calc = CochainCalculator(K.facets, coeffs)
            p = calc.p
            for d in calc.degrees():
                gens = calc.generators(d)
                size = len(calc.faces(d - 1))
                vectors = list(gens)
                for _ in range(3):
                    combo = [0] * len(calc.faces(d))
                    for g in gens:
                        a = rng.randint(-3, 3)
                        combo = [x + a * y for x, y in zip(combo, g)]
                    image = calc.coboundary_matrix(d - 1).apply(
                        [rng.randint(-2, 2) for _ in range(size)])
                    vectors.append([x + y for x, y in zip(combo, image)])
                old_gens, old_coordinates = _solve_route(calc, d)
                assert len(old_gens) == len(gens)
                change = [list(old_coordinates(g)) for g in gens]
                assert field_rank(change, p) == len(gens)
                for v in vectors:
                    new, old = calc.class_coordinates(d, v), old_coordinates(v)
                    via_new = [sum(c * row[k] for c, row in zip(new, change))
                               for k in range(len(old))]
                    assert [(a - b) % p if p else a - b
                            for a, b in zip(via_new, old)] == [0] * len(old)
                    checked += 1
                    nonzero += any(new)
                # a random cochain that is no cocycle is rejected
                v = [rng.randint(-2, 2) for _ in calc.faces(d)]
                if not calc.is_cocycle(d, v):
                    with pytest.raises(ValueError):
                        calc.class_coordinates(d, v)
                    rejected += 1
    assert checked > 300 and nonzero > 100 and rejected > 50


def test_class_coordinates_reject_non_cocycles():
    calc = CochainCalculator(boundary_simplex(3).facets, "Z")
    vector = [0] * len(calc.faces(0))
    vector[0] = 1
    # a single vertex cochain on the triangle boundary is not a cocycle
    assert not calc.is_cocycle(0, vector)
    with pytest.raises(ValueError):
        calc.class_coordinates(0, vector)


def test_cochain_groups_match_reduced_cohomology():
    rng = seeded(25)
    rp2 = fixture_complex("rp2.json")
    ghosts = (1, 2, 4, 5, 7, 8)   # RP² with ghost vertices 3 and 6
    corpus = [random_antichain_complex(rng, rng.randint(1, 6))
              for _ in range(25)]
    corpus += [rp2, SimplicialComplex(8, (
        vertex_mask([ghosts[v - 1] for v in mask_vertices(f)])
        for f in rp2.facets))]
    for K in corpus:
        for coeffs in DEFAULT_BATTERY:
            calc = CochainCalculator(K.facets, coeffs)
            groups = reduced_cohomology(K, coeffs)
            for d in calc.degrees():
                assert calc.group(d) == groups[d]


def test_induced_map_identity_and_zero():
    rp2 = fixture_complex("rp2.json")
    calc = CochainCalculator(rp2.facets, "Z")
    self_map = InducedMap(calc, calc)
    for d in self_map.degrees():
        n = len(calc.generators(d))
        assert self_map.matrix(d) == [
            [1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert self_map.nonzero_degrees() == [2]

    # two opposite vertices inside the 4-cycle: nothing to hit
    c4 = cycle_complex(4)
    sub = c4.restriction(vertex_mask([1, 3]))
    inc = InducedMap(CochainCalculator(sub.facets, "Z"),
                     CochainCalculator(c4.facets, "Z"))
    assert inc.is_zero
    assert inc.nonzero_degrees() == []

    # the 4-cycle is not a subcomplex of one of its edges
    edge = c4.restriction(vertex_mask([1, 2]))
    with pytest.raises(ValueError):
        InducedMap(CochainCalculator(c4.facets, "Z"),
                   CochainCalculator(edge.facets, "Z"))


def test_induced_map_functoriality_triples():
    rng = seeded(26)
    checked = 0
    while checked < 20:
        n = rng.randint(3, 6)
        K = random_antichain_complex(rng, n)
        mid = rng.getrandbits(n) << 1 & full_mask(n)
        small = rng.getrandbits(n) << 1 & mid
        KJ, KI = K.restriction(mid), K.restriction(small)
        for coeffs in ("Z", "F2"):
            big_calc = CochainCalculator(K.facets, coeffs)
            mid_calc = CochainCalculator(KJ.facets, coeffs)
            small_calc = CochainCalculator(KI.facets, coeffs)
            direct = InducedMap(small_calc, big_calc)
            first = InducedMap(mid_calc, big_calc)
            second = InducedMap(small_calc, mid_calc)
            for d in direct.degrees():
                lhs = direct.matrix(d)
                mid_mat, tail = first.matrix(d), second.matrix(d)
                orders = small_calc.orders(d) if d <= KI.dim else ()
                for i, order in enumerate(orders):
                    for j in range(len(lhs[i])):
                        composed = sum(tail[i][k] * mid_mat[k][j]
                                       for k in range(len(mid_mat)))
                        diff = lhs[i][j] - composed
                        assert diff % order == 0 if order else diff == 0
        checked += 1


def test_connectivity_certificates():
    assert connectivity_certificate(simplex(3)) == (math.inf, "topological")
    assert connectivity_certificate(boundary_simplex(3)) == (0, "homology-only")
    assert connectivity_certificate(boundary_simplex(4)) == (1, "topological")
    assert connectivity_certificate(boundary_simplex(2)) == (-1, "homology-only")
    assert connectivity_certificate(fixture_complex("rp2.json")) == \
        (0, "homology-only")
    assert connectivity_certificate(full_skeleton(6, 2)) == (1, "topological")
    sphere3 = single_non_face(9, 5).restriction(vertex_mask([1, 2, 3, 4, 5]))
    assert connectivity_certificate(sphere3) == (2, "topological")


def _connectivity_full_range(K):
    """Connectivity scanned over every degree from -1, no window."""
    if K.is_cone:
        return math.inf, "topological"
    flag = "topological" if K.support_neighbourliness >= 3 else "homology-only"
    groups = reduced_homology(K, "Z")
    for d in range(-1, K.dim + 1):
        if not groups[d].is_zero:
            return d - 1, flag
    return math.inf, flag


def test_connectivity_window_matches_full_range():
    rng = seeded(606)
    corpus = [random_antichain_complex(rng, rng.randint(1, 6))
              for _ in range(60)]
    corpus += [random_complex(n, floor, density, seed)
               for n in (6, 7) for floor in (1, 2, 3)
               for density in (0.3, 0.7) for seed in (1, 2)]
    corpus += [full_skeleton(n, k) for n in range(2, 8) for k in range(n)]
    corpus += [fixture_complex("rp2.json"), single_non_face(7, 4)]
    checked = 0
    for K in corpus:
        for mask in range(1 << K.n):
            sub = K.restriction(mask << 1)
            assert connectivity_certificate(sub) == _connectivity_full_range(sub)
            checked += 1
    assert checked > 5000


def test_homology_group_semantics():
    g = HomologyGroup(2, (2, 4))
    assert not g.is_zero
    assert g == HomologyGroup(2, [2, 4])
    assert g != HomologyGroup(2)
    assert HomologyGroup(0).is_zero
    assert g.as_dict() == {"rank": 2, "torsion": [2, 4]}


def test_graphs_need_no_matrix(monkeypatch):
    # ∂_0 and ∂_1 of a graph are ranked with no matrix: with the Smith
    # form and the rank mod p patched to raise, a cycle's homology and
    # the Hochster scan of an 8-cycle (whose cores are graphs) still run
    def refuse(matrix, *args, **kwargs):
        raise AssertionError("a graph's boundary reached the matrix path")

    monkeypatch.setattr(homology, "smith_normal_form", refuse)
    monkeypatch.setattr(homology, "rank_mod_p", refuse)
    eight_cycle = flag_from_graph(8, [(i, i % 8 + 1) for i in range(1, 9)])
    for coeffs in DEFAULT_BATTERY:
        groups = reduced_homology(cycle_complex(7), coeffs)
        assert groups[1] == HomologyGroup(1)
        assert all(groups[d].is_zero for d in (-1, 0))
        assert hochster_decomposition(eight_cycle, coeffs)


def test_octahedron_needs_one_smith_form(monkeypatch):
    # the boundary of the octahedron (m = 1, dim 2): only ∂_2 is a matrix
    octahedron = octahedron_boundary()
    sizes = []
    smith = homology.smith_normal_form

    def counted(matrix, *args, **kwargs):
        sizes.append((matrix.num_rows, matrix.num_cols))
        return smith(matrix, *args, **kwargs)

    monkeypatch.setattr(homology, "smith_normal_form", counted)
    groups = reduced_homology(octahedron, "Z")
    assert groups[2] == HomologyGroup(1)
    assert all(groups[d].is_zero for d in (-1, 0, 1))
    assert sizes == [(12, 8)]
