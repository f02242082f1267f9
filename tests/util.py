"""Shared helpers for the test suite."""

import itertools
import json
import pathlib
import random
from fractions import Fraction
from functools import reduce
from operator import or_

from momentangle import (
    HochsterSummand,
    IntMatrix,
    SimplicialComplex,
    enumerate_balanced_splits,
    flag_from_graph,
    in_split_region,
    mask_vertices,
    new_complex,
    reduced_cohomology,
    split_center,
    vertex_mask,
)
from momentangle.complexes import neighbourliness_from_counts
from momentangle.golod import TheoremVerdict, iota_pair, pair_certificates
from momentangle.hochster import _removable_vertex, wedge_model
from momentangle.homology import (
    DEFAULT_BATTERY,
    HomologyGroup,
    _boundary_matrix,
    _restricted_faces,
    connectivity_certificate,
    face_levels,
    homology_degree_window,
    parse_coefficients,
)
from momentangle.linalg import rank_mod_p, smith_normal_form

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_fixture(name):
    with open(FIXTURES / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def fixture_complex(name, key=None):
    data = load_fixture(name)
    if key is not None:
        data = data[key]
    return SimplicialComplex.from_dict(data)


def all_complexes_on(n):
    """Every simplicial complex with ambient set {1..n} and support {1..n}-ish.

    Enumerated as antichains of facets: every nonempty downward-closed
    face family is determined by its maximal elements.  The empty-facet
    complex {∅} is included once.  Small n only.
    """
    subsets = list(range(1, 1 << n))
    seen = set()
    out = []
    for r in range(0, len(subsets) + 1):
        if r > 6:
            break
        for combo in itertools.combinations(subsets, r):
            if any(a != b and a & b == a for a in combo for b in combo):
                continue
            masks = [frozenset(
                v for v in range(1, n + 1) if f & (1 << (v - 1))) for f in combo]
            key = frozenset(frozenset(m) for m in masks)
            if key in seen:
                continue
            seen.add(key)
            out.append(new_complex(n, [sorted(m) for m in masks]))
    return out


def octahedron_boundary():
    """The boundary of the octahedron: K_{2,2,2}'s flag complex, with
    {1, 2}, {3, 4} and {5, 6} its missing edges."""
    return flag_from_graph(
        6, [(a, b) for a, b in itertools.combinations(range(1, 7), 2)
            if (a, b) not in ((1, 2), (3, 4), (5, 6))])


def random_antichain_complex(rng, n, max_facets=None, max_size=None):
    """A complex drawn by sampling facets of 1..``max_size`` (default n)
    vertices directly (antichain pruning is done by the constructor)."""
    if max_facets is None:
        max_facets = n + 2
    count = rng.randint(1, max_facets)
    facets = []
    for _ in range(count):
        size = rng.randint(1, min(n, max_size or n))
        facets.append(sorted(rng.sample(range(1, n + 1), size)))
    return new_complex(n, facets)


def seeded(seed):
    return random.Random(seed)


def gnp_flag(rng, n, p):
    """Flag complex of a random graph G(n, p) on {1..n}."""
    edges = [(a, b) for a, b in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < p]
    return flag_from_graph(n, edges)


# ----------------------------------------------------------------------
# slow-path oracles for the shortcuts


def brute_neighbourliness(K, mask):
    """Largest k such that every k-subset of ``mask`` is a face of K, by
    testing subsets one by one in increasing size until the first
    non-face.  ``K.support`` gives the support neighbourliness."""
    verts = mask_vertices(mask)
    for size in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            if not K.is_face(vertex_mask(combo)):
                return size - 1
    return len(verts)


def hochster_by_restriction(complex, coeffs="Z"):
    """``hochster_decomposition`` with each core built as a complex.

    The subsets with a removable vertex reuse a smaller subset's groups
    as in the scan; every other subset builds ``complex.restriction``,
    skips a cone, and computes cohomology in its
    ``homology_degree_window``, so no face is read off the facets
    directly.
    """
    neighbourhoods = None
    if complex.is_flag:
        neighbourhoods = {1 << v: closed for v, closed
                          in enumerate(complex.closed_neighbourhoods)}
    groups_of = [()] * (1 << complex.n)
    summands = []
    for bits in range(1 << complex.n):
        mask = bits << 1
        removable = _removable_vertex(mask, complex.support, neighbourhoods)
        if removable:
            groups = groups_of[(mask ^ removable) >> 1]
        else:
            sub = complex.restriction(mask)
            if sub.is_cone:
                continue
            full = reduced_cohomology(sub, coeffs, homology_degree_window(sub))
            groups = tuple((d, g) for d, g in full.items() if not g.is_zero)
        if groups:
            groups_of[bits] = groups
            shift = mask.bit_count() + 1
            summands.append(HochsterSummand(
                mask, [(d + shift, g) for d, g in groups]))
    return summands


def reduced_groups_by_matrices(levels, coeffs, degree_range, cohomology):
    """``homology._reduced_groups`` with every boundary matrix built.

    No rank is known in advance: not ∂_0 or ∂_1, and not the bottom of a
    neighbourly window.  Each ∂_d with faces on both sides is a matrix
    ranked by ``smith_normal_form`` (``Z``, ``Q``) or ``rank_mod_p``.
    """
    kind, p = parse_coefficients(coeffs)
    lo, hi = degree_range if degree_range else (-1, len(levels) - 2)
    lo = max(lo, -1)

    def faces(d):
        return levels[d + 1] if 0 <= d + 1 < len(levels) else ()

    ranks, torsion = {}, {}
    for d in range(lo, hi + 2):
        sources, targets = faces(d), faces(d - 1)
        ranks[d], torsion[d] = 0, ()
        if not (sources and targets):
            continue
        matrix = _boundary_matrix(sources,
                                  {f: i for i, f in enumerate(targets)})
        if kind == "F":
            ranks[d] = rank_mod_p(matrix, p)
        else:
            form = smith_normal_form(matrix)
            ranks[d] = form.rank
            torsion[d] = form.torsion if kind == "Z" else ()
    source = 0 if cohomology else 1
    return {d: HomologyGroup(len(faces(d)) - ranks[d] - ranks[d + 1],
                             torsion[d + source])
            for d in range(lo, hi + 1)}


def prune_by_every_facet(faces):
    """The facets of the complex whose faces are the submasks of
    ``faces``, as ``SimplicialComplex`` stores them: each face, in order
    of decreasing size, is tested against every facet kept so far, those
    of its own size included."""
    facets = []
    for f in sorted(set(faces) or {0}, key=int.bit_count, reverse=True):
        if not any(f & ~g == 0 for g in facets):
            facets.append(f)
    return tuple(sorted(facets))


def int_matrix(rows, num_cols=None):
    """An ``IntMatrix`` from dense rows; ``num_cols`` (by default the
    length of the first row) shapes a matrix with no rows."""
    if num_cols is None:
        num_cols = len(rows[0]) if rows else 0
    return IntMatrix(len(rows), num_cols, (((r, c), v) for r, row in enumerate(rows)
                                          for c, v in enumerate(row)))


def dense_rows(matrix):
    """The entries of an ``IntMatrix`` as dense rows."""
    rows = [[0] * matrix.num_cols for _ in range(matrix.num_rows)]
    for r, row in matrix.rows.items():
        for c, v in row.items():
            rows[r][c] = v
    return rows


def differential_squares_to_zero(chain):
    """Whether ∂_d ∘ ∂_{d+1} = 0 in every degree of a ``ChainComplex``."""
    return all(not (chain.boundary_matrix(d) @ chain.boundary_matrix(d + 1)).rows
               for d in range(-1, chain.dim + 1))


def is_cocycle(calc, d, vector, coeffs):
    """Whether the d-cochain ``vector`` of a ``CochainCalculator`` has
    zero coboundary over ``coeffs``."""
    p = parse_coefficients(coeffs)[1]
    image = calc.coboundary_matrix(d).apply(vector)
    return all(v % p == 0 for v in image) if p else not any(image)


def brute_split_tags(y):
    """The tags of a cube point by testing every balanced split."""
    n = len(y) + 1
    return [s for s in enumerate_balanced_splits(n) if in_split_region(y, *s)]


def per_vertex_cluster_radius(z, subset_mask, i):
    """One member's cluster radius: sort its gaps, take the m-th."""
    m = len(z) // 3
    gaps = sorted(abs(z[i - 1] - z[j - 1])
                  for j in mask_vertices(subset_mask ^ (1 << i)))
    if m == 0 or len(gaps) < m:
        return Fraction(0)
    return gaps[m - 1]


# ----------------------------------------------------------------------
# Fraction oracles for the integer cluster geometry


def per_vertex_radii(z, subset_mask):
    return {i: per_vertex_cluster_radius(z, subset_mask, i)
            for i in mask_vertices(subset_mask)}


def fraction_split_region_statistics(y, low_mask, high_mask):
    """``split_region_statistics`` in Fraction arithmetic, radii per vertex."""
    z = tuple(y) + (Fraction(0),)
    n = len(z)
    spread = (max(z) - min(z)) / n
    gap = (min(z[j - 1] for j in mask_vertices(high_mask))
           - max(z[i - 1] for i in mask_vertices(low_mask)))
    if gap <= spread:
        return None
    radii = [per_vertex_radii(z, block) for block in (low_mask, high_mask)]
    if any(r >= spread for block in radii for r in block.values()):
        return None
    return spread, radii[0], radii[1]


def fraction_retraction_holds(y, low, high, n, times):
    """``verify._retraction_holds`` in Fraction arithmetic: each point
    (1 - t)·y + t·center must be in the cube (else ``ValueError``) and in
    the region, with spread (1 - t)·spread + t/(2n) and every radius
    scaled by 1 - t."""
    center = split_center(low, high, len(y) + 1)
    spread, *radii = fraction_split_region_statistics(y, low, high)
    for t in times:
        moved = tuple((1 - t) * c + t * b for c, b in zip(y, center))
        if any(abs(c) >= 1 for c in moved):
            raise ValueError("point must lie strictly inside the cube")
        stats = fraction_split_region_statistics(moved, low, high)
        if stats is None:
            return False
        spread_t, *radii_t = stats
        keep = 1 - t
        if spread_t != keep * spread + t * Fraction(1, 2 * n):
            return False
        for before, after in zip(radii, radii_t):
            if after != {v: keep * radius for v, radius in before.items()}:
                return False
    return True


def fraction_damping_factors(z):
    """Damping factor ``(spread - radius) / spread``, floored at 0, per coordinate."""
    spread = (max(z) - min(z)) / len(z)
    if spread == 0:
        raise ValueError("damping undefined on a constant anchor")
    radii = per_vertex_radii(z, (1 << (len(z) + 1)) - 2)
    return tuple(max(Fraction(0), (spread - radii[i]) / spread)
                 for i in range(1, len(z) + 1))


def fraction_level_blocks(values, vertices):
    """Vertex masks of equal Fraction value, lowest value first."""
    blocks = {}
    for v, t in zip(vertices, values):
        blocks[t] = blocks.get(t, 0) | (1 << v)
    return tuple(mask for _, mask in sorted(blocks.items()))


def fraction_gauge_radius(low_mask, high_mask, offset):
    """The gauge's exit radius along ``offset``, in Fraction arithmetic.

    Along ``center + r·u`` (``u`` the max-norm unit direction, anchored
    by a 0) membership is a family of conditions ``A + B·r > 0``; the
    radius is the least root ``-A / B`` with ``B < 0``, or the cube exit.
    """
    half = Fraction(1, 2)
    n = len(offset) + 1
    norm = max(abs(c) for c in offset)
    direction = tuple(c / norm for c in offset)
    center = split_center(low_mask, high_mask, n)
    u = direction + (Fraction(0),)
    low = [u[i - 1] for i in mask_vertices(low_mask)]
    high = [u[j - 1] for j in mask_vertices(high_mask)]
    spread_slope = (max(high) - min(low)) / n
    conditions = [(half - half / n, min(high) - max(low) - spread_slope)]
    for block in (low_mask, high_mask):
        conditions.extend((half / n, spread_slope - radius)
                          for radius in per_vertex_radii(u, block).values())
    cube_exit = min((1 - bk) / uk if uk > 0 else (-1 - bk) / uk
                    for bk, uk in zip(center, direction) if uk != 0)
    return min([cube_exit] + [-a / b for a, b in conditions if b < 0])


# ----------------------------------------------------------------------
# oracles for the pair engine's shortcuts


def record_by_restriction(complex, mask):
    """What the pair engine reads of K_I, I = ``mask``, by building the
    restriction: ``complex.restriction(mask)`` prunes the cut facets to an
    antichain, and its apex set (the meet of its facets), dimension,
    support, support neighbourliness and face levels are its own.  The
    integral groups are its ``reduced_cohomology`` over
    ``homology_degree_window``, and the connectivity is
    ``connectivity_certificate``, from homology."""
    sub = complex.restriction(mask)
    apex = sub.facets[0]
    for f in sub.facets:
        apex &= f
    return {"restriction": sub, "apex": apex, "dim": sub.dim,
            "support": sub.support,
            "support_neighbourliness": sub.support_neighbourliness,
            "levels": face_levels(sub.faces),
            "integral_groups": reduced_cohomology(
                sub, "Z", homology_degree_window(sub)),
            "connectivity": connectivity_certificate(sub)[0]}


def record_by_listing(masks):
    """What ``ChainComplex(masks)`` reads, each reading off its listed
    faces: the faces and apex of ``_restricted_faces``, the dimension and
    support neighbourliness off the face levels, and the groups over each
    battery coefficient system over ``homology_degree_window`` from every
    boundary matrix (``reduced_groups_by_matrices``)."""
    order = sorted(masks, key=int.bit_count, reverse=True)
    faces, apex = _restricted_faces(order)
    levels = face_levels(faces)
    m = neighbourliness_from_counts([len(level) for level in levels])
    window = (max(m - 1, -1), len(levels) - 2)
    return {"support": reduce(or_, order), "apex": apex,
            "dim": len(levels) - 2, "support_neighbourliness": m,
            "cohomology": {coeffs: reduced_groups_by_matrices(
                levels, coeffs, window, cohomology=True)
                for coeffs in DEFAULT_BATTERY},
            "levels": levels}


def cross_product_matrix_by_cochains(pair_map, d):
    """``CrossProductMap.matrix(d)`` with no generator-count shortcut.

    Whenever the target has classes in degree d, every cross product and
    Tor cochain is built and read off the target's Smith transforms, so
    a degree with no source classes costs the target's transforms too.
    """
    target, coeffs = pair_map.target, pair_map.coeffs
    calc_i, calc_j = pair_map.calc_i, pair_map.calc_j
    target_orders = target.orders(d, coeffs) if d <= target.dim else ()
    cochains = []
    if target_orders:
        dim_i, dim_j = calc_i.dim, calc_j.dim
        for p in range(max(-1, d - 1 - dim_j), min(dim_i, d) + 1):
            cochains += pair_map._cross(d, p, calc_i.generators(p, coeffs),
                                        calc_j.generators(d - 1 - p, coeffs))
        for p in range(max(0, d - dim_j), min(dim_i, d) + 1):
            cochains += pair_map._tor_cochains(d, p)
    columns = [target.class_coordinates(d, c, coeffs) for c in cochains]
    return [[col[i] for col in columns] for i in range(len(target_orders))]


def splitting_verdict_by_full_stream(complex):
    """``splitting_verdict`` read off ``pair_certificates``, which walks
    every disjoint pair, the pairs settled by their sizes included."""
    hypothesis = complex.is_third_neighbourly
    unknown = []
    for subset_i, subset_j, certificate in pair_certificates(complex):
        if certificate.verdict == "NotNull":
            return TheoremVerdict(hypothesis, "NotCoH",
                                  witness=iota_pair(complex, subset_i, subset_j))
        if certificate.verdict == "Unknown":
            unknown.append((subset_i, subset_j))
    if hypothesis and not unknown:
        return TheoremVerdict(True, "CoH", wedge=wedge_model(complex, "Z"))
    return TheoremVerdict(hypothesis, "Inconclusive", unknown_pairs=unknown)
