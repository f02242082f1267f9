"""Decomposition of moment-angle complex cohomology over full subcomplexes.

H^*(Z_K; k) splits additively as the direct sum over all vertex subsets I
of the reduced cohomology of K restricted to I, shifted up by |I| + 1.
This module assembles that decomposition, its Poincaré series, and the
associated wedge-of-spheres model, together with an independent oracle
that computes the same ranks as Tor of the face ring via an exterior
algebra differential — deliberately sharing no code with the subcomplex
route so the two can check each other.

The empty subset contributes H̃^{-1} of the empty complex, which is the
unit in degree 0; ghost vertices contribute genuine circle factors.  No
special cases: both fall out of the reduced chain complex.

Most subsets cost no homology at all.  When I holds a ghost vertex, or a
vertex dominated in the flag complex K_I (its link is a cone), deleting
that vertex keeps the homotopy type, so I takes the groups of the smaller
subset, which the scan in increasing mask order has already computed.
Of the strong-collapse cores left, most are read off K's support
neighbourliness m: when no facet meets I in more than m vertices, K_I is
the full (min(s, m) - 1)-skeleton on the s vertices of I, a simplex for
s ≤ m and otherwise a complex with the one group H̃^{m-1} = Z^{C(s-1, m)},
free over every coefficient system (``homology.skeleton_groups``).  This
settles every core of a skeleton, and the independent sets of a flag
complex (m = 1).  The other cores read K_I straight off K's facets cut
down to I, as a ``homology.ChainComplex``, which reads a full skeleton
by the same formula: no restricted complex is built.  The pair engine
of ``golod`` reads each K_I the same way.
"""

from __future__ import annotations

import math
from itertools import combinations

from momentangle.complexes import mask_vertices, vertex_mask
from momentangle.homology import ChainComplex, parse_coefficients, skeleton_groups
# Unused here, but the benchmark's tracer wraps these two module attributes.
from momentangle.linalg import rank_mod_p, smith_normal_form  # noqa: F401

MAX_DECOMPOSITION_VERTICES = 20


class TruncationError(ValueError):
    """The requested truncation cannot cover the full degree range."""


class PoincareSeries:
    """Rank-per-degree record for a graded vector space or free part."""

    def __init__(self, ranks):
        self.ranks = {d: r for d, r in ranks.items() if r}

    def rank(self, degree):
        return self.ranks.get(degree, 0)

    @property
    def max_degree(self):
        return max(self.ranks, default=0)

    @property
    def total_rank(self):
        return sum(self.ranks.values())

    def truncate(self, max_degree):
        return PoincareSeries({d: r for d, r in self.ranks.items()
                               if d <= max_degree})

    def __mul__(self, other):
        out = {}
        for d1, r1 in self.ranks.items():
            for d2, r2 in other.ranks.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + r1 * r2
        return PoincareSeries(out)

    def __eq__(self, other):
        return isinstance(other, PoincareSeries) and self.ranks == other.ranks

    def as_dict(self):
        return dict(sorted(self.ranks.items()))

    def pretty(self):
        if not self.ranks:
            return "0"
        parts = []
        for d, r in sorted(self.ranks.items()):
            if d == 0:
                parts.append(str(r))
            else:
                coeff = "" if r == 1 else str(r)
                power = "t" if d == 1 else f"t^{d}"
                parts.append(f"{coeff}{power}")
        return " + ".join(parts)

    def __repr__(self):
        return f"PoincareSeries({self.pretty()})"


class HochsterSummand:
    """One subset's contribution: shifted reduced cohomology of K_I.

    ``shifted_groups`` pairs each ambient degree d + |I| + 1 with the
    group H̃^d(K_I); only nonzero groups are kept.
    """

    def __init__(self, subset_mask, shifted_groups):
        self.subset_mask = subset_mask
        self.shifted_groups = tuple(shifted_groups)

    @property
    def vertices(self):
        return mask_vertices(self.subset_mask)

    @property
    def is_spheres(self):
        """Whether Σ^{|I|+1}|K_I| is a wedge of spheres: its groups are
        free and lie in at most two adjacent degrees.

        The suspension is simply connected with free homology, so it has
        one cell per generator (Hatcher, Prop. 4C.1).  With cells in
        degrees c and c + 1 only (c ≥ 2), each (c + 1)-cell is attached by
        a map S^c → ∨S^c, which its degrees fix and free homology makes
        zero.  Free groups two or more degrees apart do not suffice: the
        top cell of Σ^k CP^2 is attached by the Hopf map η.
        """
        degrees = [deg for deg, _ in self.shifted_groups]
        return (all(not g.torsion for _, g in self.shifted_groups)
                and (not degrees or max(degrees) - min(degrees) <= 1))

    @property
    def sphere_degrees(self):
        """Ambient sphere dimensions with multiplicity, when a wedge of
        spheres (``is_spheres``)."""
        if not self.is_spheres:
            return []
        out = []
        for degree, group in self.shifted_groups:
            out.extend([degree] * group.rank)
        return out

    def as_dict(self):
        out = {"I": list(self.vertices),
               "degrees": {str(deg): g.rank for deg, g in self.shifted_groups}}
        torsion = {str(deg): list(g.torsion)
                   for deg, g in self.shifted_groups if g.torsion}
        if torsion:
            out["torsion"] = torsion
        return out

    def __repr__(self):
        degs = {deg: g for deg, g in self.shifted_groups}
        return f"HochsterSummand(I={list(self.vertices)}, {degs})"


def hochster_decomposition(complex, coeffs="Z"):
    """All subsets' shifted cohomology contributions, sorted by mask.

    One HochsterSummand per I ⊆ [n] with a nontrivial group.  Subsets are
    scanned in increasing mask order, keeping each one's unshifted groups.
    A subset with a removable vertex v (see :func:`_removable_vertex`)
    has K_I ≃ K_{I∖v}, so it takes the groups already kept for the
    smaller mask.  The other subsets, the cores, lie on the support.

    A nonempty core I of s vertices that no facet meets in more than m
    vertices, m = ``complex.support_neighbourliness``, takes a closed
    form.  K_I holds every m-subset of I and no face with more than m
    vertices, so it is the full (min(s, m) - 1)-skeleton on I: for s ≤ m
    the simplex on I, with no groups, and for s > m a complex whose one
    group is H̃^{m-1} = Z^{C(s-1, m)}, free, so the same rank over every
    coefficient system (``homology.skeleton_groups``, tabulated by s).
    Only facets with more than m vertices can meet I in more, so they
    are listed once.

    Every other core, I = ∅ included, cuts K's facets down to I: when I
    itself is one of them K_I is a simplex and has no groups, and
    otherwise those facets make a ``ChainComplex``, which has no groups
    if it is a cone.
    """
    parse_coefficients(coeffs)
    n = complex.n
    if n > MAX_DECOMPOSITION_VERTICES:
        raise ValueError(f"decomposition over 2^{n} subsets refused "
                         f"(limit {MAX_DECOMPOSITION_VERTICES} vertices)")
    neighbourhoods = None
    if complex.is_flag:
        neighbourhoods = {1 << v: closed for v, closed
                          in enumerate(complex.closed_neighbourhoods)}
    support, facets = complex.support, complex.facets
    m = complex.support_neighbourliness
    big = [f for f in facets if f.bit_count() > m]
    # the nonzero groups of the full (min(s, m) - 1)-skeleton, by s
    closed = [tuple((d, g) for d, g in skeleton_groups(s, min(s, m)).items()
                    if not g.is_zero) for s in range(n + 1)]
    # (d, H̃^d(K_I)) for the nonzero groups, ascending in d, by mask >> 1
    groups_of = [()] * (1 << n)
    summands = []
    for bits in range(1 << n):
        mask = bits << 1
        removable = _removable_vertex(mask, support, neighbourhoods)
        if removable:
            groups = groups_of[(mask ^ removable) >> 1]
        elif mask and not any((f & mask).bit_count() > m for f in big):
            groups = closed[mask.bit_count()]
        else:
            restricted = {f & mask for f in facets}
            if mask and mask in restricted:
                continue    # K_I is the simplex on I
            chain = ChainComplex(restricted)    # a cone has no groups
            groups = () if chain.apex else tuple(
                (d, g) for d, g in chain.cohomology(coeffs).items()
                if not g.is_zero)
        if groups:
            groups_of[bits] = groups
            shift = mask.bit_count() + 1
            summands.append(HochsterSummand(
                mask, [(d + shift, g) for d, g in groups]))
    return summands


def _removable_vertex(mask, support, neighbourhoods):
    """The bit of a vertex v with K_I ≃ K_{I∖v} for I = ``mask``, or 0.

    A ghost vertex (off the support) is removable in any complex, since
    K_I and K_{I∖v} are equal.  On a flag complex v is also removable when
    some other w in I has N[v] ∩ I ⊆ N[w]: then every facet of K_I through
    v contains w, so v is dominated and deleting it is a strong collapse
    (Barmak–Minian).  ``neighbourhoods`` maps a vertex bit to its closed
    neighbourhood N[v], and is ``None`` for a non-flag complex.
    """
    ghosts = mask & ~support
    if ghosts:
        return ghosts & -ghosts
    if neighbourhoods is None:
        return 0
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        # the common neighbours of N[v] ∩ I, narrowed until only v is left
        common = neighbourhoods[bit] & mask
        others = common ^ bit
        while others and common != bit:
            u = others & -others
            others ^= u
            common &= neighbourhoods[u]
        if common != bit:
            return bit
    return 0


def poincare_series(complex, field):
    """Degreewise ranks of H^*(Z_K) over a field, from the decomposition."""
    kind, _ = parse_coefficients(field)
    if kind == "Z":
        raise ValueError("poincare_series needs field coefficients; "
                         "use 'Q' or 'Fp'")
    return series_from_decomposition(hochster_decomposition(complex, field))


def series_from_decomposition(summands):
    """Free-rank Poincaré series of an existing decomposition."""
    ranks = {}
    for summand in summands:
        for degree, group in summand.shifted_groups:
            ranks[degree] = ranks.get(degree, 0) + group.rank
    return PoincareSeries(ranks)


class WedgeModel:
    """Candidate wedge decomposition: the Hochster summand Σ^{|I|+1}|K_I|
    of each contributing I ≠ ∅.

    ``is_complete`` means every summand is a wedge of spheres
    (``HochsterSummand.is_spheres``), so the whole model is one big wedge.
    """

    def __init__(self, summands):
        self.summands = list(summands)
        self.is_complete = all(s.is_spheres for s in self.summands)

    @property
    def sphere_degrees(self):
        out = []
        for s in self.summands:
            out.extend(s.sphere_degrees)
        return sorted(out)

    def series(self):
        """Series of the wedge: the summands' ranks plus the basepoint unit."""
        series = series_from_decomposition(self.summands)
        series.ranks[0] = series.rank(0) + 1
        return series

    def as_dict(self):
        summands = []
        for s in self.summands:
            summands.append(s.as_dict())
            if s.is_spheres:
                summands[-1]["spheres"] = s.sphere_degrees
        return {"summands": summands,
                "is_complete": self.is_complete,
                "spheres": self.sphere_degrees if self.is_complete else None}


def wedge_model(complex, coeffs="Z"):
    """Wedge decomposition read off the Hochster summands.

    Filters out the unit (I = ∅); summands that are not wedges of
    spheres (with torsion, or free in degrees two or more apart) are kept
    but flagged, and make the model incomplete.
    """
    return WedgeModel(s for s in hochster_decomposition(complex, coeffs)
                      if s.subset_mask)


# ----------------------------------------------------------------------
# independent oracle via the exterior-algebra differential


MAX_ORACLE_VERTICES = 8


def koszul_oracle(complex, field, max_total_degree):
    """Ranks of Tor of the face ring against the residue field.

    Computes homology of k[K] ⊗ Λ[u_1..u_n] with d(u_i) = v_i, graded by
    total degree (|v_i| = 2, |u_i| = 1).  The complex splits by monomial
    multidegree; a block is indexed by the support S of the multidegree
    and its doubled part T, with basis {σ ⊆ S : (S∖σ) ∪ T ∈ K} and
    differential dropping one exterior factor at a time when the support
    stays a face.  Blocks with the same (S, T) differ only in how the
    excess exponent q distributes over T, contributing the same homology
    with multiplicity C(q-1, |T|-1).

    Raises TruncationError unless max_total_degree reaches the a-priori
    top degree n + dim K + 1 of the decomposition.
    """
    kind, p = parse_coefficients(field)
    if kind == "Z":
        raise ValueError("the oracle works over a field; use 'Q' or 'Fp'")
    n = complex.n
    if n > MAX_ORACLE_VERTICES:
        raise ValueError(f"oracle limited to {MAX_ORACLE_VERTICES} vertices")
    top_needed = n + complex.dim + 1
    if max_total_degree < top_needed:
        raise TruncationError(
            f"truncation {max_total_degree} cannot cover the decomposition "
            f"top degree {top_needed}")

    ranks = {0: 0}
    faces = complex.faces
    vertices = list(range(1, n + 1))
    for s_size in range(n + 1):
        for s_verts in combinations(vertices, s_size):
            s_mask = vertex_mask(s_verts)
            for t_size in range(s_size + 1):
                for t_verts in combinations(s_verts, t_size):
                    t_mask = vertex_mask(t_verts)
                    if t_mask not in faces:
                        continue
                    block = _block_homology(faces, s_verts, s_mask,
                                            t_mask, p)
                    if not any(block):
                        continue
                    _accumulate(ranks, block, s_size, t_size,
                                max_total_degree)
    return PoincareSeries(ranks).truncate(max_total_degree)


def _block_homology(faces, s_verts, s_mask, t_mask, p):
    """Per-exterior-degree homology ranks of one (S, T) block of the
    complex whose face set is ``faces``."""
    s_size = len(s_verts)
    chains = [[] for _ in range(s_size + 1)]
    for bits in range(1 << s_size):
        sigma = 0
        for i, v in enumerate(s_verts):
            if bits >> i & 1:
                sigma |= 1 << v
        if ((s_mask ^ sigma) | t_mask) in faces:
            chains[sigma.bit_count()].append(sigma)
    sorted_chains = [sorted(level) for level in chains]
    index = [{sig: i for i, sig in enumerate(level)}
             for level in sorted_chains]

    def differential(deg):
        # maps exterior degree `deg` down to `deg - 1`, one row per
        # degree-`deg` basis element (the transpose, which has the same
        # rank); a smaller σ is a basis element of degree `deg - 1`
        # exactly when its support stays a face
        lower = index[deg - 1]
        rows = []
        for sigma in sorted_chains[deg]:
            row = [0] * len(lower)
            sign = 1
            for v in mask_vertices(sigma):
                k = lower.get(sigma ^ (1 << v))
                if k is not None:
                    row[k] = sign
                sign = -sign
            rows.append(row)
        return rows

    from momentangle.linalg import field_rank

    rank_down = [0] * (s_size + 2)
    for deg in range(1, s_size + 1):
        if sorted_chains[deg] and sorted_chains[deg - 1]:
            rank_down[deg] = field_rank(differential(deg), p)
    return [len(sorted_chains[deg]) - rank_down[deg] - rank_down[deg + 1]
            for deg in range(s_size + 1)]


def _accumulate(ranks, block, s_size, t_size, max_total):
    """Fold one block's homology into the series over all excesses q."""
    if t_size == 0:
        excesses = [(0, 1)]
    else:
        excesses = []
        q = t_size
        while s_size + 2 * q <= max_total:
            excesses.append((q, math.comb(q - 1, t_size - 1)))
            q += 1
    for q, multiplicity in excesses:
        for deg, h in enumerate(block):
            if h:
                total = 2 * (s_size + q) - deg
                if total <= max_total:
                    ranks[total] = ranks.get(total, 0) + h * multiplicity
