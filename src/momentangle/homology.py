"""Reduced simplicial homology and cohomology with exact coefficients.

The chain complex always includes the empty face in degree -1, so every
computation here is reduced: the complex {∅} has H̃_{-1} = k and a complex
with a vertex has H̃_{-1} = 0, with no special-casing anywhere.

Coefficients are named by strings: "Z", "Q", or "Fp" for a prime p (e.g.
"F2").  Integer results carry torsion; field results are plain ranks.
The cohomology side also provides canonical bases, so maps induced by
subcomplex inclusions become honest matrices that compose correctly.
Every coefficient system reads its basis off one integral presentation,
the Smith forms of the coboundaries (``CochainCalculator``).

``ChainComplex`` is the one per-mask record: built from K's facets cut
down to I, it holds the faces of K_I, its cone apex, dimension, support
neighbourliness and table of integral cohomology, with no K_I built.

``InducedMap`` reads such a map off the calculators of both complexes.
The pair maps into a join K_I * K_J never need the join's calculator: by
Künneth they are read from the factors' cached classes, as cross
products and Tor classes (``golod.CrossProductMap``), and over ``Z``
``torsion_primitives`` gives the cochains the Tor classes are built from.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property, reduce
from operator import or_

from momentangle.complexes import (
    iter_submasks,
    mask_vertices,
    neighbourliness_from_counts,
)
from momentangle.linalg import IntMatrix, rank_mod_p, smith_normal_form
# Unused here (every coefficient system is read off the integral Smith
# forms), but the benchmark's tracer wraps these module attributes by name.
from momentangle.linalg import field_echelon, field_nullspace, field_solve  # noqa: F401


def parse_coefficients(label):
    """Split a coefficient label into ('Z'|'Q'|'F', p or None)."""
    if label == "Z":
        return "Z", None
    if label == "Q":
        return "Q", None
    if isinstance(label, str) and label.startswith("F"):
        try:
            p = int(label[1:])
        except ValueError:
            p = 0
        if p >= 2 and all(p % q for q in range(2, int(p ** 0.5) + 1)):
            return "F", p
    raise ValueError(f"unknown coefficient field {label!r}; "
                     "use 'Z', 'Q', or 'Fp' with p prime")


DEFAULT_BATTERY = ("Z", "Q", "F2", "F3", "F5")


class HomologyGroup:
    """A finitely generated abelian group: free rank plus cyclic torsion."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank, torsion=()):
        self.rank = rank
        self.torsion = tuple(torsion)

    @property
    def is_zero(self):
        return self.rank == 0 and not self.torsion

    def as_dict(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}

    def __eq__(self, other):
        return (isinstance(other, HomologyGroup)
                and self.rank == other.rank and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        if self.is_zero:
            return "HomologyGroup(0)"
        parts = []
        if self.rank:
            parts.append(f"rank={self.rank}")
        if self.torsion:
            parts.append(f"torsion={self.torsion}")
        return f"HomologyGroup({', '.join(parts)})"


_ZERO_GROUP = HomologyGroup(0)


def face_levels(faces):
    """Faces by vertex count: entry k lists the faces with k vertices, in
    increasing mask order, up to the largest face."""
    ordered = sorted(faces)
    levels = [[] for _ in range(max(map(int.bit_count, ordered)) + 1)]
    for f in ordered:
        levels[f.bit_count()].append(f)
    return levels


def _boundary_matrix(sources, target_index):
    """∂ from the faces ``sources`` (columns, in order) to the faces one
    vertex smaller (rows, by ``target_index``), with alternating signs
    along ascending vertex order."""
    matrix = IntMatrix(len(target_index), len(sources))
    rows, cols = matrix.rows, matrix.cols
    for j, f in enumerate(sources):
        occupied = set()
        sign, rest = 1, f
        while rest:
            bit = rest & -rest
            rest ^= bit
            t = target_index[f ^ bit]
            rows.setdefault(t, {})[j] = sign
            occupied.add(t)
            sign = -sign
        if occupied:
            cols[j] = occupied
    return matrix


class ChainComplex:
    """The reduced chain complex of the complex whose faces are the
    submasks of ``masks``: a complex's ``facets``, or K's facets cut down
    to I for the full subcomplex K_I.

    It holds ``support``, ``apex`` (the vertices every facet shares,
    nonzero exactly for a cone) and the faces by degree (``levels``:
    degree d holds the faces with d+1 vertices, sorted by mask value),
    which a cone sorts, and a simplex lists, only when they are read.
    ``dim`` and ``support_neighbourliness`` are read off the levels, and
    the table of integral cohomology (``integral_groups``), with the
    ``connectivity`` it fixes, is built on first use.
    ``boundary_matrix(d)`` maps degree d to degree d-1 with alternating
    signs along ascending vertex order; the boundary of a vertex is the
    empty face, which makes homology reduced.
    """

    def __init__(self, masks):
        self._index = {}
        order = sorted(masks, key=int.bit_count, reverse=True)
        self.support = reduce(or_, order)
        if order[0] == self.support:
            # a simplex, so a cone on each of its vertices, whose faces
            # are all the subsets of its support
            self.apex = self.support
            return
        faces, self.apex = _restricted_faces(order)
        if self.apex:
            self._cone_faces = faces
        else:
            # set here, these shadow the properties that read a cone's faces
            self.levels = face_levels(faces)
            self.support_neighbourliness = neighbourliness_from_counts(
                [len(level) for level in self.levels])

    @cached_property
    def levels(self):
        """A cone's faces by vertex count (``face_levels``), sorted only
        when first read."""
        faces = self.__dict__.pop("_cone_faces", None)
        return face_levels(iter_submasks(self.apex) if faces is None else faces)

    @cached_property
    def support_neighbourliness(self):
        return neighbourliness_from_counts([len(level) for level in self.levels])

    @property
    def dim(self):
        return len(self.levels) - 2

    def faces(self, d):
        levels = self.levels
        return levels[d + 1] if 0 <= d + 1 < len(levels) else []

    def face_index(self, d):
        if d not in self._index:
            self._index[d] = {f: i for i, f in enumerate(self.faces(d))}
        return self._index[d]

    def boundary_matrix(self, d):
        """The map C_d -> C_{d-1} as an integer matrix."""
        return _boundary_matrix(self.faces(d), self.face_index(d - 1))

    def differential_squares_to_zero(self):
        return all((self.boundary_matrix(d) @ self.boundary_matrix(d + 1)).is_zero
                   for d in range(-1, self.dim + 1))

    def cohomology(self, coeffs):
        """H̃^d(K) over ``coeffs`` for every d in
        ``homology_degree_window``: outside it H̃^d vanishes."""
        return _reduced_groups(self.levels, coeffs,
                               homology_degree_window(self), cohomology=True)

    @cached_property
    def integral_groups(self):
        """``cohomology("Z")``, ascending in d."""
        return self.cohomology("Z")

    @property
    def connectivity(self):
        """The largest h with H̃_i(K; Z) = 0 for every i ≤ h (∞ for a cone
        or an acyclic complex), by universal coefficients: H̃^e is the free
        part of H̃_e plus the torsion of H̃_{e-1}, so at the first e with
        H̃^e ≠ 0, h = e - 2 if H̃^e has torsion and e - 1 if not."""
        if self.apex:
            return math.inf
        for d, group in self.integral_groups.items():
            if not group.is_zero:
                return d - (2 if group.torsion else 1)
        return math.inf


def _restricted_faces(order):
    """The faces of the complex whose facets lie among the masks
    ``order``, listed largest first, and the vertices its facets share.

    A mask already seen is skipped: it lies in a larger one.  So the
    masks met unseen are exactly the facets, with no antichain pruning,
    and a nonzero intersection of them is the apex set of a cone.
    """
    faces, apex = set(), -1
    for f in order:
        if f not in faces:
            apex &= f
            faces.update(iter_submasks(f))
    return faces, apex


def _spanning_forest_size(edges):
    """The number of edges in a spanning forest of the graph whose edges
    are the two-bit masks ``edges``: its vertex count minus its number of
    connected components, counted by union-find on the vertex bits."""
    parent = {}

    def root(v):
        while v in parent:
            up = parent[v]
            grand = parent.get(up, up)
            parent[v] = grand   # path halving
            v = grand
        return v

    joined = 0
    for edge in edges:
        low = edge & -edge
        a, b = root(low), root(edge ^ low)
        if a != b:
            parent[a] = b
            joined += 1
    return joined


def _reduced_groups(levels, coeffs, degree_range, cohomology):
    """Groups in degrees lo..hi (default -1..dim) of the complex whose
    faces are ``levels`` (see ``face_levels``), from the ranks of
    ∂_lo .. ∂_{hi+1}.

    This is the one routine from faces to groups: ``reduced_homology``
    and ``reduced_cohomology`` pass a complex's faces, and
    ``ChainComplex.cohomology`` its levels.  A boundary matrix is
    built only for a ∂_d with d ≥ 2 and faces on both sides; a ∂_d with
    no source or no target faces has rank 0.

    The two lowest boundaries need no matrix.  ∂_0 sends every vertex to
    the empty face, so it has rank 1 and cokernel 0.  ∂_1 is the
    incidence matrix of the graph of vertices and edges.  Peeling the
    leaves of a spanning forest one at a time pairs each forest edge with
    the vertex it hangs, so against the other vertices, one root per
    component, the forest's columns are triangular with ±1 on the
    diagonal.  Any other edge's column is a signed sum of forest columns,
    along the forest path between its ends.  So rank ∂_1 = V − c, with c
    the number of connected components (``_spanning_forest_size``), and
    the cokernel is free of rank c over ``Z`` and over every field: the
    rank and invariant factors (all 1) that a Smith form or a rank mod p
    would give.

    Integral torsion of H̃_d is that of coker ∂_{d+1}; the coboundary out
    of degree d is the transpose of ∂_{d+1}, so torsion of H̃^d is that of
    coker ∂_d (transposition preserves rank and invariant factors).

    A complex whose s-vertex support has all C(s, lo+1) of its
    (lo+1)-subsets as faces shares the simplex's chain groups through
    degree lo, so when the range starts at lo the bottom boundary matrix
    is the full simplex boundary, whose rank is C(s-1, lo) over every
    coefficient ring with free cokernel.  That known rank replaces the one
    large matrix in the otherwise-sparse window of
    ``homology_degree_window``, which starts at m - 1 for a complex with
    the full (m-1)-skeleton.
    """
    kind, p = parse_coefficients(coeffs)
    lo, hi = degree_range if degree_range else (-1, len(levels) - 2)
    lo = max(lo, -1)

    def faces(d):
        return levels[d + 1] if 0 <= d + 1 < len(levels) else ()

    ranks, torsion = {}, {}
    if 0 <= lo < len(levels) - 1:
        s = len(levels[1])
        if len(levels[lo + 1]) == math.comb(s, lo + 1):
            ranks[lo] = math.comb(s - 1, lo)
            torsion[lo] = ()
    for d in range(lo, hi + 2):
        if d in ranks:
            continue
        sources, targets = faces(d), faces(d - 1)
        if not (sources and targets):
            ranks[d], torsion[d] = 0, ()
            continue
        if d < 2:
            ranks[d] = 1 if d == 0 else _spanning_forest_size(sources)
            torsion[d] = ()
            continue
        matrix = _boundary_matrix(sources,
                                  {f: i for i, f in enumerate(targets)})
        if kind == "F":
            ranks[d], torsion[d] = rank_mod_p(matrix, p), ()
        else:
            form = smith_normal_form(matrix)
            ranks[d] = form.rank
            torsion[d] = form.torsion if kind == "Z" else ()
    source = 0 if cohomology else 1
    return {d: HomologyGroup(len(faces(d)) - ranks[d] - ranks[d + 1],
                             torsion[d + source])
            for d in range(lo, hi + 1)}


def reduced_homology(complex, coeffs="Z", degree_range=None):
    """Reduced homology groups by degree, over the named coefficients.

    Returns {degree: HomologyGroup} for degrees in the range (default
    -1..dim).  Field coefficients yield torsion-free groups whose rank
    is the vector-space dimension.
    """
    return _reduced_groups(face_levels(complex.faces), coeffs, degree_range,
                           cohomology=False)


def reduced_cohomology(complex, coeffs="Z", degree_range=None):
    """Reduced cohomology groups by degree, computed from coboundaries."""
    return _reduced_groups(face_levels(complex.faces), coeffs, degree_range,
                           cohomology=True)


def homology_degree_window(complex):
    """Degree range outside which reduced homology provably vanishes, for
    a complex or chain complex.

    A complex containing the full (m-1)-skeleton on its support has the
    chain groups of a simplex through degree m-1, so reduced homology
    vanishes below degree m-1.  Returns (lo, hi) suitable for
    ``degree_range``; hi is just the dimension.
    """
    m = complex.support_neighbourliness
    return max(m - 1, -1), complex.dim


class CochainCalculator:
    """Canonical bases for the reduced cohomology of one complex.

    For each degree the cohomology group is presented by an ordered list
    of generators with ``orders`` (0 for a free generator, e > 1 for a
    torsion generator of order e), and any cocycle can be expressed in
    class coordinates against that basis — reduced modulo the orders, so
    two cocycles are cohomologous exactly when their coordinates agree.

    Every coefficient system is read off one integral presentation, two
    Smith forms per degree d: ``out``, that of δ_d (rank r, factors d_i,
    transforms V and V⁻¹), and ``rel``, that of rows r.. of V⁻¹δ_{d-1},
    the coboundaries in kernel coordinates (orders e_j padded with 0,
    transform U).  For a cochain c let w = V⁻¹c and y = U·w_{≥r}.  By
    universal coefficients:

    - over ``Z`` the kept e_j are those ≠ 1, with coordinates y_j mod e_j;
    - over ``Q`` they are the e_j = 0, with coordinates y_j;
    - over ``F_p`` the generators are first V·e_i for each i < r with
      p | d_i (the Tor part: its coboundary is d_i times a column of
      ``out``'s row transform, so 0 mod p), then the e_j divisible by p;
      the coordinates are those w_i, then those y_j, mod p, and c is a
      cocycle mod p exactly when w_i ≡ 0 at every other i < r.

    The complex is given as in ``ChainComplex``: a complex's ``facets``,
    or K's facets cut down to I for K_I.  ``over(coeffs)`` gives the
    calculator over other coefficients that shares the chain complex, the
    coboundaries and the Smith forms.  The chain complex's table of
    integral groups (``integral_group``) comes from rank-only Smith
    forms, so ``generator_count`` tells how many generators a degree has
    without building any transform.  Intended for small complexes.
    """

    __slots__ = ("chain", "coeffs", "kind", "p",
                 "_coboundaries", "_forms", "_readings")

    def __init__(self, masks, coeffs="Z"):
        self.chain = ChainComplex(masks)
        self.coeffs = coeffs
        self.kind, self.p = parse_coefficients(coeffs)
        self._coboundaries = {}
        self._forms = {}
        self._readings = {}

    def over(self, coeffs):
        """This complex's calculator over ``coeffs``, sharing this one's
        chain complex, coboundaries and Smith forms."""
        if coeffs == self.coeffs:
            return self
        other = copy.copy(self)
        other.coeffs = coeffs
        other.kind, other.p = parse_coefficients(coeffs)
        other._readings = {}
        return other

    def degrees(self):
        return range(-1, self.chain.dim + 1)

    def faces(self, d):
        return self.chain.faces(d)

    def face_index(self, d):
        return self.chain.face_index(d)

    def coboundary_matrix(self, d):
        if d not in self._coboundaries:
            self._coboundaries[d] = self.chain.boundary_matrix(d + 1).transpose()
        return self._coboundaries[d]

    # -- presentation ---------------------------------------------------

    def _form(self, d):
        """The Smith forms ``out`` and ``rel`` of degree d, with the
        orders e_j of ``rel`` padded to the kernel's rank."""
        if d in self._forms:
            return self._forms[d]
        out = smith_normal_form(self.coboundary_matrix(d), keep_transforms=True)
        r = out.rank
        kernel_dim = len(self.faces(d)) - r
        # kernel coordinates of a cocycle c are the last entries of V^-1 c,
        # so those of every coboundary image are rows r.. of V^-1 δ_{d-1}
        prev = self.coboundary_matrix(d - 1)
        images = out.V_inv @ prev
        assert all(row >= r for row in images.rows), \
            "coboundary image escaped the cocycle space"
        relations = IntMatrix(kernel_dim, prev.num_cols)
        relations.rows = {row - r: vals for row, vals in images.rows.items()}
        relations.cols = {col: {row - r for row in occ}
                          for col, occ in images.cols.items()}
        rel = smith_normal_form(relations, keep_transforms=True)
        orders = list(rel.diagonal) + [0] * (kernel_dim - rel.rank)
        # only out.V, out.V_inv and rel's U, U_inv and V are read
        out.U = out.U_inv = rel.V_inv = None
        self._forms[d] = out, rel, orders
        return self._forms[d]

    def _reading(self, d):
        """Which w and y coordinates make up the group over ``coeffs``:
        the w_i that a cocycle has at 0, the Tor w_i, the kept y_j, the
        generators, their orders and the modulus of each coordinate."""
        if d in self._readings:
            return self._readings[d]
        out, rel, orders = self._form(d)
        r, p = out.rank, self.p
        if p:
            vanish = [i for i, f in enumerate(out.diagonal) if f % p]
            tor = [i for i, f in enumerate(out.diagonal) if f % p == 0]
            kept = [j for j, e in enumerate(orders) if e % p == 0]
        else:
            vanish, tor = range(r), []
            kept = [j for j, e in enumerate(orders)
                    if (e == 0 if self.kind == "Q" else e != 1)]
        generators = ([out.V.column(i) for i in tor]
                      + [out.V.apply([0] * r + rel.U_inv.column(j))
                         for j in kept])
        if p:
            generators = [[v % p for v in g] for g in generators]
            group_orders = (0,) * len(generators)
            moduli = [p] * len(generators)
        else:
            group_orders = moduli = tuple(orders[j] for j in kept)
        self._readings[d] = {"vanish": vanish, "tor": tor, "kept": kept,
                             "generators": generators,
                             "orders": group_orders, "moduli": moduli}
        return self._readings[d]

    def orders(self, d):
        return self._reading(d)["orders"]

    def generators(self, d):
        return self._reading(d)["generators"]

    def torsion_primitives(self, d):
        """``(α, e, a)`` for each torsion generator α of H̃^d over ``Z``:
        its order e and a cochain a ∈ C^{d-1} with δa = e·α.

        a is column j of ``rel``'s transform V: ``out``'s V⁻¹δ_{d-1} has no
        rows above r, and ``rel`` diagonalises rows r.., so δ_{d-1} sends
        that column to e_j times generator j.  Empty over a field.
        """
        if self.kind != "Z":
            return []
        _, rel, orders = self._form(d)
        reading = self._reading(d)
        return [(alpha, orders[j], rel.V.column(j))
                for j, alpha in zip(reading["kept"], reading["generators"])
                if orders[j] > 1]

    def integral_group(self, d):
        """H̃^d(K; Z) from the chain complex's table; zero outside its
        window."""
        return self.chain.integral_groups.get(d, _ZERO_GROUP)

    def generator_count(self, d):
        """``len(self.orders(d))``, by universal coefficients from the
        integral groups: over ``Z`` the rank plus the torsion factors,
        over ``Q`` the rank, and over ``F_p`` the rank plus the factors
        divisible by p of H̃^d and of H̃^{d+1} (the Tor part)."""
        group = self.integral_group(d)
        if self.kind == "Z":
            return group.rank + len(group.torsion)
        if self.kind == "Q":
            return group.rank
        return group.rank + sum(
            1 for e in group.torsion + self.integral_group(d + 1).torsion
            if e % self.p == 0)

    def group(self, d):
        orders = self.orders(d)
        return HomologyGroup(sum(1 for e in orders if e == 0),
                             [e for e in orders if e > 1])

    def is_cocycle(self, d, vector):
        image = self.coboundary_matrix(d).apply(vector)
        if self.p:
            return all(v % self.p == 0 for v in image)
        return not any(image)

    def class_coordinates(self, d, vector):
        """Coordinates of a cocycle's class against the canonical basis.

        Torsion coordinates are reduced into [0, order), and coordinates
        over ``F_p`` into [0, p); a class is zero exactly when all
        coordinates are zero.
        """
        out, rel, _ = self._form(d)
        reading = self._reading(d)
        p = self.p
        w = out.V_inv.apply(vector)
        if any(w[i] % p if p else w[i] for i in reading["vanish"]):
            raise ValueError("vector is not a cocycle")
        y = rel.U.apply(w[out.rank:])
        coords = ([w[i] for i in reading["tor"]]
                  + [y[j] for j in reading["kept"]])
        return tuple(c % m if m else c
                     for c, m in zip(coords, reading["moduli"]))


class GradedMap:
    """Zero tests of a map on cohomology, read off its ``matrix(d)`` over
    its ``degrees()``."""

    def is_zero_in_degree(self, d):
        return all(not v for row in self.matrix(d) for v in row)

    @property
    def is_zero(self):
        return all(self.is_zero_in_degree(d) for d in self.degrees())

    def nonzero_degrees(self):
        return [d for d in self.degrees() if not self.is_zero_in_degree(d)]


class InducedMap(GradedMap):
    """Cohomology map induced by a subcomplex inclusion L ⊆ M.

    Cochain restriction induces H^d(M) -> H^d(L) in every degree; this
    stores the matrix of that map against the canonical bases of the two
    CochainCalculators, with entries reduced modulo target orders.
    ``matrix(d)[i][j]`` is coordinate i of the image of M's generator j.
    A face of L that is not one of M raises ``ValueError``.
    """

    def __init__(self, sub_calculator, ambient_calculator):
        if sub_calculator.coeffs != ambient_calculator.coeffs:
            raise ValueError("coefficient mismatch between calculators")
        for d in sub_calculator.degrees():
            ambient_index = ambient_calculator.face_index(d)
            for f in sub_calculator.faces(d):
                if f not in ambient_index:
                    raise ValueError(f"{mask_vertices(f)} is not a face "
                                     "of the ambient complex")
        self.sub = sub_calculator
        self.ambient = ambient_calculator
        self.coeffs = sub_calculator.coeffs
        self._matrices = {}

    def degrees(self):
        top = max(self.sub.chain.dim, self.ambient.chain.dim)
        return range(-1, top + 1)

    def matrix(self, d):
        if d in self._matrices:
            return self._matrices[d]
        target_orders = self.sub.orders(d) if d <= self.sub.chain.dim else ()
        columns = []
        if d <= self.ambient.chain.dim:
            ambient_index = self.ambient.face_index(d)
            sub_faces = self.sub.faces(d)
            for gen in self.ambient.generators(d):
                restricted = [gen[ambient_index[f]] for f in sub_faces]
                columns.append(self.sub.class_coordinates(d, restricted)
                               if target_orders else ())
        rows = [[col[i] for col in columns] for i in range(len(target_orders))]
        self._matrices[d] = rows
        return rows


def hurewicz_applies(complex):
    """True when the complex or chain complex contains the full
    2-skeleton on its support.

    That forces simple connectivity, so the Hurewicz theorem promotes
    vanishing homology to vanishing homotopy.
    """
    return complex.support_neighbourliness >= 3


def connectivity_certificate(complex):
    """Largest c with H̃_i(ZZ) = 0 for all i <= c, plus a provenance flag
    (the differential oracle of ``ChainComplex.connectivity``).

    Cones are contractible, giving (inf, "topological") outright.
    Otherwise integral homology is scanned upward from the bottom of
    ``homology_degree_window``, below which it provably vanishes.  The
    flag is "topological" when ``hurewicz_applies``, and "homology-only"
    with fewer than all triangles present.
    """
    if complex.is_cone:
        return math.inf, "topological"
    flag = "topological" if hurewicz_applies(complex) else "homology-only"
    lo, hi = homology_degree_window(complex)
    groups = reduced_homology(complex, "Z", (lo, hi))
    for d in range(lo, hi + 1):
        if not groups[d].is_zero:
            return d - 1, flag
    return math.inf, flag
