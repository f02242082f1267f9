"""Reduced simplicial homology and cohomology with exact coefficients.

The chain complex always includes the empty face in degree -1, so every
computation here is reduced: the complex {∅} has H̃_{-1} = k and a complex
with a vertex has H̃_{-1} = 0, with no special-casing anywhere.

Coefficients are named by strings: "Z", "Q", or "Fp" for a prime p below
2^31 in ASCII digits with no leading zero (e.g. "F2"), one label per field.
Integer results carry torsion; field results are plain ranks.
The cohomology side also provides canonical bases, so maps induced by
subcomplex inclusions become honest matrices that compose correctly.
Every coefficient system reads its basis off one integral presentation,
the Smith forms of the coboundaries (``CochainCalculator``).

``ChainComplex`` extends the one face record, ``complexes.FaceRecord``,
with boundaries and cohomology: built from K's facets cut down to I, it
reads K_I's faces, apex, dimension and neighbourliness off the record
and adds its table of integral cohomology, with no K_I built; a full
skeleton takes its one group from a formula and lists no face.
``reduced_homology`` and ``reduced_cohomology`` read the levels of a
complex's record.  ``CochainCalculator`` is a ``ChainComplex`` that
also keeps the coboundaries, their Smith forms and its class counts;
each of its readings takes the coefficients as an argument, so one
calculator per mask serves every coefficient system.

``InducedMap`` reads such a map off the calculators of both complexes.
The pair maps into a join K_I * K_J never need the join's calculator: by
Künneth they are read from the factors' cached classes, as cross
products and Tor classes (``golod.CrossProductMap``), and over ``Z``
``torsion_primitives`` gives the cochains the Tor classes are built from.
"""

from __future__ import annotations

import math
from functools import cache, cached_property

from momentangle.complexes import FaceRecord, mask_vertices
from momentangle.linalg import IntMatrix, rank_mod_p, smith_normal_form
# Unused here (every coefficient system is read off the integral Smith
# forms), but the benchmark's tracer wraps these module attributes by name.
from momentangle.linalg import field_echelon, field_nullspace, field_solve  # noqa: F401


# Bound on a prime field's p: a larger label is refused, not tested.
MAX_FIELD_PRIME = 1 << 31


def parse_coefficients(label):
    """Split a coefficient label into ('Z'|'Q'|'F', p or None)."""
    if not isinstance(label, str):
        raise ValueError(f"coefficient label {label!r} is not a string; "
                         "use 'Z', 'Q', or 'Fp' with p prime")
    return _parse_label(label)


@cache
def _parse_label(label):
    """``parse_coefficients`` of a string.  Each field has one label, so
    the cache holds one entry per field read; the calculators parse their
    coefficients on every reading."""
    if label == "Z":
        return "Z", None
    if label == "Q":
        return "Q", None
    if label.startswith("F"):
        # ASCII digits with no leading zero, so that one field has one label
        digits = label[1:]
        if digits.isascii() and digits.isdigit() and digits[0] != "0":
            # refused before any division (and a long label before int()),
            # so trial division never passes isqrt(2^31) = 46,340
            if len(digits) > 10 or (p := int(digits)) > MAX_FIELD_PRIME:
                raise ValueError(f"coefficient field {label!r} is too large; "
                                 f"use 'Fp' with a prime p below 2^31")
            if p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1)):
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


def _boundary_matrix(sources, target_index):
    """∂ from the faces ``sources`` (columns, in order) to the faces one
    vertex smaller (rows, by ``target_index``), with alternating signs
    along ascending vertex order."""
    columns = {}
    for j, f in enumerate(sources):
        column = {}
        sign, rest = 1, f
        while rest:
            bit = rest & -rest
            rest ^= bit
            column[target_index[f ^ bit]] = sign
            sign = -sign
        if column:  # the empty face bounds nothing
            columns[j] = column
    # built column by column: the rows of the transpose
    return IntMatrix.from_row_dicts(len(sources), len(target_index),
                                    columns).T


class ChainComplex(FaceRecord):
    """The reduced chain complex of a ``complexes.FaceRecord``, which
    gives its faces, apex, dimension and support neighbourliness;
    ``faces(d)`` lists those of degree d (d + 1 vertices).  A full
    skeleton's ``cohomology`` is ``skeleton_groups(s, k)``, with no face
    listed.  The table of integral cohomology (``integral_groups``), with
    the ``connectivity`` it fixes, is built on first use.
    ``boundary_matrix(d)`` maps degree d to degree d-1 with alternating
    signs along ascending vertex order; the boundary of a vertex is the
    empty face, which makes homology reduced.
    """

    def __init__(self, masks):
        super().__init__(masks)
        self._index = {}

    def faces(self, d):
        """The faces of degree d (d + 1 vertices), in increasing mask order."""
        levels = self.levels
        return levels[d + 1] if 0 <= d + 1 < len(levels) else []

    def face_index(self, d):
        if d not in self._index:
            self._index[d] = {f: i for i, f in enumerate(self.faces(d))}
        return self._index[d]

    def boundary_matrix(self, d):
        """The map C_d -> C_{d-1} as an integer matrix."""
        return _boundary_matrix(self.faces(d), self.face_index(d - 1))

    def cohomology(self, coeffs):
        """H̃^d(K) over ``coeffs`` for every d in
        ``homology_degree_window``: outside it H̃^d vanishes."""
        if self.skeleton is None:
            return _reduced_groups(self.levels, coeffs,
                                   homology_degree_window(self),
                                   cohomology=True)
        parse_coefficients(coeffs)
        return skeleton_groups(self.support.bit_count(), self.skeleton)

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


def skeleton_groups(s, k):
    """H̃^* of the full (k - 1)-skeleton on s vertices, over any
    coefficients: it has the simplex's exact cochains through degree
    k - 1 and none above, so its one group H̃^{k-1} is C^{k-1} modulo
    ker δ, free of rank C(s - 1, k) (0 for the simplex, k = s; for {∅},
    s = 0, H̃^{-1} = Z)."""
    return {k - 1: HomologyGroup(math.comb(s - 1, k) if s else 1)}


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
    faces are ``levels`` (see ``FaceRecord.levels``), from the ranks of
    ∂_lo .. ∂_{hi+1}.

    This is the one routine from faces to groups: ``reduced_homology``,
    ``reduced_cohomology`` and ``ChainComplex.cohomology`` pass the
    levels of a face record.  A boundary matrix is
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
    return _reduced_groups(complex.record.levels, coeffs, degree_range,
                           cohomology=False)


def reduced_cohomology(complex, coeffs="Z", degree_range=None):
    """Reduced cohomology groups by degree, computed from coboundaries."""
    return _reduced_groups(complex.record.levels, coeffs, degree_range,
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


class CochainCalculator(ChainComplex):
    """A chain complex with canonical bases for its reduced cohomology
    over any coefficients.

    Each reading takes the coefficients as an argument.  For each degree
    the cohomology group is presented by an ordered list of generators
    with ``orders`` (0 for a free generator, e > 1 for a torsion
    generator of order e), and any cocycle can be expressed in class
    coordinates against that basis — reduced modulo the orders, so two
    cocycles are cohomologous exactly when their coordinates agree.

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
    or K's facets cut down to I for K_I.  One calculator holds the faces,
    the coboundaries and their Smith forms, and serves every coefficient
    system; its readings are cached by degree and coefficients.  The
    table of integral groups (``integral_group``) comes from rank-only
    Smith forms, and ``class_counts`` reads off it, once per coefficient
    system, how many generators each degree has, with no transform
    built.  Intended for small complexes.
    """

    def __init__(self, masks):
        super().__init__(masks)
        self._coboundaries = {}
        self._forms = {}
        self._readings = {}
        self._counts = {}

    def degrees(self):
        return range(-1, self.dim + 1)

    def coboundary_matrix(self, d):
        if d not in self._coboundaries:
            self._coboundaries[d] = self.boundary_matrix(d + 1).T
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
        relations = IntMatrix.from_row_dicts(
            kernel_dim, prev.num_cols,
            {row - r: vals for row, vals in images.rows.items()})
        rel = smith_normal_form(relations, keep_transforms=True)
        orders = list(rel.diagonal) + [0] * (kernel_dim - rel.rank)
        # only out.V, out.V_inv and rel's U, U_inv and V are read
        out.U = out.U_inv = rel.V_inv = None
        self._forms[d] = out, rel, orders
        return self._forms[d]

    def _reading(self, d, coeffs):
        """Which w and y coordinates make up the group over ``coeffs``:
        the w_i that a cocycle has at 0, the Tor w_i, the kept y_j, the
        generators, their orders and the modulus of each coordinate."""
        key = d, coeffs
        if key in self._readings:
            return self._readings[key]
        kind, p = parse_coefficients(coeffs)
        out, rel, orders = self._form(d)
        r = out.rank
        if p:
            vanish = [i for i, f in enumerate(out.diagonal) if f % p]
            tor = [i for i, f in enumerate(out.diagonal) if f % p == 0]
            kept = [j for j, e in enumerate(orders) if e % p == 0]
        else:
            vanish, tor = range(r), []
            kept = [j for j, e in enumerate(orders)
                    if (e == 0 if kind == "Q" else e != 1)]
        generators = ([out.V.column(i) for i in tor]
                      + [out.V.apply([0] * r + rel.U_inv.column(j))
                         for j in kept])
        if p:
            generators = [[v % p for v in g] for g in generators]
            group_orders = (0,) * len(generators)
            moduli = [p] * len(generators)
        else:
            group_orders = moduli = tuple(orders[j] for j in kept)
        self._readings[key] = {"vanish": vanish, "tor": tor, "kept": kept,
                               "generators": generators,
                               "orders": group_orders, "moduli": moduli}
        return self._readings[key]

    def orders(self, d, coeffs):
        return self._reading(d, coeffs)["orders"]

    def generators(self, d, coeffs):
        return self._reading(d, coeffs)["generators"]

    def torsion_primitives(self, d):
        """``(α, e, a)`` for each torsion generator α of H̃^d over ``Z``:
        its order e and a cochain a ∈ C^{d-1} with δa = e·α.

        a is column j of ``rel``'s transform V: ``out``'s V⁻¹δ_{d-1} has no
        rows above r, and ``rel`` diagonalises rows r.., so δ_{d-1} sends
        that column to e_j times generator j.
        """
        _, rel, orders = self._form(d)
        reading = self._reading(d, "Z")
        return [(alpha, orders[j], rel.V.column(j))
                for j, alpha in zip(reading["kept"], reading["generators"])
                if orders[j] > 1]

    def integral_group(self, d):
        """H̃^d(K; Z) from the table of integral groups; zero outside its
        window."""
        return self.integral_groups.get(d, _ZERO_GROUP)

    def class_counts(self, coeffs):
        """``{d: len(self.orders(d, coeffs))}`` over the degrees with
        generators, ascending, tabulated once per coefficient system by
        universal coefficients from the integral groups: the rank, plus
        over ``Z`` the torsion factors and over ``F_p`` the factors
        divisible by p of H̃^d and of H̃^{d+1} (the Tor part)."""
        if coeffs not in self._counts:
            kind, p = parse_coefficients(coeffs)
            counts = self._counts[coeffs] = {}
            for d, group in self.integral_groups.items():
                factors = group.torsion if kind == "Z" else [
                    e for e in group.torsion + self.integral_group(d + 1).torsion
                    if p and e % p == 0]
                if group.rank or factors:
                    counts[d] = group.rank + len(factors)
        return self._counts[coeffs]

    def group(self, d, coeffs):
        orders = self.orders(d, coeffs)
        return HomologyGroup(sum(1 for e in orders if e == 0),
                             [e for e in orders if e > 1])

    def class_coordinates(self, d, vector, coeffs):
        """Coordinates over ``coeffs`` of a cocycle's class against the
        canonical basis.

        Torsion coordinates are reduced into [0, order), and coordinates
        over ``F_p`` into [0, p); a class is zero exactly when all
        coordinates are zero.
        """
        out, rel, _ = self._form(d)
        reading = self._reading(d, coeffs)
        p = parse_coefficients(coeffs)[1]
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
    stores the matrix of that map over ``coeffs`` against the canonical
    bases of the two calculators, with entries reduced modulo target
    orders.  ``matrix(d)[i][j]`` is coordinate i of the image of M's
    generator j.  A face of L that is not one of M raises ``ValueError``.
    """

    def __init__(self, sub_calculator, ambient_calculator, coeffs):
        for d in sub_calculator.degrees():
            ambient_index = ambient_calculator.face_index(d)
            for f in sub_calculator.faces(d):
                if f not in ambient_index:
                    raise ValueError(f"{mask_vertices(f)} is not a face "
                                     "of the ambient complex")
        self.sub = sub_calculator
        self.ambient = ambient_calculator
        self.coeffs = coeffs
        self._matrices = {}

    def degrees(self):
        return range(-1, max(self.sub.dim, self.ambient.dim) + 1)

    def matrix(self, d):
        if d in self._matrices:
            return self._matrices[d]
        sub, coeffs = self.sub, self.coeffs
        target_orders = sub.orders(d, coeffs) if d <= sub.dim else ()
        columns = []
        if d <= self.ambient.dim:
            ambient_index = self.ambient.face_index(d)
            sub_faces = sub.faces(d)
            for gen in self.ambient.generators(d, coeffs):
                restricted = [gen[ambient_index[f]] for f in sub_faces]
                columns.append(sub.class_coordinates(d, restricted, coeffs)
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
