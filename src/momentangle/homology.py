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

``InducedMap`` reads such a map off the calculators of both complexes.
The pair maps into a join K_I * K_J do not need the join's calculator:
by Künneth they are read from the factors' cached classes as cross
products (``golod.CrossProductMap``), and the join is built only for a
``Z`` pair whose sides share a torsion prime.
"""

from __future__ import annotations

import copy
import math

from momentangle.complexes import mask_vertices
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


class ChainComplex:
    """Simplicial chain complex of a complex, empty face included.

    Degree d holds the faces with d+1 vertices, sorted by mask value.
    ``boundary_matrix(d)`` maps degree d to degree d-1 with alternating
    signs along ascending vertex order; the boundary of a vertex is the
    empty face, which makes homology reduced.

    A ``degree_range`` (lo, hi) restricts face collection to what the
    boundaries for homology in degrees lo..hi need.
    """

    def __init__(self, complex, degree_range=None):
        lo, hi = degree_range if degree_range else (-1, complex.dim)
        if lo < -1:
            lo = -1
        self.complex = complex
        self.lo = lo
        self.hi = hi
        by_degree = {d: [] for d in range(lo - 1, hi + 2)}
        for f in complex.faces:
            d = f.bit_count() - 1
            if lo - 1 <= d <= hi + 1:
                by_degree[d].append(f)
        self._faces = {d: sorted(masks) for d, masks in by_degree.items()}
        self._index = {d: {f: i for i, f in enumerate(masks)}
                       for d, masks in self._faces.items()}
        self._boundaries = {}

    def faces(self, d):
        return self._faces.get(d, [])

    def face_index(self, d):
        return self._index.get(d, {})

    def boundary_matrix(self, d):
        """The map C_d -> C_{d-1} as an integer matrix."""
        if d in self._boundaries:
            return self._boundaries[d]
        sources = self.faces(d)
        target_index = self.face_index(d - 1)
        entries = {}
        for j, f in enumerate(sources):
            for i, v in enumerate(mask_vertices(f)):
                sub = f ^ (1 << v)
                entries[target_index[sub], j] = -1 if i % 2 else 1
        matrix = IntMatrix(len(self.faces(d - 1)), len(sources), entries)
        self._boundaries[d] = matrix
        return matrix

    def differential_squares_to_zero(self):
        return all((self.boundary_matrix(d) @ self.boundary_matrix(d + 1)).is_zero
                   for d in range(self.lo, self.hi + 1))


def _reduced_groups(complex, coeffs, degree_range, cohomology):
    """Groups in degrees lo..hi from the ranks of ∂_lo .. ∂_{hi+1}.

    Integral torsion of H̃_d is that of coker ∂_{d+1}; the coboundary out
    of degree d is the transpose of ∂_{d+1}, so torsion of H̃^d is that of
    coker ∂_d (transposition preserves rank and invariant factors).

    A complex containing the full (m-1)-skeleton on its s-vertex support
    shares the simplex's chain groups through degree m-1, so when the
    range starts there the bottom boundary matrix is the full simplex
    boundary, whose rank is C(s-1, m-1) over every coefficient ring with
    free cokernel.  That known rank replaces the one large matrix in the
    otherwise-sparse window of ``homology_degree_window``.
    """
    kind, p = parse_coefficients(coeffs)
    lo, hi = degree_range if degree_range else (-1, complex.dim)
    lo = max(lo, -1)
    chain = ChainComplex(complex, (lo, hi))
    ranks, torsion = {}, {}
    if lo >= 0 and lo == complex.support_neighbourliness - 1:
        ranks[lo] = math.comb(complex.support.bit_count() - 1, lo)
        torsion[lo] = ()
    for d in range(lo, hi + 2):
        if d in ranks:
            continue
        matrix = chain.boundary_matrix(d)
        if kind == "F":
            ranks[d], torsion[d] = rank_mod_p(matrix, p), ()
        else:
            form = smith_normal_form(matrix)
            ranks[d] = form.rank
            torsion[d] = form.torsion if kind == "Z" else ()
    source = 0 if cohomology else 1
    return {d: HomologyGroup(len(chain.faces(d)) - ranks[d] - ranks[d + 1],
                             torsion[d + source])
            for d in range(lo, hi + 1)}


def reduced_homology(complex, coeffs="Z", degree_range=None):
    """Reduced homology groups by degree, over the named coefficients.

    Returns {degree: HomologyGroup} for degrees in the range (default
    -1..dim).  Field coefficients yield torsion-free groups whose rank
    is the vector-space dimension.
    """
    return _reduced_groups(complex, coeffs, degree_range, cohomology=False)


def reduced_cohomology(complex, coeffs="Z", degree_range=None):
    """Reduced cohomology groups by degree, computed from coboundaries."""
    return _reduced_groups(complex, coeffs, degree_range, cohomology=True)


def homology_degree_window(complex):
    """Degree range outside which reduced homology provably vanishes.

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

    ``over(coeffs)`` gives the calculator over other coefficients that
    shares the chain complex, the coboundaries and the Smith forms.
    Intended for small complexes.
    """

    def __init__(self, complex, coeffs="Z"):
        self.complex = complex
        self.coeffs = coeffs
        self.kind, self.p = parse_coefficients(coeffs)
        self.chain = ChainComplex(complex)
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
        return range(-1, self.complex.dim + 1)

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
        assert all(row >= r for row, _ in images.entries), \
            "coboundary image escaped the cocycle space"
        relations = IntMatrix(kernel_dim, prev.num_cols,
                              {(row - r, col): v
                               for (row, col), v in images.entries.items()
                               if row >= r})
        rel = smith_normal_form(relations, keep_transforms=True)
        orders = list(rel.diagonal) + [0] * (kernel_dim - rel.rank)
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


def check_subcomplex(sub, ambient):
    """Raise unless every facet of ``sub`` is a face of ``ambient``."""
    if sub.n != ambient.n:
        raise ValueError("subcomplex comparison needs one ambient vertex set")
    for f in sub.facets:
        if not ambient.is_face(f):
            raise ValueError(
                f"{mask_vertices(f)} is not a face of the ambient complex")


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
    """

    def __init__(self, sub_calculator, ambient_calculator):
        if sub_calculator.coeffs != ambient_calculator.coeffs:
            raise ValueError("coefficient mismatch between calculators")
        check_subcomplex(sub_calculator.complex, ambient_calculator.complex)
        self.sub = sub_calculator
        self.ambient = ambient_calculator
        self.coeffs = sub_calculator.coeffs
        self._matrices = {}

    def degrees(self):
        top = max(self.sub.complex.dim, self.ambient.complex.dim)
        return range(-1, top + 1)

    def matrix(self, d):
        if d in self._matrices:
            return self._matrices[d]
        target_orders = self.sub.orders(d) if d <= self.sub.complex.dim else ()
        columns = []
        if d <= self.ambient.complex.dim:
            ambient_index = self.ambient.face_index(d)
            sub_faces = self.sub.faces(d) if d <= self.sub.complex.dim else []
            for gen in self.ambient.generators(d):
                restricted = [gen[ambient_index[f]] for f in sub_faces]
                columns.append(self.sub.class_coordinates(d, restricted)
                               if target_orders else ())
        rows = [[col[i] for col in columns] for i in range(len(target_orders))]
        self._matrices[d] = rows
        return rows


def connectivity_certificate(complex):
    """Largest c with H̃_i(ZZ) = 0 for all i <= c, plus a provenance flag.

    Cones are contractible, giving (inf, "topological") outright.
    Otherwise integral homology is scanned upward from the bottom of
    ``homology_degree_window``, below which it provably vanishes.  The
    flag is "topological" when the complex contains the full 2-skeleton
    on its support: that forces simple connectivity, so the Hurewicz
    theorem promotes vanishing homology to vanishing homotopy.  With
    fewer than all triangles present the bound is "homology-only".
    """
    if complex.is_cone:
        return math.inf, "topological"
    flag = ("topological" if complex.support_neighbourliness >= 3
            else "homology-only")
    lo, hi = homology_degree_window(complex)
    groups = reduced_homology(complex, "Z", (lo, hi))
    for d in range(lo, hi + 1):
        if not groups[d].is_zero:
            return d - 1, flag
    return math.inf, flag
