"""Simplicial complexes on {1, .., n}, encoded as bitmasks.

Vertex ``i`` corresponds to bit ``1 << i`` (bit 0 is never used), so a face
is a plain ``int`` and subset tests are single ``&`` operations.  A complex
is stored by its maximal faces, kept as an inclusion antichain; downward
closure is implicit in the membership test.

The empty set is a face of every complex here: constructing with an empty
facet list yields the complex ``{∅}`` whose sole face is the empty set.
Ghost vertices are allowed — an ambient vertex need not be a face — which
is exactly what restrictions to a vertex subset produce.

``FaceRecord``, the complex whose faces are the submasks of some masks
(K's facets, or K's facets cut down to I for K_I), is the one place that
lists faces and reads the apex and neighbourliness.  A
``SimplicialComplex`` reads these off the record of its facets, built on
first use; ``homology.ChainComplex`` extends the record with cohomology.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, reduce
from operator import or_

MAX_VERTICES = 63
# Most facets a generated skeleton may have: C(20, 10), so that every
# skeleton on the 20 vertices a command reads at most still builds.
MAX_SKELETON_FACETS = math.comb(20, 10)


def vertex_mask(vertices):
    """Pack an iterable of 1-based vertex labels into a bitmask."""
    mask = 0
    for v in vertices:
        if v < 1:
            raise ValueError(f"vertex labels are 1-based, got {v}")
        mask |= 1 << v
    return mask


def mask_vertices(mask):
    """Unpack a bitmask into a sorted tuple of 1-based vertex labels."""
    out = []
    rest = mask
    while rest:
        low = rest & -rest
        out.append(low.bit_length() - 1)
        rest ^= low
    return tuple(out)


def full_mask(n):
    """Mask of the whole vertex set {1, .., n}."""
    return ((1 << n) - 1) << 1


def iter_submasks(mask):
    """All submasks of ``mask``, in decreasing numeric order, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def lowest_vertex(mask):
    """Smallest vertex label present in a nonzero mask."""
    if mask == 0:
        raise ValueError("empty mask has no vertices")
    return (mask & -mask).bit_length() - 1


def full_skeleton_size(order, support):
    """k, the largest size in the masks ``order`` (listed largest first),
    when they span the full (k - 1)-skeleton on the s vertices of
    ``support``: no face is larger, and C(s, k) distinct k-subsets are
    all of them.  Otherwise None.  The simplex is k = s; {∅} is s = 0."""
    k = order[0].bit_count()
    top = set(itertools.takewhile(lambda f: f.bit_count() == k, order))
    return k if len(top) == math.comb(support.bit_count(), k) else None


class FaceRecord:
    """The complex whose faces are the submasks of ``masks``: a complex's
    facets, or K's facets cut down to I for the full subcomplex K_I (no
    masks make {∅}).  It is the only code that lists faces.

    ``support``, ``dim`` and ``skeleton`` (k when the masks span the full
    (k - 1)-skeleton on the support, else None) are read when it is
    built; ``apex`` (the vertices every facet shares, nonzero exactly for
    a cone), ``levels`` (entry k lists the faces with k vertices, in
    increasing mask order) and the rest on first use.  A full skeleton
    lists no face for its apex or neighbourliness.
    """

    def __init__(self, masks):
        self._order = sorted(masks, key=int.bit_count, reverse=True) or [0]
        self.support = reduce(or_, self._order)
        self.dim = self._order[0].bit_count() - 1
        self.skeleton = full_skeleton_size(self._order, self.support)

    @cached_property
    def _listing(self):
        """The set of faces and the vertices the facets share.  A mask
        already seen lies in a larger one, so the masks met unseen are
        exactly the facets, with no antichain pruning."""
        faces, apex = set(), -1
        for f in self._order:
            if f not in faces:
                apex &= f
                faces.update(iter_submasks(f))
        return faces, apex

    @property
    def apex(self):
        if self.skeleton is None:
            return self._listing[1]
        # a full skeleton is a cone only as the simplex
        return self.support if self.skeleton == self.support.bit_count() else 0

    @cached_property
    def levels(self):
        if self.skeleton is None:
            levels = [[] for _ in range(self.dim + 2)]
            for f in sorted(self._listing[0]):
                levels[f.bit_count()].append(f)
            return levels
        vertices = [1 << v for v in mask_vertices(self.support)]
        return [sorted(map(sum, itertools.combinations(vertices, size)))
                for size in range(self.skeleton + 1)]

    @cached_property
    def closed_neighbourhoods(self):
        """Per vertex v of the support, the union of the masks through v."""
        closed = {}
        for f in self._order:
            for v in mask_vertices(f):
                closed[v] = closed.get(v, 0) | f
        return closed

    @cached_property
    def support_neighbourliness(self):
        """The largest k such that every k-subset of the support is a face:
        a full skeleton's k; before any face is listed, 1 if a vertex's
        closed neighbourhood misses part of the support (an edge is
        missing); otherwise the largest k with C(s, j) faces of each size
        j ≤ k on the s-vertex support, which holds every face."""
        if self.skeleton is not None:
            return self.skeleton
        if "_listing" not in self.__dict__ and any(
                c != self.support for c in self.closed_neighbourhoods.values()):
            return 1
        s, levels = self.support.bit_count(), self.levels
        return next((k for k in range(self.dim + 1)
                     if len(levels[k + 1]) != math.comb(s, k + 1)), self.dim + 1)


def _check_vertex_count(n):
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be between 0 and {MAX_VERTICES}")


class SimplicialComplex:
    """A simplicial complex on ambient vertex set {1, .., n}.

    ``maximal_faces`` is any iterable of face masks; dominated faces are
    pruned so ``facets`` is a sorted antichain, making equality structural.
    An empty iterable yields the complex {∅}.
    """

    def __init__(self, n, maximal_faces=()):
        _check_vertex_count(n)
        ambient = full_mask(n)
        faces = set(maximal_faces)
        if not faces:
            faces = {0}
        for f in faces:
            if f & ~ambient:
                raise ValueError(
                    f"face {mask_vertices(f)} has vertices outside 1..{n}")
        # a strict superset is strictly larger, so in order of decreasing
        # size each face need only be tested against the facets kept at
        # larger sizes (``larger``), never against those of its own size
        facets, larger, size = [], (), None
        for f in sorted(faces, key=int.bit_count, reverse=True):
            if f.bit_count() != size:
                size, larger = f.bit_count(), tuple(facets)
            if not any(f & ~g == 0 for g in larger):
                facets.append(f)
        self.n = n
        self.facets = tuple(sorted(facets))

    @classmethod
    def from_vertex_lists(cls, n, faces):
        """Build from faces given as lists of 1-based vertex labels.

        Each label is checked against 1..n before it is packed, so a huge
        label is refused before ``1 << v`` allocates a huge mask.
        """
        _check_vertex_count(n)
        masks = []
        for face in map(tuple, faces):
            if not all(1 <= v <= n for v in face):
                raise ValueError(f"face {tuple(sorted(face))} has vertices "
                                 f"outside 1..{n}")
            masks.append(vertex_mask(face))
        return cls(n, masks)

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.n == other.n and self.facets == other.facets)

    def __hash__(self):
        return hash((self.n, self.facets))

    def __repr__(self):
        shown = [list(mask_vertices(f)) for f in self.facets[:6]]
        more = ", ..." if len(self.facets) > 6 else ""
        return f"SimplicialComplex(n={self.n}, facets={shown}{more})"

    # ------------------------------------------------------------------
    # basic invariants

    @cached_property
    def record(self):
        """The ``FaceRecord`` of the facets, built on first use: the faces,
        dimension, support, apex and neighbourliness are read off it."""
        return FaceRecord(self.facets)

    @property
    def dim(self):
        """Dimension: -1 for {∅}, otherwise max facet size minus one."""
        return self.record.dim

    @property
    def support(self):
        """Mask of vertices that lie on at least one face."""
        return self.record.support

    @cached_property
    def faces(self):
        """Frozenset of all faces as masks (0, the empty face, included)."""
        return frozenset(itertools.chain.from_iterable(self.record.levels))

    def is_face(self, mask):
        return any(mask & ~f == 0 for f in self.facets)

    @cached_property
    def closed_neighbourhoods(self):
        """Per vertex v, the mask of v and its 1-skeleton neighbours.

        Indexed by vertex label (entry 0 is unused); a ghost vertex gets 0.
        """
        closed = self.record.closed_neighbourhoods
        return tuple(closed.get(v, 0) for v in range(self.n + 1))

    @cached_property
    def is_flag(self):
        """True when K is the clique complex of its 1-skeleton on its support.

        Then every full subcomplex K_I is the clique complex of the graph
        induced on I, so its faces are read off ``closed_neighbourhoods``.
        """
        edges = [(v, w) for v, closed in enumerate(self.closed_neighbourhoods)
                 for w in mask_vertices(closed) if w > v]
        return flag_from_graph(self.n, edges).restriction(self.support) == self

    @cached_property
    def f_vector(self):
        """Face counts indexed by size: entry k counts faces with k vertices."""
        return tuple(map(len, self.record.levels))

    @cached_property
    def euler_characteristic(self):
        """Unreduced Euler characteristic (0 for {∅})."""
        return sum((-1) ** k * c for k, c in enumerate(self.f_vector[1:]))

    # ------------------------------------------------------------------
    # constructions

    def restriction(self, mask):
        """Full subcomplex on the vertices of ``mask``; ambient set unchanged."""
        return SimplicialComplex(self.n, (f & mask for f in self.facets))

    def join(self, other):
        """Join on a common ambient set; supports must be disjoint.

        Faces of the result are the unions of a face from each factor.
        Use :func:`shifted_join` to join complexes whose labels clash.
        """
        if self.support & other.support:
            raise ValueError("join factors have overlapping supports")
        n = max(self.n, other.n)
        return SimplicialComplex(
            n, (f | g for f in self.facets for g in other.facets))

    # ------------------------------------------------------------------
    # predicates

    @property
    def cone_apex(self):
        """A vertex lying in every facet (the smallest one), or 0 if none:
        a complex is a cone exactly when its facets share a vertex."""
        apex = self.record.apex
        return lowest_vertex(apex) if apex else 0

    @property
    def is_cone(self):
        return self.cone_apex != 0

    @property
    def is_simplex(self):
        """True when every subset of the support is a face."""
        return len(self.facets) == 1

    @cached_property
    def minimal_non_faces(self):
        """Inclusion-minimal subsets of {1..n} that are not faces, sorted.

        Read off the face set: σ is a minimal non-face exactly when σ is
        not a face and σ minus any one vertex is.  Each σ is tested once,
        from the face τ = σ minus its top vertex, so every face τ is tried
        with each vertex above its own top vertex.
        """
        faces = self.faces
        found = []
        for tau in faces:
            bits = [1 << u for u in mask_vertices(tau)]
            for v in range(max(tau.bit_length(), 1), self.n + 1):
                sigma = tau | (1 << v)
                if sigma not in faces and all(sigma ^ bit in faces
                                              for bit in bits):
                    found.append(sigma)
        return tuple(sorted(found))

    @cached_property
    def neighbourliness(self):
        """Largest k such that every k-subset of {1..n} is a face.

        Equals n for the full simplex, 0 when some vertex is missing (a
        ghost vertex is a missing 1-face); otherwise the support is
        {1..n} and this is the support neighbourliness.
        """
        if self.support != full_mask(self.n):
            return 0
        return self.support_neighbourliness

    @property
    def support_neighbourliness(self):
        """Neighbourliness measured on the support only (ghosts ignored):
        the combinatorial input to statements about the realization."""
        return self.record.support_neighbourliness

    @property
    def is_third_neighbourly(self):
        """True when every subset of at most ⌊n/3⌋ vertices is a face."""
        return self.neighbourliness >= self.n // 3

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self):
        return {"n": self.n,
                "facets": [list(mask_vertices(f)) for f in self.facets]}

    @classmethod
    def from_dict(cls, data):
        try:
            n = data["n"]
            facets = data["facets"]
        except (TypeError, KeyError) as exc:
            raise ValueError("complex data needs 'n' and 'facets' keys") from exc
        # JSON true/false load as bool, which is an int subclass.
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError("'n' must be an integer")
        if not isinstance(facets, list) or any(
                not isinstance(f, list)
                or any(isinstance(v, bool) or not isinstance(v, int) for v in f)
                for f in facets):
            raise ValueError("'facets' must be a list of integer lists")
        if any(len(set(f)) != len(f) for f in facets):
            raise ValueError("a facet names the same vertex twice")
        return cls.from_vertex_lists(n, facets)


def new_complex(n, faces):
    """Convenience constructor from 1-based vertex lists."""
    return SimplicialComplex.from_vertex_lists(n, faces)


# ----------------------------------------------------------------------
# generators


def simplex(n):
    """The full simplex on n vertices."""
    _check_vertex_count(n)
    if n == 0:
        return SimplicialComplex(0)
    return SimplicialComplex(n, (full_mask(n),))


def boundary_simplex(n):
    """All proper subsets of {1..n}: the boundary of the (n-1)-simplex."""
    _check_vertex_count(n)
    if n < 1:
        raise ValueError("boundary_simplex needs at least one vertex")
    ambient = full_mask(n)
    if n == 1:
        return SimplicialComplex(1)
    return SimplicialComplex(n, (ambient ^ (1 << v) for v in range(1, n + 1)))


def full_skeleton(n, k):
    """The k-skeleton of the full simplex on n vertices (k = -1 gives {∅})."""
    _check_vertex_count(n)
    if k < -1:
        raise ValueError("skeleton dimension below -1")
    if k >= n - 1:
        return simplex(n)
    count = math.comb(n, k + 1)
    if count > MAX_SKELETON_FACETS:
        raise ValueError(f"the {k}-skeleton on {n} vertices has {count} "
                         f"facets; at most {MAX_SKELETON_FACETS} are built")
    faces = (vertex_mask(c)
             for c in itertools.combinations(range(1, n + 1), k + 1))
    return SimplicialComplex(n, faces)


def cycle_complex(n):
    """The n-cycle 1-2-..-n-1 as a one-dimensional complex."""
    _check_vertex_count(n)
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return SimplicialComplex.from_vertex_lists(
        n, [[i, i % n + 1] for i in range(1, n + 1)])


def single_non_face(n, size):
    """Complex on {1..n} whose unique minimal non-face is {1..size}."""
    _check_vertex_count(n)
    if not 1 <= size <= n:
        raise ValueError("non-face size out of range")
    ambient = full_mask(n)
    return SimplicialComplex(n, (ambient ^ (1 << v) for v in range(1, size + 1)))


def shifted_join(left, right):
    """Join after relabeling ``right`` above ``left``'s ambient set."""
    return left.join(SimplicialComplex(left.n + right.n,
                                       (f << left.n for f in right.facets)))


def flag_from_graph(n, edges):
    """Flag (clique) complex of a graph on {1..n}.

    Maximal faces are the maximal cliques, found by Bron–Kerbosch with
    greedy pivoting.  Every vertex is a face (no ghosts).
    """
    _check_vertex_count(n)
    adjacency = [0] * (n + 1)
    for a, b in edges:
        if a == b:
            raise ValueError("loops are not allowed")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"edge ({a},{b}) outside 1..{n}")
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    cliques = []

    def extend(clique, candidates, excluded):
        if not candidates and not excluded:
            cliques.append(clique)
            return
        pivot, best = 0, -1
        for v in mask_vertices(candidates | excluded):
            score = (adjacency[v] & candidates).bit_count()
            if score > best:
                pivot, best = v, score
        for v in mask_vertices(candidates & ~adjacency[pivot]):
            bit = 1 << v
            extend(clique | bit, candidates & adjacency[v],
                   excluded & adjacency[v])
            candidates &= ~bit
            excluded |= bit

    extend(0, full_mask(n), 0)
    return SimplicialComplex(n, cliques)


def random_complex(n, k_neighbourly_floor, density, seed):
    """Seeded random complex containing the full (k_neighbourly_floor-1)-skeleton.

    On top of the guaranteed skeleton, about ``density * n`` random facets
    of larger size are thrown in.  Deterministic for a fixed seed.
    """
    import random as _random

    if not 1 <= n <= 16:
        raise ValueError("random_complex supports 1 <= n <= 16")
    if not 0 <= k_neighbourly_floor <= n:
        raise ValueError("neighbourliness floor out of range")
    if not 0 <= density < math.inf:
        raise ValueError(f"density must be finite and nonnegative, got {density}")
    if density * n > 1 << n:
        raise ValueError(f"density {density} draws more facets than the "
                         f"2^{n} subsets of {n} vertices")
    rng = _random.Random(seed)
    faces = [vertex_mask(c) for c in itertools.combinations(
        range(1, n + 1), k_neighbourly_floor)]
    extra = round(density * n)
    lo = min(k_neighbourly_floor + 1, n)
    for _ in range(extra):
        size = rng.randint(lo, n)
        faces.append(vertex_mask(rng.sample(range(1, n + 1), size)))
    return SimplicialComplex(n, faces)
