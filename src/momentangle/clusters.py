"""Exact rational geometry for the blocked-smash comultiplication layer.

Points of the open cube carry cluster statistics (how tightly coordinates
bunch together, measured against their overall spread); those statistics
cut the cube into a disjoint family of split regions, each star-shaped
about an explicit center.  An exact radial gauge identifies every split
region with the open cube again, and on top of that sit the pointwise
evaluators: the tagging map that pushes suspension parameters into a
blocked smash product, its per-split factors, the pinch map that routes a
point to the unique split region containing it, and the straight-line
homotopy tying the tagging map to the pinched composite.

Points come in and go out as :class:`fractions.Fraction` tuples, but the
geometry runs on integers: each anchored point is scaled once to integer
numerators over the lcm of its denominators (:func:`_scaled`).  On those
the region test, the cluster radii, the level blocks, the damping
weights and the gauge's conditions are integer comparisons with no
division; a ``Fraction`` is built only where a quotient is real (the
gauge's exit radius, the damping factors and the points they move) and
for the statistics handed back to the caller.

Two shortcuts keep the pointwise work small.  A block's cluster radii all
come from one sort of the block (:func:`cluster_radii`).  A point's split
regions are found from the cuts of its sorted anchored coordinates
(:func:`split_tags`): a region's high block sits strictly above its low
block, so only the at most ``n - 1`` cuts between unequal values can be
tags, and the ``2^n`` balanced splits are never scanned per point.
One ray routine serves the gauge both ways, and every smashed-model
evaluator opens with the same validation.

No floating point and no approximation is used anywhere: membership
predicates and the gauge are exact.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .complexes import full_mask, mask_vertices

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

# Split enumeration scans all 2^n subsets; beyond this it is refused.
MAX_SPLIT_VERTICES = 16


class MembershipViolation(ValueError):
    """A constructed point fell outside its target space.

    Raised by the tagging evaluators when a damped payload, restricted to
    one block of the anchor's level partition, fails to be a face.  The
    offending block and the payload's interior support are kept as masks
    so callers can report exactly which subset misbehaved.
    """

    def __init__(self, message, failed_block, support, anchor, payload):
        super().__init__(message)
        self.failed_block = failed_block
        self.support = support
        self.anchor = anchor
        self.payload = payload


def as_fraction(value):
    """Coerce ints, strings like ``"3/4"`` and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def rational_point(values):
    return tuple(as_fraction(v) for v in values)


def anchored(y):
    """Extend a cube point by a trailing zero coordinate."""
    return rational_point(y) + (_ZERO,)


def _scaled(point):
    """``(numerators, den)``: a Fraction point over the lcm of its denominators."""
    dens = [c.denominator for c in point]
    den = lcm(*dens)
    return tuple(c.numerator * (den // d) for c, d in zip(point, dens)), den


# ----------------------------------------------------------------------
# cluster statistics


def _radii(nums, subset_mask):
    """:func:`cluster_radii` of an integer point, as integers."""
    m = len(nums) // 3
    members = sorted(mask_vertices(subset_mask), key=lambda v: nums[v - 1])
    if m == 0 or len(members) <= m:
        return dict.fromkeys(members, 0)
    values = [nums[v - 1] for v in members]
    size = len(values)
    radii = {}
    for p, here in enumerate(values):
        left, right = p - 1, p + 1
        below = here - values[left] if left >= 0 else None
        above = values[right] - here if right < size else None
        for _ in range(m):
            if above is None or (below is not None and below <= above):
                gap, left = below, left - 1
                below = here - values[left] if left >= 0 else None
            else:
                gap, right = above, right + 1
                above = values[right] - here if right < size else None
        radii[members[p]] = gap
    return radii


def cluster_radii(z, subset_mask):
    """Every member's distance to its ``m``-th nearest other block member.

    Returns ``{vertex: radius}`` over the block, with ``m = len(z) // 3``.
    When the block holds fewer than ``m`` other members (or ``m`` is zero)
    every radius is zero, the empty-minimum convention.  The block is
    sorted once; a member's ``m`` nearest others are then the first ``m``
    steps of a walk outward from it, each step taking the nearer of the
    next value below and the next value above.  A block holding anything
    but vertices ``1..len(z)`` is refused.
    """
    z = rational_point(z)
    if subset_mask & ~full_mask(len(z)):
        raise ValueError(f"block must hold only vertices 1..{len(z)}")
    nums, den = _scaled(z)
    return {v: Fraction(r, den) for v, r in _radii(nums, subset_mask).items()}


def cluster_radius(z, subset_mask, i):
    """Distance from ``z_i`` to the ``m``-th nearest other block member.

    One entry of :func:`cluster_radii`.
    """
    if not subset_mask & (1 << i):
        raise ValueError(f"vertex {i} is not in the block")
    return cluster_radii(z, subset_mask)[i]


def max_cluster_radius(z, subset_mask):
    """Largest cluster radius over the members of the block."""
    return max(cluster_radii(z, subset_mask).values(), default=_ZERO)


def normalized_spread(z):
    """Coordinate range divided by the number of coordinates."""
    z = rational_point(z)
    if not z:
        raise ValueError("spread of an empty point")
    nums, den = _scaled(z)
    return Fraction(max(nums) - min(nums), len(z) * den)


def _level_blocks(nums, vertices):
    """Vertex masks of equal integer value, lowest value first."""
    blocks = {}
    for v, t in zip(vertices, nums):
        blocks[t] = blocks.get(t, 0) | (1 << v)
    return [blocks[t] for t in sorted(blocks)]


def partition_from_point(values, vertices_mask=None):
    """Group a value assignment into level blocks, lowest value first.

    ``values[k]`` is the value at the ``k``-th vertex of ``vertices_mask``
    (ascending); the default mask is ``{1, .., len(values)}``.  Returns a
    tuple of vertex masks ordered by increasing common value.
    """
    values = rational_point(values)
    if vertices_mask is None:
        vertices_mask = full_mask(len(values))
    verts = mask_vertices(vertices_mask)
    if len(verts) != len(values):
        raise ValueError("value sequence does not match the vertex set")
    return tuple(_level_blocks(_scaled(values)[0], verts))


# ----------------------------------------------------------------------
# split regions


@lru_cache(maxsize=None)
def enumerate_balanced_splits(n):
    """Ordered two-block partitions of {1..n} with both blocks > n/3.

    Pairs come back as ``(first_mask, second_mask)`` sorted by the first
    mask; both orders of an unordered split appear.  The scan covers all
    ``2^n`` subsets, so ``n`` above :data:`MAX_SPLIT_VERTICES` is refused.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > MAX_SPLIT_VERTICES:
        raise ValueError(f"balanced splits need at most {MAX_SPLIT_VERTICES} vertices")
    everything = full_mask(n)
    out = []
    for bits in range(1, (1 << n) - 1):
        first = bits << 1
        second = everything ^ first
        if 3 * first.bit_count() > n and 3 * second.bit_count() > n:
            out.append((first, second))
    return tuple(out)


def _validate_split(low_mask, high_mask, n):
    everything = full_mask(n)
    if low_mask & high_mask or (low_mask | high_mask) != everything:
        raise ValueError("blocks must partition the vertex set")
    if 3 * low_mask.bit_count() <= n or 3 * high_mask.bit_count() <= n:
        raise ValueError("both blocks must contain more than a third of the vertices")


def _require_open_cube(y):
    if not y:
        raise ValueError("empty point")
    # |t| >= 1, read off numerator and denominator
    if any(abs(t.numerator) >= t.denominator for t in y):
        raise ValueError("point must lie strictly inside the cube")


def _tight_radii(nums, width, blocks):
    """Each block's integer radii, or ``None`` once one reaches the spread.

    ``width`` is ``max(nums) - min(nums)``, so a radius stays below the
    spread exactly when ``n·radius < width``.  Blocks are taken one at a
    time, so a failing block spares the later blocks' radii.
    """
    n = len(nums)
    out = []
    for block in blocks:
        radii = _radii(nums, block)
        if any(n * r >= width for r in radii.values()):
            return None
        out.append(radii)
    return out


def _region_radii(nums, low_mask, high_mask):
    """The region test of an anchored integer point.

    Returns ``(width, low_radii, high_radii)`` in the units of ``nums``
    (``width = max - min``), or ``None`` outside the region.  The gap
    test ``n·gap > width`` is cheap and comes first.
    """
    width = max(nums) - min(nums)
    gap = min(nums[j - 1] for j in mask_vertices(high_mask)) - max(
        nums[i - 1] for i in mask_vertices(low_mask)
    )
    if len(nums) * gap <= width:
        return None
    radii = _tight_radii(nums, width, (low_mask, high_mask))
    return None if radii is None else (width, *radii)


def in_cluster_region(y):
    """Every coordinate of the extended point clusters tighter than the spread."""
    y = rational_point(y)
    _require_open_cube(y)
    nums, _ = _scaled(anchored(y))
    width = max(nums) - min(nums)
    return _tight_radii(nums, width, (full_mask(len(nums)),)) is not None


def split_region_statistics(y, low_mask, high_mask):
    """The region statistics of ``y``, or ``None`` outside the region.

    The extended point must clear three strict tests: the blocks are
    separated by more than the spread (cheap, checked first), and inside
    each block every cluster radius stays below the spread (one block at
    a time, so a failing low block spares the high block's radii).  A
    point inside gets back ``(spread, low_radii, high_radii)``, the radii
    as :func:`cluster_radii` gives them.
    """
    y = rational_point(y)
    _require_open_cube(y)
    n = len(y) + 1
    _validate_split(low_mask, high_mask, n)
    nums, den = _scaled(anchored(y))
    stats = _region_radii(nums, low_mask, high_mask)
    if stats is None:
        return None
    width, low_radii, high_radii = stats
    return (
        Fraction(width, n * den),
        {v: Fraction(r, den) for v, r in low_radii.items()},
        {v: Fraction(r, den) for v, r in high_radii.items()},
    )


def in_split_region(y, low_mask, high_mask):
    """Exact membership in the split region attached to an ordered split."""
    return split_region_statistics(y, low_mask, high_mask) is not None


def split_tags(y):
    """The ordered splits whose regions contain ``y``, sorted by low mask.

    A region point's high block sits strictly above its low block, so the
    low block is a prefix of the anchored point's sorted vertices that
    ends between two unequal values and leaves more than ``n/3`` vertices
    on each side.  Each such cut (at most ``n - 1``) is confirmed by the
    integer region test.  The regions are disjoint, so a point has at
    most one tag; more than one would be an overlap.
    """
    y = rational_point(y)
    _require_open_cube(y)
    nums, _ = _scaled(anchored(y))
    n = len(nums)
    order = sorted(range(1, n + 1), key=lambda v: nums[v - 1])
    everything = full_mask(n)
    tags = []
    low = 0
    for k, (v, w) in enumerate(zip(order, order[1:]), start=1):
        low |= 1 << v
        high = everything ^ low
        if 3 * k > n and 3 * (n - k) > n and nums[v - 1] < nums[w - 1]:
            if _region_radii(nums, low, high) is not None:
                tags.append((low, high))
    return sorted(tags)


def _center_halves(low_mask, high_mask, n):
    """Twice the split center: each coordinate -1, 0 or 1."""
    _validate_split(low_mask, high_mask, n)
    low_value, high_value = (-1, 0) if high_mask & (1 << n) else (0, 1)
    return tuple(
        low_value if low_mask & (1 << k) else high_value for k in range(1, n)
    )


def split_center(low_mask, high_mask, n):
    """The distinguished interior point of a split region.

    The block holding the anchor vertex ``n`` sits at its anchor value 0;
    the other block sits half a unit away on the correct side.
    """
    values = (-_HALF, _ZERO, _HALF)
    return tuple(values[h + 1] for h in _center_halves(low_mask, high_mask, n))


def contract_toward_center(y, low_mask, high_mask, t):
    """Straight-line contraction of a split-region point onto the center:
    ``(1 - t)·y + t·center``, one Fraction per coordinate."""
    y = rational_point(y)
    t = as_fraction(t)
    if not _ZERO <= t <= _ONE:
        raise ValueError("contraction time must lie in [0, 1]")
    if not in_split_region(y, low_mask, high_mask):
        raise ValueError("point is outside the split region")
    halves = _center_halves(low_mask, high_mask, len(y) + 1)
    nums, den = _scaled(y)
    a, b = t.numerator, t.denominator
    return tuple(
        Fraction(2 * (b - a) * c + a * h * den, 2 * b * den)
        for c, h in zip(nums, halves)
    )


# ----------------------------------------------------------------------
# radial gauge


def _gauge_radius(low_mask, high_mask, offset):
    """Exact exit radius of the region ray from the center through ``offset``.

    The one ray routine of the gauge and its inverse.  ``offset`` is a
    nonzero step from the center, as integer numerators over any common
    denominator; the radius is measured along its max-norm unit
    direction ``u = offset / N``, ``N = max |offset|``, anchored by a 0.
    Each block is constant at the center, so along ``center + r·u`` the
    gap is ``1/2 + r·G/N``, each cluster radius is ``r·ρ_i/N`` and, while
    the high block stays above the low one, ``n·spread`` is
    ``1/2 + r·S/N``, with ``G``, ``ρ_i`` and ``S`` read off the integers.
    Times ``2nN``, membership is a family of integer conditions
    ``A + B·r > 0``, each true at ``r = 0``; times ``2N``, so is staying
    inside the cube.  The radius is the first root ``A / -B`` with
    ``B < 0``.
    Every point before it lies in the region, the point at it does not.
    All the conditions are homogeneous in ``offset``, so any positive
    multiple of it gives the same radius.
    """
    n = len(offset) + 1
    norm = max(abs(c) for c in offset)
    u = offset + (0,)
    low = [u[i - 1] for i in mask_vertices(low_mask)]
    high = [u[j - 1] for j in mask_vertices(high_mask)]
    slope = max(high) - min(low)
    conditions = [((n - 1) * norm, 2 * (n * (min(high) - max(low)) - slope))]
    for block in (low_mask, high_mask):
        conditions.extend(
            (norm, 2 * (slope - n * radius)) for radius in _radii(u, block).values()
        )
    # the cube wall on the side ``c`` points to, from a center value h/2
    conditions.extend(
        ((2 - h if c > 0 else 2 + h) * norm, -2 * abs(c))
        for c, h in zip(offset, _center_halves(low_mask, high_mask, n))
        if c
    )
    root, scale = 1, 0  # no root yet: 1/0
    for a, b in conditions:
        if b < 0 and a * scale < -b * root:
            root, scale = a, -b
    return Fraction(root, scale)


def radial_gauge(low_mask, high_mask, y):
    """Identify a split region with the open cube, radially from the center.

    The image of ``y`` points the same way as ``y - center`` and has
    max-norm ``|y - center| / radius``, strictly below 1.  The center
    itself maps to the origin.
    """
    y = rational_point(y)
    if not in_split_region(y, low_mask, high_mask):
        raise ValueError("point is outside the split region")
    halves = _center_halves(low_mask, high_mask, len(y) + 1)
    nums, den = _scaled(y)
    # y - center over the denominator 2·den
    offset = tuple(2 * c - h * den for c, h in zip(nums, halves))
    if not any(offset):
        return (_ZERO,) * len(y)
    radius = _gauge_radius(low_mask, high_mask, offset)
    a, b = radius.numerator, radius.denominator
    return tuple(Fraction(c * b, 2 * den * a) for c in offset)


def radial_gauge_inverse(low_mask, high_mask, w):
    """Pull a cube point back into the split region.

    Composing with :func:`radial_gauge` in either order is exact: both
    directions normalise the same ray, so they share its exit radius.
    """
    w = rational_point(w)
    _require_open_cube(w)
    n = len(w) + 1
    if not any(w):
        return split_center(low_mask, high_mask, n)
    halves = _center_halves(low_mask, high_mask, n)
    nums, den = _scaled(w)
    radius = _gauge_radius(low_mask, high_mask, nums)
    a, b = radius.numerator, radius.denominator
    # h/2 + (c/den)·(a/b) over the denominator 2·den·b
    return tuple(
        Fraction(h * den * b + 2 * c * a, 2 * den * b) for c, h in zip(nums, halves)
    )


# ----------------------------------------------------------------------
# smash membership


def _interior_support(payload):
    mask = 0
    for k, c in enumerate(payload, start=1):
        if abs(c.numerator) < c.denominator:  # -1 < c < 1
            mask |= 1 << k
    return mask


def _require_payload_range(payload):
    if any(abs(c.numerator) > c.denominator for c in payload):
        raise ValueError("payload coordinates must lie in [-1, 1]")


def _require_payload_length(complex, payload):
    if len(payload) != complex.n:
        raise ValueError("payload length must match the vertex count")


def _validate_payload(complex, payload):
    _require_payload_length(complex, payload)
    _require_payload_range(payload)


def in_smashed_complex(complex, payload):
    """Is the payload a point of the complex's real smashed model?

    Any coordinate at -1 lands in the collapsed basepoint class; otherwise
    the coordinates strictly inside the interval must form a face.
    """
    payload = rational_point(payload)
    _validate_payload(complex, payload)
    if any(c == -1 for c in payload):
        return True
    return complex.is_face(_interior_support(payload))


def _blocked_obstruction(complex, nums, payload):
    """First level block on which the payload's support is not a face.

    ``nums`` is the anchor's integer form; its level blocks are read by
    :func:`_level_blocks`.
    """
    support = _interior_support(payload)
    for block in _level_blocks(nums, range(1, len(nums) + 1)):
        if not complex.is_face(support & block):
            return block, support
    return None


def in_partitioned_smash(complex, anchor, payload):
    """Membership in the union-over-anchors of blocked smash products.

    The anchor's level partition slices the payload; every slice must be a
    point of the corresponding full subcomplex's smashed model.  Payloads
    touching -1 are the basepoint and always belong; an anchor on the
    diagonal carries no non-basepoint points at all.
    """
    anchor = rational_point(anchor)
    payload = rational_point(payload)
    if len(anchor) != complex.n:
        raise ValueError("anchor length must match the vertex count")
    _validate_payload(complex, payload)
    if any(c == -1 for c in payload):
        return True
    nums, _ = _scaled(anchor)
    if min(nums) == max(nums):
        return False
    return _blocked_obstruction(complex, nums, payload) is None


# ----------------------------------------------------------------------
# points of suspensions


class _SuspendedPoint:
    """Collapse, equality, hash and repr shared by the suspended points.

    A subclass lists its constructor fields (payload last) in ``_FIELDS``,
    their basepoint values in ``_COLLAPSED``, and in ``_ends()`` the
    suspension coordinates that collapse the point at an end of [-1, 1].
    """

    __slots__ = ("payload", "_collapsed")

    def __init__(self, payload, ends_name):
        self.payload = rational_point(payload)
        if any(abs(t.numerator) > t.denominator for t in self._ends()):
            raise ValueError(f"{ends_name} must lie in [-1, 1]")
        _require_payload_range(self.payload)
        self._collapsed = False

    @classmethod
    def basepoint(cls):
        point = cls.__new__(cls)
        for field, value in zip(cls._FIELDS, cls._COLLAPSED):
            setattr(point, field, value)
        point._collapsed = True
        return point

    @property
    def is_basepoint(self):
        return (
            self._collapsed
            or any(abs(t.numerator) == t.denominator for t in self._ends())
            or any(c == -1 for c in self.payload)
        )

    def _values(self):
        return tuple(getattr(self, field) for field in self._FIELDS)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.is_basepoint or other.is_basepoint:
            return self.is_basepoint and other.is_basepoint
        return self._values() == other._values()

    def __hash__(self):
        if self.is_basepoint:
            return hash(type(self).__name__)
        return hash(self._values())

    def __repr__(self):
        name = type(self).__name__
        if self.is_basepoint:
            return f"{name}.basepoint()"
        return f"{name}({', '.join(repr(v) for v in self._values())})"


class SuspensionPoint(_SuspendedPoint):
    """A point of an iterated suspension: cube parameters over a payload.

    Parameters live in [-1, 1]; hitting an end collapses the point, as
    does a payload coordinate at the basepoint -1.  ``basepoint()`` makes
    the canonical collapsed point, and equality identifies every
    collapsed representative.
    """

    __slots__ = ("params",)
    _FIELDS = ("params", "payload")
    _COLLAPSED = ((), ())

    def __init__(self, params, payload):
        self.params = rational_point(params)
        super().__init__(payload, "suspension parameters")

    def _ends(self):
        return self.params


class PartitionedSmashPoint(_SuspendedPoint):
    """A suspended point of the blocked smash union.

    Holds one suspension height, the anchor that determines the level
    partition, and the payload.  Height at either end or a payload
    coordinate at -1 collapses the point.
    """

    __slots__ = ("height", "anchor")
    _FIELDS = ("height", "anchor", "payload")
    _COLLAPSED = (-_ONE, (), ())

    def __init__(self, height, anchor, payload):
        self.height = as_fraction(height)
        self.anchor = rational_point(anchor)
        super().__init__(payload, "height")

    def _ends(self):
        return (self.height,)


def _height_parameter(params):
    nums, den = _scaled(params)
    return Fraction(max(map(abs, nums), default=0), den)


def _validate_suspension_input(complex, omega):
    if not isinstance(omega, SuspensionPoint):
        raise ValueError("expected a SuspensionPoint")
    if omega._collapsed:
        return
    if len(omega.params) != complex.n - 1:
        raise ValueError("expected one suspension parameter per non-anchor vertex")
    # the point's constructor has already range-checked the payload
    _require_payload_length(complex, omega.payload)


def _suspension_height(complex, omega):
    """The smashed-model evaluators' prologue: validate ``omega`` once.

    Returns the height parameter, or ``None`` (collapse) for the basepoint
    or a zero height.  A payload whose interior support is not a face is
    refused; it has no -1 coordinate, so this is the smashed-model test.
    """
    _validate_suspension_input(complex, omega)
    if omega.is_basepoint:
        return None
    if not complex.is_face(_interior_support(omega.payload)):
        raise ValueError("payload is not a point of the smashed model")
    return _height_parameter(omega.params) or None


# ----------------------------------------------------------------------
# damping


@lru_cache(maxsize=64)
def _damping_factors(nums):
    """Per-coordinate damping weights of an anchor, over its width.

    ``nums`` is the anchor's integer form and ``width = max - min`` is
    ``n`` times its spread.  Returns ``(weights, width)``: coordinate
    ``i`` has damping factor ``weights[i - 1] / width``, with weight
    ``max(0, width - n·radius_i)``, so it keeps factor 1 when it
    clusters perfectly (radius 0) and is crushed to 0 once its cluster
    radius reaches the spread.  Cached, since a homotopy report damps
    against the same anchor at every time it evaluates and again in the
    pinched composite.
    """
    width = max(nums) - min(nums)
    if width == 0:
        raise ValueError("damping undefined on a constant anchor")
    n = len(nums)
    radii = _radii(nums, full_mask(n))
    return tuple(max(0, width - n * radii[i]) for i in range(1, n + 1)), width


def damped_coordinate(z, i, x_i):
    """Pull one payload coordinate toward the basepoint.

    The coordinate is fixed when its cluster radius is zero and lands
    exactly on -1 once the radius reaches the spread.
    """
    z = rational_point(z)
    if not 1 <= i <= len(z):
        raise ValueError(f"coordinate index {i} out of range")
    x = as_fraction(x_i)
    p, q = x.numerator, x.denominator
    if abs(p) > q:
        raise ValueError("payload coordinate must lie in [-1, 1]")
    weights, width = _damping_factors(_scaled(z)[0])
    # (1 + x)·weight/width - 1 over the denominator q·width
    return Fraction((p + q) * weights[i - 1] - q * width, q * width)


# ----------------------------------------------------------------------
# tagging evaluators


def _damped_point(complex, beta, z, payload, leaves, t=_ONE):
    """The point at height ``2β - 1`` over anchor ``z``, payload damped.

    The payload moves along the straight line from itself (time 0) to its
    full damping against ``z`` (time 1).  Raises
    :class:`MembershipViolation`, its message led by ``leaves``, when the
    moved payload leaves the blocked smash.
    """
    nums, _ = _scaled(z)
    weights, width = _damping_factors(nums)
    a, b = t.numerator, t.denominator
    # x = p/q moves to (1 - t)·x + t·((1 + x)·weight/width - 1), that is
    # (b·p·width - a·(p + q)·(width - weight)) / (b·q·width)
    moved = tuple(
        Fraction(b * x.numerator * width
                 - a * (x.numerator + x.denominator) * (width - weight),
                 b * x.denominator * width)
        for x, weight in zip(payload, weights)
    )
    point = PartitionedSmashPoint(2 * beta - 1, z, moved)
    if point.is_basepoint:
        return point
    obstruction = _blocked_obstruction(complex, nums, moved)
    if obstruction is None:
        return point
    block, seen = obstruction
    raise MembershipViolation(
        f"{leaves}: support {sorted(mask_vertices(seen))} meets level block "
        f"{sorted(mask_vertices(block))} in a non-face",
        failed_block=block,
        support=seen,
        anchor=z,
        payload=moved,
    )


def tagging_map(complex, omega):
    """Trade the suspension parameters for an anchor of the blocked smash.

    Collapses when the input is the basepoint or the height parameter is
    extreme; otherwise the parameters themselves, anchored by a trailing
    zero, become the anchor and the payload rides along unchanged.  The
    image always satisfies the blocked-smash membership (slicing a face
    gives faces), which is asserted.
    """
    beta = _suspension_height(complex, omega)
    if beta is None:
        return PartitionedSmashPoint.basepoint()
    z = anchored(omega.params)
    point = PartitionedSmashPoint(2 * beta - 1, z, omega.payload)
    assert in_partitioned_smash(complex, z, omega.payload)
    return point


def factor_tagging_map(complex, low_mask, high_mask, omega):
    """One wedge factor of the pinched tagging map.

    The suspension parameters are read as a cube point, pulled back into
    the split region by the inverse gauge, and anchored; the payload is
    damped against that anchor.  Raises :class:`MembershipViolation` when
    the damped payload leaves the blocked smash — that can genuinely
    happen when some small vertex subset is not a face.
    """
    _validate_suspension_input(complex, omega)
    _validate_split(low_mask, high_mask, complex.n)
    if omega.is_basepoint:
        return PartitionedSmashPoint.basepoint()
    support = _interior_support(omega.payload)
    if not (
        complex.is_face(support & low_mask) and complex.is_face(support & high_mask)
    ):
        raise ValueError("payload is not a point of the rearranged smash")
    beta = _height_parameter(omega.params)
    if beta == 0:
        return PartitionedSmashPoint.basepoint()
    pulled = radial_gauge_inverse(low_mask, high_mask, omega.params)
    return _damped_point(complex, beta, anchored(pulled), omega.payload,
                         "damped payload leaves the blocked smash")


def pinch_map(y):
    """Route a cube point to the split region containing it.

    Returns ``None`` (the wedge basepoint) when no region contains the
    point, otherwise ``((low, high), gauge)`` with the region's ordered
    split and the gauged cube point.  The region comes from
    :func:`split_tags`, so only the sorted point's cuts are tested, never
    all balanced splits; disjointness of the regions makes its first tag
    the only one.
    """
    y = rational_point(y)
    tags = split_tags(y)
    if not tags:
        return None
    low, high = tags[0]
    return (low, high), radial_gauge(low, high, y)


def pinch_on_suspension(complex, omega):
    """Pinch acting on suspension parameters only, payload untouched.

    Returns ``None`` for the wedge basepoint, else a ``(split, point)``
    pair tagging which wedge factor received the point.  A zero height
    (as on a 1-vertex complex, with no parameters) is the basepoint too.
    """
    if _suspension_height(complex, omega) is None:
        return None
    routed = pinch_map(omega.params)
    if routed is None:
        return None
    split, gauged = routed
    return split, SuspensionPoint(gauged, omega.payload)


def tagging_homotopy(complex, omega, t):
    """Straight-line homotopy from the tagging map into full damping.

    At time 0 the payload is untouched and the result equals
    :func:`tagging_map` exactly; at time 1 every coordinate is fully
    damped.  Intermediate times can push coordinates off the interval
    ends into the interior, so membership in the blocked smash is a real
    condition — :class:`MembershipViolation` reports a failure.
    """
    t = as_fraction(t)
    if not _ZERO <= t <= _ONE:
        raise ValueError("homotopy time must lie in [0, 1]")
    beta = _suspension_height(complex, omega)
    if beta is None:
        return PartitionedSmashPoint.basepoint()
    return _damped_point(complex, beta, anchored(omega.params), omega.payload,
                         f"homotopy leaves the blocked smash at time {t}", t)


def pinched_composite(complex, omega):
    """Factor tagging maps glued along the pinch.

    Points whose parameters miss every split region collapse; the rest
    are gauged into their region and back (exactly, by the shared-ray
    property of the gauge) and damped there.  The height parameter is
    taken from the original input, which makes the composite agree with
    the end of :func:`tagging_homotopy` on the nose.
    """
    beta = _suspension_height(complex, omega)
    if beta is None:
        return PartitionedSmashPoint.basepoint()
    routed = pinch_map(omega.params)
    if routed is None:
        return PartitionedSmashPoint.basepoint()
    (low, high), gauged = routed
    pulled = radial_gauge_inverse(low, high, gauged)
    return _damped_point(complex, beta, anchored(pulled), omega.payload,
                         "pinched composite leaves the blocked smash")
