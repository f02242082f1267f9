"""Exact rational geometry for the blocked-smash comultiplication layer.

Everything in this module runs on :class:`fractions.Fraction`.  Points of
the open cube carry cluster statistics (how tightly coordinates bunch
together, measured against their overall spread); those statistics cut the
cube into a disjoint family of split regions, each star-shaped about an
explicit center.  A bisected radial gauge identifies every split region
with the open cube again, and on top of that sit the pointwise evaluators:
the tagging map that pushes suspension parameters into a blocked smash
product, its per-split factors, the pinch map that routes a point to the
unique split region containing it, and the straight-line homotopy tying
the tagging map to the pinched composite.

No floating point is used anywhere; membership predicates are exact, and
the only approximation in the module is the bisection gauge, which carries
a rational tolerance and never affects a membership answer.
"""

from fractions import Fraction
from functools import lru_cache

from .complexes import full_mask, mask_vertices

DEFAULT_TOLERANCE = Fraction(1, 2**40)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


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


# ----------------------------------------------------------------------
# cluster statistics


def cluster_radius(z, subset_mask, i):
    """Distance from ``z_i`` to the ``m``-th nearest other coordinate.

    The block is ``subset_mask``, distances are taken to the other members
    of the block, and ``m = len(z) // 3``.  When the block holds fewer
    than ``m`` other members (or ``m`` is zero) the radius is zero, the
    empty-minimum convention.
    """
    bit = 1 << i
    if not subset_mask & bit:
        raise ValueError(f"vertex {i} is not in the block")
    z = rational_point(z)
    m = len(z) // 3
    if m == 0:
        return _ZERO
    gaps = sorted(abs(z[i - 1] - z[j - 1]) for j in mask_vertices(subset_mask ^ bit))
    if len(gaps) < m:
        return _ZERO
    return gaps[m - 1]


def max_cluster_radius(z, subset_mask):
    """Largest cluster radius over the members of the block."""
    z = rational_point(z)
    return max(
        (cluster_radius(z, subset_mask, i) for i in mask_vertices(subset_mask)),
        default=_ZERO,
    )


def normalized_spread(z):
    """Coordinate range divided by the number of coordinates."""
    z = rational_point(z)
    if not z:
        raise ValueError("spread of an empty point")
    return (max(z) - min(z)) / len(z)


def partition_from_point(values, vertices_mask=None):
    """Group a value assignment into level blocks, lowest value first.

    ``values[k]`` is the value at the ``k``-th vertex of ``vertices_mask``
    (ascending); the default mask is ``{1, .., len(values)}``.  Returns a
    tuple of vertex masks ordered by increasing common value.
    """
    values = rational_point(values)
    if vertices_mask is None:
        vertices_mask = full_mask(len(values))
    verts = tuple(mask_vertices(vertices_mask))
    if len(verts) != len(values):
        raise ValueError("value sequence does not match the vertex set")
    blocks = {}
    for v, t in zip(verts, values):
        blocks[t] = blocks.get(t, 0) | (1 << v)
    return tuple(mask for _, mask in sorted(blocks.items()))


# ----------------------------------------------------------------------
# split regions


@lru_cache(maxsize=None)
def enumerate_balanced_splits(n):
    """Ordered two-block partitions of {1..n} with both blocks > n/3.

    Pairs come back as ``(first_mask, second_mask)`` sorted by the first
    mask; both orders of an unordered split appear.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
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
    if any(abs(t) >= 1 for t in y):
        raise ValueError("point must lie strictly inside the cube")


def in_cluster_region(y):
    """Every coordinate of the extended point clusters tighter than the spread."""
    y = rational_point(y)
    _require_open_cube(y)
    z = anchored(y)
    return max_cluster_radius(z, full_mask(len(z))) < normalized_spread(z)


def in_split_region(y, low_mask, high_mask):
    """Exact membership in the split region attached to an ordered split.

    The extended point must clear three strict tests: the blocks are
    separated by more than the spread (cheap, checked first), and inside
    each block every cluster radius stays below the spread.
    """
    y = rational_point(y)
    _require_open_cube(y)
    n = len(y) + 1
    _validate_split(low_mask, high_mask, n)
    z = anchored(y)
    spread = normalized_spread(z)
    gap = min(z[j - 1] for j in mask_vertices(high_mask)) - max(
        z[i - 1] for i in mask_vertices(low_mask)
    )
    if gap <= spread:
        return False
    if any(cluster_radius(z, low_mask, i) >= spread for i in mask_vertices(low_mask)):
        return False
    return all(
        cluster_radius(z, high_mask, j) < spread for j in mask_vertices(high_mask)
    )


def split_center(low_mask, high_mask, n):
    """The distinguished interior point of a split region.

    The block holding the anchor vertex ``n`` sits at its anchor value 0;
    the other block sits half a unit away on the correct side.
    """
    _validate_split(low_mask, high_mask, n)
    if high_mask & (1 << n):
        low_value, high_value = -_HALF, _ZERO
    else:
        low_value, high_value = _ZERO, _HALF
    return tuple(
        low_value if low_mask & (1 << k) else high_value for k in range(1, n)
    )


def contract_toward_center(y, low_mask, high_mask, t):
    """Straight-line contraction of a split-region point onto the center."""
    y = rational_point(y)
    t = as_fraction(t)
    if not _ZERO <= t <= _ONE:
        raise ValueError("contraction time must lie in [0, 1]")
    if not in_split_region(y, low_mask, high_mask):
        raise ValueError("point is outside the split region")
    center = split_center(low_mask, high_mask, len(y) + 1)
    return tuple((_ONE - t) * yk + t * bk for yk, bk in zip(y, center))


# ----------------------------------------------------------------------
# radial gauge


def _validate_tolerance(tol):
    tol = as_fraction(tol)
    if not _ZERO < tol < _ONE:
        raise ValueError("tolerance must lie strictly between 0 and 1")
    return tol

def _gauge_radius(low_mask, high_mask, direction, tol):
    """Bisect for the exit radius of a region ray.

    ``direction`` is a max-norm unit vector.  The region is star-shaped
    about its center, so membership along the ray is an interval starting
    at 0; we keep ``lo`` inside, ``hi`` outside (seeded by the cube exit
    radius), and shrink until the bracket is relatively smaller than
    ``tol``.  The returned upper end never undershoots the true radius,
    which keeps the gauge strictly inside the open cube.
    """
    n = len(direction) + 1
    center = split_center(low_mask, high_mask, n)
    hi = min(
        (_ONE - bk) / uk if uk > 0 else (-_ONE - bk) / uk
        for bk, uk in zip(center, direction)
        if uk != 0
    )
    lo = _ZERO
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2
        point = tuple(bk + mid * uk for bk, uk in zip(center, direction))
        if in_split_region(point, low_mask, high_mask):
            lo = mid
        else:
            hi = mid
    return hi


def radial_gauge(low_mask, high_mask, y, tol=DEFAULT_TOLERANCE):
    """Identify a split region with the open cube, radially from the center.

    The image of ``y`` points the same way as ``y - center`` and has
    max-norm ``|y - center| / radius``, strictly below 1.  The center
    itself maps to the origin.
    """
    tol = _validate_tolerance(tol)
    y = rational_point(y)
    if not in_split_region(y, low_mask, high_mask):
        raise ValueError("point is outside the split region")
    center = split_center(low_mask, high_mask, len(y) + 1)
    offset = tuple(yk - bk for yk, bk in zip(y, center))
    norm = max(abs(u) for u in offset)
    if norm == 0:
        return offset
    direction = tuple(u / norm for u in offset)
    radius = _gauge_radius(low_mask, high_mask, direction, tol)
    return tuple(u / radius for u in offset)


def radial_gauge_inverse(low_mask, high_mask, w, tol=DEFAULT_TOLERANCE):
    """Pull a cube point back into the split region.

    Composing with :func:`radial_gauge` in either order is exact, not
    merely tolerance-close: both directions normalise the same ray, so
    the bisection returns the identical radius.
    """
    tol = _validate_tolerance(tol)
    w = rational_point(w)
    _require_open_cube(w)
    n = len(w) + 1
    _validate_split(low_mask, high_mask, n)
    center = split_center(low_mask, high_mask, n)
    norm = max(abs(c) for c in w)
    if norm == 0:
        return center
    direction = tuple(c / norm for c in w)
    radius = _gauge_radius(low_mask, high_mask, direction, tol)
    return tuple(bk + ck * radius for bk, ck in zip(center, w))


# ----------------------------------------------------------------------
# smash membership


def _interior_support(payload):
    mask = 0
    for k, c in enumerate(payload, start=1):
        if -1 < c < 1:
            mask |= 1 << k
    return mask


def _validate_payload(complex, payload):
    if len(payload) != complex.n:
        raise ValueError("payload length must match the vertex count")
    if any(not -_ONE <= c <= _ONE for c in payload):
        raise ValueError("payload coordinates must lie in [-1, 1]")


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


def _blocked_obstruction(complex, anchor, payload):
    """First level block on which the payload's support is not a face."""
    support = _interior_support(payload)
    for block in partition_from_point(anchor):
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
    if min(anchor) == max(anchor):
        return False
    return _blocked_obstruction(complex, anchor, payload) is None


# ----------------------------------------------------------------------
# points of suspensions


class SuspensionPoint:
    """A point of an iterated suspension: cube parameters over a payload.

    Parameters live in [-1, 1]; hitting an end collapses the point, as
    does a payload coordinate at the basepoint -1.  ``basepoint()`` makes
    the canonical collapsed point, and equality identifies every
    collapsed representative.
    """

    __slots__ = ("params", "payload", "_collapsed")

    def __init__(self, params, payload):
        self.params = rational_point(params)
        self.payload = rational_point(payload)
        if any(abs(t) > 1 for t in self.params):
            raise ValueError("suspension parameters must lie in [-1, 1]")
        if any(not -_ONE <= c <= _ONE for c in self.payload):
            raise ValueError("payload coordinates must lie in [-1, 1]")
        self._collapsed = False

    @classmethod
    def basepoint(cls):
        point = cls.__new__(cls)
        point.params = ()
        point.payload = ()
        point._collapsed = True
        return point

    @property
    def is_basepoint(self):
        return (
            self._collapsed
            or any(abs(t) == 1 for t in self.params)
            or any(c == -1 for c in self.payload)
        )

    def __eq__(self, other):
        if not isinstance(other, SuspensionPoint):
            return NotImplemented
        if self.is_basepoint or other.is_basepoint:
            return self.is_basepoint and other.is_basepoint
        return self.params == other.params and self.payload == other.payload

    def __hash__(self):
        if self.is_basepoint:
            return hash("suspension-basepoint")
        return hash((self.params, self.payload))

    def __repr__(self):
        if self.is_basepoint:
            return "SuspensionPoint.basepoint()"
        return f"SuspensionPoint({self.params!r}, {self.payload!r})"


class PartitionedSmashPoint:
    """A suspended point of the blocked smash union.

    Holds one suspension height, the anchor that determines the level
    partition, and the payload.  Height at either end or a payload
    coordinate at -1 collapses the point.
    """

    __slots__ = ("height", "anchor", "payload", "_collapsed")

    def __init__(self, height, anchor, payload):
        self.height = as_fraction(height)
        self.anchor = rational_point(anchor)
        self.payload = rational_point(payload)
        if abs(self.height) > 1:
            raise ValueError("height must lie in [-1, 1]")
        if any(not -_ONE <= c <= _ONE for c in self.payload):
            raise ValueError("payload coordinates must lie in [-1, 1]")
        self._collapsed = False

    @classmethod
    def basepoint(cls):
        point = cls.__new__(cls)
        point.height = -_ONE
        point.anchor = ()
        point.payload = ()
        point._collapsed = True
        return point

    @property
    def is_basepoint(self):
        return (
            self._collapsed
            or abs(self.height) == 1
            or any(c == -1 for c in self.payload)
        )

    def __eq__(self, other):
        if not isinstance(other, PartitionedSmashPoint):
            return NotImplemented
        if self.is_basepoint or other.is_basepoint:
            return self.is_basepoint and other.is_basepoint
        return (
            self.height == other.height
            and self.anchor == other.anchor
            and self.payload == other.payload
        )

    def __hash__(self):
        if self.is_basepoint:
            return hash("partitioned-basepoint")
        return hash((self.height, self.anchor, self.payload))

    def __repr__(self):
        if self.is_basepoint:
            return "PartitionedSmashPoint.basepoint()"
        return (
            f"PartitionedSmashPoint({self.height!r}, {self.anchor!r}, "
            f"{self.payload!r})"
        )


def _height_parameter(params):
    return max((abs(t) for t in params), default=_ZERO)


def _validate_suspension_input(complex, omega):
    if not isinstance(omega, SuspensionPoint):
        raise ValueError("expected a SuspensionPoint")
    if omega._collapsed:
        return
    if len(omega.params) != complex.n - 1:
        raise ValueError("expected one suspension parameter per non-anchor vertex")
    _validate_payload(complex, omega.payload)


# ----------------------------------------------------------------------
# damping


def _damping_factors(z):
    """Per-coordinate damping weights for an anchor point.

    Coordinate ``i`` keeps weight 1 when it clusters perfectly (radius 0)
    and is crushed to 0 once its cluster radius reaches the spread.
    """
    spread = normalized_spread(z)
    if spread == 0:
        raise ValueError("damping undefined on a constant anchor")
    everything = full_mask(len(z))
    factors = []
    for i in range(1, len(z) + 1):
        radius = cluster_radius(z, everything, i)
        factors.append(max(_ZERO, (spread - radius) / spread))
    return tuple(factors)


def damped_coordinate(z, i, x_i):
    """Pull one payload coordinate toward the basepoint.

    The coordinate is fixed when its cluster radius is zero and lands
    exactly on -1 once the radius reaches the spread.
    """
    z = rational_point(z)
    if not 1 <= i <= len(z):
        raise ValueError(f"coordinate index {i} out of range")
    x = as_fraction(x_i)
    if not -_ONE <= x <= _ONE:
        raise ValueError("payload coordinate must lie in [-1, 1]")
    return (_ONE + x) * _damping_factors(z)[i - 1] - _ONE


# ----------------------------------------------------------------------
# tagging evaluators


def _damped_point(complex, beta, z, payload, leaves, t=_ONE):
    """The point at height ``2β - 1`` over anchor ``z``, payload damped.

    The payload moves along the straight line from itself (time 0) to its
    full damping against ``z`` (time 1).  Raises
    :class:`MembershipViolation`, its message led by ``leaves``, when the
    moved payload leaves the blocked smash.
    """
    moved = tuple(
        (_ONE - t) * x + t * ((_ONE + x) * f - _ONE)
        for x, f in zip(payload, _damping_factors(z))
    )
    point = PartitionedSmashPoint(2 * beta - 1, z, moved)
    if point.is_basepoint:
        return point
    obstruction = _blocked_obstruction(complex, z, moved)
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
    _validate_suspension_input(complex, omega)
    if omega.is_basepoint:
        return PartitionedSmashPoint.basepoint()
    if not in_smashed_complex(complex, omega.payload):
        raise ValueError("payload is not a point of the smashed model")
    beta = _height_parameter(omega.params)
    if beta == 0:
        return PartitionedSmashPoint.basepoint()
    z = anchored(omega.params)
    point = PartitionedSmashPoint(2 * beta - 1, z, omega.payload)
    assert in_partitioned_smash(complex, z, omega.payload)
    return point


def factor_tagging_map(complex, low_mask, high_mask, omega, tol=DEFAULT_TOLERANCE):
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
    pulled = radial_gauge_inverse(low_mask, high_mask, omega.params, tol)
    return _damped_point(complex, beta, anchored(pulled), omega.payload,
                         "damped payload leaves the blocked smash")


def pinch_map(y, tol=DEFAULT_TOLERANCE):
    """Route a cube point to the split region containing it.

    Returns ``None`` (the wedge basepoint) when no region contains the
    point, otherwise ``((low, high), gauge)`` with the region's ordered
    split and the gauged cube point.  Disjointness of the regions makes
    the first hit the only one.
    """
    y = rational_point(y)
    _require_open_cube(y)
    n = len(y) + 1
    for low, high in enumerate_balanced_splits(n):
        if in_split_region(y, low, high):
            return (low, high), radial_gauge(low, high, y, tol)
    return None


def pinch_on_suspension(complex, omega, tol=DEFAULT_TOLERANCE):
    """Pinch acting on suspension parameters only, payload untouched.

    Returns ``None`` for the wedge basepoint, else a ``(split, point)``
    pair tagging which wedge factor received the point.
    """
    _validate_suspension_input(complex, omega)
    if omega.is_basepoint:
        return None
    if not in_smashed_complex(complex, omega.payload):
        raise ValueError("payload is not a point of the smashed model")
    routed = pinch_map(omega.params, tol)
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
    _validate_suspension_input(complex, omega)
    t = as_fraction(t)
    if not _ZERO <= t <= _ONE:
        raise ValueError("homotopy time must lie in [0, 1]")
    if omega.is_basepoint:
        return PartitionedSmashPoint.basepoint()
    if not in_smashed_complex(complex, omega.payload):
        raise ValueError("payload is not a point of the smashed model")
    beta = _height_parameter(omega.params)
    if beta == 0:
        return PartitionedSmashPoint.basepoint()
    return _damped_point(complex, beta, anchored(omega.params), omega.payload,
                         f"homotopy leaves the blocked smash at time {t}", t)


def pinched_composite(complex, omega, tol=DEFAULT_TOLERANCE):
    """Factor tagging maps glued along the pinch.

    Points whose parameters miss every split region collapse; the rest
    are gauged into their region and back (exactly, by the shared-ray
    property of the gauge) and damped there.  The height parameter is
    taken from the original input, which makes the composite agree with
    the end of :func:`tagging_homotopy` on the nose.
    """
    _validate_suspension_input(complex, omega)
    if omega.is_basepoint:
        return PartitionedSmashPoint.basepoint()
    if not in_smashed_complex(complex, omega.payload):
        raise ValueError("payload is not a point of the smashed model")
    beta = _height_parameter(omega.params)
    if beta == 0:
        return PartitionedSmashPoint.basepoint()
    routed = pinch_map(omega.params, tol)
    if routed is None:
        return PartitionedSmashPoint.basepoint()
    (low, high), gauged = routed
    pulled = radial_gauge_inverse(low, high, gauged, tol)
    return _damped_point(complex, beta, anchored(pulled), omega.payload,
                         "pinched composite leaves the blocked smash")
