"""Randomized exact verification harnesses for the cluster geometry.

The evaluators in :mod:`momentangle.clusters` are pointwise and exact, so
their governing identities can be checked by sampling rational points and
evaluating predicates — no numerics, no tolerance anywhere, not even
in the radial gauge.  Samples and reports are ``Fraction`` values; the
cluster layer works on each point as integer numerators over one common
denominator and hands ``Fraction`` statistics back.  This module supplies
the samplers, two aggregate report builders used by the command line,
and a deterministic constructor for a tagging-map membership violation
on complexes where some small vertex set fails to be a face.

A sample's region tags come from :func:`~momentangle.clusters.split_tags`,
which tests only the cuts of the sorted point, and every cluster radius
of a block from one sort (:func:`~momentangle.clusters.cluster_radii`).
Both reports draw parameters from one seeded sampler.  The retraction
check scales the sampled point to integers once and moves those
numerators toward the split center, so each contracted point's region
test, width and radii are integer work with no ``Fraction`` built.
"""

import random
from fractions import Fraction

from .clusters import (
    MembershipViolation,
    SuspensionPoint,
    _center_halves,
    _region_radii,
    _scaled,
    anchored,
    enumerate_balanced_splits,
    factor_tagging_map,
    in_cluster_region,
    in_split_region,
    pinched_composite,
    radial_gauge,
    radial_gauge_inverse,
    split_center,
    split_tags,
    tagging_homotopy,
    tagging_map,
)
from .complexes import full_mask, mask_vertices

DEFAULT_DENOMINATOR = 2**20


def _grid_value(rng):
    """A uniform value of the open interval (-1, 1) on the sampling grid."""
    top = DEFAULT_DENOMINATOR - 1
    return Fraction(rng.randint(-top, top), DEFAULT_DENOMINATOR)


def sample_open_cube(rng, dims):
    """A uniform rational point strictly inside the cube, on a fixed grid."""
    return tuple(_grid_value(rng) for _ in range(dims))


def sample_near(rng, center, spread):
    """A point perturbed around a split center, still inside the cube."""
    spread = Fraction(spread)
    if not 0 < spread < Fraction(1, 2):
        raise ValueError("spread must lie strictly between 0 and 1/2")
    return tuple(c + spread * _grid_value(rng) for c in center)


def sample_smash_payload(rng, complex):
    """A random point of the complex's smashed model.

    Picks a face, fills its coordinates from the open interval and the
    rest from the interval ends, favouring the non-basepoint end (nine
    draws in ten) so that most samples are informative.
    """
    faces = sorted(complex.faces)
    sigma = rng.choice(faces)
    out = []
    for i in range(1, complex.n + 1):
        if sigma & (1 << i):
            out.append(_grid_value(rng))
        elif rng.random() < 0.9:
            out.append(Fraction(1))
        else:
            out.append(Fraction(-1))
    return tuple(out)


def _report_params(rng, n, samples):
    """A report's parameter points, drawn lazily from ``rng``.

    Even draws are uniform; odd draws (if ``n`` has splits) perturb a
    random split center by ``1/(4n)``, as the regions shrink with ``n``.
    """
    splits = enumerate_balanced_splits(n)
    spread = Fraction(1, 4 * n)
    return (
        sample_near(rng, split_center(*splits[rng.randrange(len(splits))], n), spread)
        if splits and k % 2
        else sample_open_cube(rng, n - 1)
        for k in range(samples)
    )


def split_region_report(n, samples, seed):
    """Sampled statistics for the split-region decomposition.

    Half the points are uniform over the cube, half are perturbed around
    split centers so the (small) regions are actually exercised.  Every
    counted breach is a failure of an exact predicate identity: regions
    overlapping, a region point outside the cluster region, or a cluster
    point missed by every region.  Every tagged point makes a gauge round
    trip, which must reproduce it exactly.
    """
    if n < 2:
        raise ValueError(f"split regions need n >= 2 coordinates, got n = {n}")
    if samples < 1:
        raise ValueError("need at least one sample")
    report = {
        "n": n,
        "samples": samples,
        "splits": len(enumerate_balanced_splits(n)),
        "in_cluster": 0,
        "tagged": 0,
        "overlap_breaches": 0,
        "coverage_breaches": 0,
        "stray_tag_breaches": 0,
        "retraction_checked": 0,
        "retraction_breaches": 0,
        "gauge_trips": 0,
        "gauge_failures": 0,
    }
    times = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    for y in _report_params(random.Random(seed), n, samples):
        tags = split_tags(y)
        clustered = in_cluster_region(y)
        if clustered:
            report["in_cluster"] += 1
        if len(tags) > 1:
            report["overlap_breaches"] += 1
        if clustered and not tags:
            report["coverage_breaches"] += 1
        if tags and not clustered:
            report["stray_tag_breaches"] += 1
        if tags:
            report["tagged"] += 1
            low, high = tags[0]
            if not _retraction_holds(y, low, high, n, times):
                report["retraction_breaches"] += 1
            report["retraction_checked"] += 1
            if radial_gauge_inverse(low, high, radial_gauge(low, high, y)) != y:
                report["gauge_failures"] += 1
            report["gauge_trips"] += 1
    return report


def _retraction_holds(y, low, high, n, times):
    """Contraction closure plus the exact spread/radius scaling laws, on
    integers.

    The anchored point is scaled once to numerators c over ``den``.  At
    time t = a/b the contracted point (1 - t)·y + t·center has the
    numerators c' = 2(b - a)·c + a·h·den over 2b·den, where h is twice
    the center's coordinate (0 at the anchor).  Each c' must lie strictly
    inside the cube, else ``ValueError`` as from the region test, and
    each contracted point in the region.  There the laws are integer
    identities: the width (max - min) becomes 2(b - a)·width + a·den,
    which is the spread law spread' = (1 - t)·spread + t/(2n), and every
    cluster radius r becomes 2(b - a)·r.
    """
    halves = _center_halves(low, high, len(y) + 1) + (0,)
    nums, den = _scaled(anchored(y))
    size = len(nums)
    stats = _region_radii(nums, low, high)
    if stats is None:
        return False
    width, *radii = stats
    for t in times:
        a, b = t.numerator, t.denominator
        keep, bound = 2 * (b - a), 2 * b * den
        moved = [keep * c + a * h * den for c, h in zip(nums, halves)]
        if any(abs(c) >= bound for c in moved):
            raise ValueError("point must lie strictly inside the cube")
        stats = _region_radii(moved, low, high)
        if stats is None:
            return False
        width_t, *radii_t = stats
        # the spread law times 2b·den·size·n, for any n the caller passes
        if n * (width_t - keep * width) != a * den * size:
            return False
        for before, after in zip(radii, radii_t):
            if after != {v: keep * r for v, r in before.items()}:
                return False
    return True


def homotopy_report(complex, samples, seed):
    """Endpoint identities of the tagging homotopy on sampled points.

    Time 0 must reproduce the tagging map exactly.  Time 1 must agree
    with the pinched composite: basepoints match up, and on non-basepoint
    values the worst height/anchor deviation is recorded (zero, as the
    gauge round trip is exact) and the payload is compared exactly.
    Membership violations are counted rather than raised, so the report
    is also useful on complexes that fail the neighbourliness hypothesis.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    report = {
        "samples": samples,
        "start_mismatches": 0,
        "end_mismatches": 0,
        "end_compared": 0,
        "end_nonbasepoint": 0,
        "membership_violations": 0,
        "max_end_error": Fraction(0),
    }
    for params in _report_params(rng, complex.n, samples):
        omega = SuspensionPoint(params, sample_smash_payload(rng, complex))
        try:
            start = tagging_homotopy(complex, omega, 0)
            if start != tagging_map(complex, omega):
                report["start_mismatches"] += 1
            for mid in (Fraction(1, 4), Fraction(3, 4)):
                tagging_homotopy(complex, omega, mid)
            end = tagging_homotopy(complex, omega, 1)
            composite = pinched_composite(complex, omega)
        except MembershipViolation:
            report["membership_violations"] += 1
            continue
        report["end_compared"] += 1
        if end.is_basepoint or composite.is_basepoint:
            if end.is_basepoint != composite.is_basepoint:
                report["end_mismatches"] += 1
            continue
        report["end_nonbasepoint"] += 1
        error = max(
            abs(end.height - composite.height),
            max(abs(a - b) for a, b in zip(end.anchor, composite.anchor)),
        )
        if end.payload != composite.payload:
            report["end_mismatches"] += 1
        report["max_end_error"] = max(report["max_end_error"], error)
    return report


def find_tagging_violation(complex):
    """Deterministically build a point where a factor tagging map escapes.

    When some vertex set with at most a third of the vertices is not a
    face, the damping can strand exactly that set as the interior support
    of a level block, so the factor tagging map lands outside the blocked
    smash.  Returns the full witness (split, pre-gauge point, suspension
    point, failing block) or ``None`` when every small set is a face —
    including ambient sizes with no balanced splits at all.
    """
    n = complex.n
    m = n // 3
    if m == 0 or not enumerate_balanced_splits(n):
        return None
    small = [f for f in complex.minimal_non_faces if f.bit_count() <= m]
    if not small:
        return None
    culprit = min(small, key=lambda f: (f.bit_count(), f))
    # the culprit's block, padded with helper vertices to a legal size
    low = culprit
    for v in range(1, n + 1):
        if low.bit_count() == n // 3 + 1:
            break
        if v != n and not low & (1 << v):
            low |= 1 << v
    high = full_mask(n) ^ low
    helpers = sorted(mask_vertices(low ^ culprit))
    low_value = Fraction(0) if culprit & (1 << n) else Fraction(-1, 2)
    high_value = low_value + Fraction(1, 2)
    step = Fraction(1, 64 * n * n)
    values = {}
    for v in mask_vertices(culprit):
        values[v] = low_value
    for j, v in enumerate(helpers, start=1):
        # distinct offsets give every helper a positive cluster radius
        values[v] = low_value + j * step
    for v in mask_vertices(high):
        values[v] = high_value
    pre_gauge = tuple(values[v] for v in range(1, n))
    if not in_split_region(pre_gauge, low, high):
        raise AssertionError("constructed point missed its split region")
    params = radial_gauge(low, high, pre_gauge)
    omega = SuspensionPoint(params, (Fraction(1),) * n)
    try:
        factor_tagging_map(complex, low, high, omega)
    except MembershipViolation as exc:
        return {
            "low_block": low,
            "high_block": high,
            "culprit": culprit,
            "pre_gauge": pre_gauge,
            "params": params,
            "payload": omega.payload,
            "failed_block": exc.failed_block,
            "support": exc.support,
        }
    raise AssertionError("constructed point unexpectedly stayed inside")
