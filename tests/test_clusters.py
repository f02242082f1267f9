"""Exact rational cluster geometry: regions, gauge, tagging evaluators."""

from fractions import Fraction

import pytest

from momentangle import (
    MembershipViolation,
    PartitionedSmashPoint,
    SuspensionPoint,
    anchored,
    cluster_radii,
    cluster_radius,
    contract_toward_center,
    cycle_complex,
    damped_coordinate,
    enumerate_balanced_splits,
    factor_tagging_map,
    full_skeleton,
    in_cluster_region,
    in_partitioned_smash,
    in_smashed_complex,
    in_split_region,
    mask_vertices,
    max_cluster_radius,
    new_complex,
    normalized_spread,
    partition_from_point,
    pinch_map,
    pinch_on_suspension,
    pinched_composite,
    radial_gauge,
    radial_gauge_inverse,
    single_non_face,
    split_center,
    split_region_statistics,
    split_tags,
    tagging_homotopy,
    tagging_map,
    vertex_mask,
)
from momentangle import clusters
from momentangle.clusters import (
    MAX_SPLIT_VERTICES,
    _gauge_radius,
    as_fraction,
    rational_point,
)
from momentangle.verify import sample_near, sample_open_cube, sample_smash_payload

from util import (
    brute_split_tags,
    fixture_complex,
    load_fixture,
    per_vertex_cluster_radius,
    seeded,
)

F = Fraction

# anchored(WORKED_Y) has spread 9/40 and cluster radii (0, 0, 1/10, 1/10)
WORKED_Y = (F(-4, 5), F(-4, 5), F(1, 10))


def test_fraction_coercion():
    assert as_fraction("3/4") == F(3, 4)
    assert as_fraction(2) == F(2)
    assert rational_point(["1/2", 0]) == (F(1, 2), F(0))
    assert anchored((F(1, 2),)) == (F(1, 2), F(0))


def test_cluster_radius_worked_example():
    z = anchored(WORKED_Y)
    everything = vertex_mask([1, 2, 3, 4])
    radii = [cluster_radius(z, everything, i) for i in range(1, 5)]
    assert radii == [F(0), F(0), F(1, 10), F(1, 10)]
    assert max_cluster_radius(z, everything) == F(1, 10)
    assert normalized_spread(z) == F(9, 40)
    with pytest.raises(ValueError):
        cluster_radius(z, vertex_mask([1, 2]), 3)


def test_cluster_radius_small_blocks():
    # fewer than three coordinates: the statistic floor m is zero
    assert cluster_radius((F(0), F(1)), vertex_mask([1, 2]), 1) == 0
    # a singleton block has no other member within reach of m = 1
    z = (F(0), F(1), F(2))
    assert cluster_radius(z, vertex_mask([2]), 2) == 0
    assert max_cluster_radius(z, 0) == 0
    with pytest.raises(ValueError):
        normalized_spread(())


def test_partition_from_point():
    parts = partition_from_point((-1, "22/7", -1, 0))
    assert parts == (vertex_mask([1, 3]), vertex_mask([4]), vertex_mask([2]))
    # explicit vertex set: values attach to ascending members of the mask
    parts = partition_from_point((5, 1), vertices_mask=vertex_mask([2, 6]))
    assert parts == (vertex_mask([6]), vertex_mask([2]))
    with pytest.raises(ValueError):
        partition_from_point((1, 2), vertices_mask=vertex_mask([1]))


def test_enumerate_balanced_splits_counts():
    assert len(enumerate_balanced_splits(2)) == 2
    assert enumerate_balanced_splits(3) == ()
    assert len(enumerate_balanced_splits(4)) == 6
    assert len(enumerate_balanced_splits(5)) == 20
    assert len(enumerate_balanced_splits(6)) == 20
    for n in (2, 4, 5, 6):
        splits = enumerate_balanced_splits(n)
        full = vertex_mask(range(1, n + 1))
        for low, high in splits:
            assert low | high == full and not low & high
            assert 3 * low.bit_count() > n and 3 * high.bit_count() > n
            assert (high, low) in splits
    with pytest.raises(ValueError):
        enumerate_balanced_splits(MAX_SPLIT_VERTICES + 1)
    with pytest.raises(ValueError):
        enumerate_balanced_splits(0)


def test_cluster_region_membership():
    assert in_cluster_region(WORKED_Y)
    # evenly spread coordinates cluster too loosely
    assert not in_cluster_region((F(-1, 2), F(0), F(1, 2)))
    with pytest.raises(ValueError):
        in_cluster_region((F(1), F(0), F(0)))
    with pytest.raises(ValueError):
        in_cluster_region(())


def test_split_region_unique_tag_on_worked_example():
    tags = brute_split_tags(WORKED_Y)
    assert tags == split_tags(WORKED_Y) == [(vertex_mask([1, 2]), vertex_mask([3, 4]))]


def tag_sample_points():
    """Seeded cube points for n = 2..9 of four kinds.

    Uniform points, points near split centers, exact split centers, and
    quarter-grid points, whose coordinates tie often.
    """
    rng = seeded(606)
    points = []
    for n in range(2, 10):
        splits = enumerate_balanced_splits(n)
        centers = [split_center(low, high, n) for low, high in splits]
        for _ in range(30):
            points.append(sample_open_cube(rng, n - 1))
            points.append(tuple(F(rng.randint(-3, 3), 4) for _ in range(n - 1)))
            if centers:
                points.append(centers[rng.randrange(len(centers))])
                points.append(sample_near(rng, centers[rng.randrange(len(centers))],
                                          F(1, 4 * n)))
    return points


def test_split_tags_and_pinch_map_match_brute_scan():
    counts = {0: 0, 1: 0}
    for y in tag_sample_points():
        brute = brute_split_tags(y)
        assert split_tags(y) == brute, y
        counts[len(brute)] += 1
        routed = pinch_map(y)
        if not brute:
            assert routed is None
        else:
            assert routed == (brute[0], radial_gauge(*brute[0], y))
    assert counts[0] > 100 and counts[1] > 100


def test_split_tags_cuts_on_a_third():
    half = F(1, 2)
    # a cut leaving exactly n/3 vertices on one side is not a balanced split
    for n in (3, 6, 9):
        third = n // 3
        low_third = (-half,) * third + (F(0),) * (n - 1 - third)
        high_third = (F(0),) * (n - 1 - third) + (half,) * third
        for y in (low_third, high_third):
            assert split_tags(y) == brute_split_tags(y) == []
    # one vertex more on the small side is balanced, and tagged
    y = (-half,) * 4 + (F(0),) * 4
    assert split_tags(y) == brute_split_tags(y) == [
        (vertex_mask([1, 2, 3, 4]), vertex_mask(range(5, 10)))]
    # the shortcut never enumerates splits, so it has no vertex cap
    low, high = vertex_mask(range(1, 8)), vertex_mask(range(8, 21))
    assert split_tags(split_center(low, high, 20)) == [(low, high)]


def test_split_tags_confirms_only_strict_cuts(monkeypatch):
    seen = []
    confirm = clusters._region_radii

    def spy(nums, low, high):
        seen.append((nums, low, high))
        return confirm(nums, low, high)

    monkeypatch.setattr(clusters, "_region_radii", spy)
    rng = seeded(808)
    confirmed = 0
    for n in range(2, 10):
        for _ in range(20):
            y = tuple(F(rng.randint(-2, 2), 4) for _ in range(n - 1))
            seen.clear()
            split_tags(y)
            assert len(seen) <= n - 1
            for nums, low, high in seen:
                assert len(nums) == n
                assert max(nums[i - 1] for i in mask_vertices(low)) < \
                    min(nums[j - 1] for j in mask_vertices(high))
            confirmed += len(seen)
    # the spy sits on the routine that does the work
    assert confirmed > 100


def test_cluster_radii_match_per_vertex_rule():
    rng = seeded(707)
    sizes = set()
    for _ in range(1500):
        n = rng.randint(1, 12)
        denominator = rng.choice((1, 2, 4, 2**20))
        top = 4 * denominator
        z = tuple(F(rng.randint(-top, top), denominator) for _ in range(n))
        block = vertex_mask(rng.sample(range(1, n + 1), rng.randint(0, n)))
        radii = cluster_radii(z, block)
        assert radii == {i: per_vertex_cluster_radius(z, block, i)
                         for i in mask_vertices(block)}
        for i in mask_vertices(block):
            assert cluster_radius(z, block, i) == radii[i]
        assert max_cluster_radius(z, block) == max(radii.values(), default=0)
        sizes.add((n // 3, min(block.bit_count(), n // 3 + 1)))
    # m = 0, and blocks below, at and above m + 1 members, all occur
    assert {(0, 0), (0, 1), (2, 1), (2, 2), (2, 3), (4, 4), (4, 5)} <= sizes


def test_cluster_radii_refuses_foreign_vertices():
    z = (F(0), F(1), F(3))
    # bit 0 would be a phantom vertex 0 reading z[-1]
    for block in (1, 1 | vertex_mask([1, 2]), vertex_mask([4]),
                  vertex_mask([1, 9]), -2):
        with pytest.raises(ValueError):
            cluster_radii(z, block)
    assert cluster_radii(z, vertex_mask([1, 2, 3])) == \
        {1: F(1), 2: F(1), 3: F(2)}
    assert cluster_radii((), 0) == {}


def test_split_region_validation():
    y = WORKED_Y
    with pytest.raises(ValueError):
        in_split_region(y, vertex_mask([1]), vertex_mask([2, 3, 4]))
    with pytest.raises(ValueError):
        in_split_region(y, vertex_mask([1, 2]), vertex_mask([2, 3, 4]))
    with pytest.raises(ValueError):
        in_split_region(y, vertex_mask([1, 2]), vertex_mask([3]))
    with pytest.raises(ValueError):
        in_split_region((F(2), F(0), F(0)), vertex_mask([1, 2]),
                        vertex_mask([3, 4]))


def test_split_centers_live_in_their_regions():
    for n in (2, 4, 5, 6):
        for low, high in enumerate_balanced_splits(n):
            center = split_center(low, high, n)
            assert len(center) == n - 1
            assert in_split_region(center, low, high)
            # the anchor's block sits at value zero
            anchor_block = low if low & (1 << n) else high
            for v in range(1, n):
                if anchor_block & (1 << v):
                    assert center[v - 1] == 0
    assert split_center(vertex_mask([1, 2]), vertex_mask([3, 4]), 4) == \
        (F(-1, 2), F(-1, 2), F(0))
    assert split_center(vertex_mask([3, 4]), vertex_mask([1, 2]), 4) == \
        (F(1, 2), F(1, 2), F(0))


def test_contraction_identities():
    low, high = vertex_mask([1, 2]), vertex_mask([3, 4])
    y = WORKED_Y
    assert split_region_statistics(y, low, high) == \
        (F(9, 40), {1: F(0), 2: F(0)}, {3: F(1, 10), 4: F(1, 10)})
    assert split_region_statistics(y, high, low) is None
    assert contract_toward_center(y, low, high, 0) == y
    assert contract_toward_center(y, low, high, 1) == \
        split_center(low, high, 4)
    z = anchored(y)
    spread = normalized_spread(z)
    for t in (F(1, 4), F(1, 2), F(7, 8)):
        yt = contract_toward_center(y, low, high, t)
        assert in_split_region(yt, low, high)
        zt = anchored(yt)
        assert normalized_spread(zt) == (1 - t) * spread + t * F(1, 8)
        for i in range(1, 5):
            block = low if low & (1 << i) else high
            assert cluster_radius(zt, block, i) == \
                (1 - t) * cluster_radius(z, block, i)
    with pytest.raises(ValueError):
        contract_toward_center(y, low, high, F(3, 2))
    with pytest.raises(ValueError):
        contract_toward_center((F(1, 2), F(0), F(0)), low, high, 0)


def test_radial_gauge_center_and_frozen_ray():
    low, high = vertex_mask([1, 4]), vertex_mask([2, 3])
    center = split_center(low, high, 4)
    assert center == (F(0), F(1, 2), F(1, 2))
    assert radial_gauge(low, high, center) == (0, 0, 0)
    assert radial_gauge_inverse(low, high, (F(0),) * 3) == center
    # along the first axis the region ends exactly at radius 1/8, the
    # point where vertex 1's cluster radius reaches the spread
    y = (F(1, 32), F(1, 2), F(1, 2))
    assert radial_gauge(low, high, y) == (F(1, 4), F(0), F(0))


def test_radial_gauge_round_trips_exactly():
    rng = seeded(61)
    trips = 0
    for n in (4, 5):
        splits = enumerate_balanced_splits(n)
        centers = {s: split_center(*s, n) for s in splits}
        while trips < (40 if n == 4 else 70):
            split = splits[rng.randrange(len(splits))]
            y = sample_near(rng, centers[split], F(1, 16))
            if not in_split_region(y, *split):
                continue
            w = radial_gauge(*split, y)
            assert max(abs(c) for c in w) < 1
            assert radial_gauge_inverse(*split, w) == y
            assert radial_gauge(*split, radial_gauge_inverse(*split, w)) == w
            trips += 1
    assert trips == 70


def test_radial_gauge_validation():
    low, high = vertex_mask([1, 2]), vertex_mask([3, 4])
    outside = (F(1, 2), F(0), F(0))
    with pytest.raises(ValueError):
        radial_gauge(low, high, outside)
    with pytest.raises(ValueError):
        radial_gauge_inverse(low, high, (F(1), F(0), F(0)))


def seeded_rays(rng, n, count):
    """Splits of ``n`` paired with seeded max-norm unit directions."""
    splits = enumerate_balanced_splits(n)
    for _ in range(count):
        u = [F(rng.randint(-999, 999), 1000) for _ in range(n - 1)]
        norm = max(abs(c) for c in u) or F(1)
        yield splits[rng.randrange(len(splits))], tuple(c / norm for c in u)


def test_gauge_radius_is_the_exact_exit():
    rng = seeded(67)
    region_exits = 0
    for n in range(4, 10):
        for (low, high), u in seeded_rays(rng, n, 25):
            center = split_center(low, high, n)
            radius = _gauge_radius(low, high, u)
            at = tuple(b + radius * c for b, c in zip(center, u))
            if max(abs(c) for c in at) < 1:
                assert not in_split_region(at, low, high)
                region_exits += 1
            else:
                assert max(abs(c) for c in at) == 1
            short = radius * (1 - F(1, 2**30))
            assert in_split_region(
                tuple(b + short * c for b, c in zip(center, u)), low, high)
    assert region_exits > 100


def test_gauge_inverse_near_the_cube_boundary_stays_in_region():
    # an upper bracket of the exit radius would map these just outside
    rng = seeded(71)
    for n in range(4, 10):
        for (low, high), u in seeded_rays(rng, n, 10):
            w = tuple((1 - F(1, 2**50)) * c for c in u)
            y = radial_gauge_inverse(low, high, w)
            assert in_split_region(y, low, high)
            assert radial_gauge(low, high, y) == w


def test_smashed_complex_membership():
    c4 = cycle_complex(4)
    assert not in_smashed_complex(c4, (0, 1, 0, 1))    # diagonal support
    assert in_smashed_complex(c4, (0, 1, -1, 1))       # basepoint wins
    assert in_smashed_complex(c4, (1, 1, 1, 1))        # empty support
    assert in_smashed_complex(c4, (0, "1/2", 1, 1))    # an edge
    with pytest.raises(ValueError):
        in_smashed_complex(c4, (0, 1, 1))
    with pytest.raises(ValueError):
        in_smashed_complex(c4, (0, 1, 1, 2))


def test_partitioned_smash_membership():
    ghost = new_complex(4, [[1, 2, 3]])
    anchor = (F(0), F(0), F(0), F(1))
    assert not in_partitioned_smash(ghost, anchor, (1, 1, 1, 0))
    assert in_partitioned_smash(ghost, anchor, (0, 1, 1, 1))
    assert in_partitioned_smash(ghost, anchor, (0, 1, -1, 0))
    # constant anchors carry only the basepoint
    flat = (F(1, 3),) * 4
    assert not in_partitioned_smash(ghost, flat, (0, 1, 1, 1))
    assert in_partitioned_smash(ghost, flat, (0, -1, 1, 1))
    with pytest.raises(ValueError):
        in_partitioned_smash(ghost, (0, 0, 0), (0, 1, 1, 1))


def test_suspension_point_semantics():
    base = SuspensionPoint.basepoint()
    assert base.is_basepoint
    assert base == SuspensionPoint((1, 0), (0, 0))     # param at the end
    assert base == SuspensionPoint((0, 0), (-1, 0))    # payload at -1
    live = SuspensionPoint((F(1, 2), 0), (0, 0))
    assert not live.is_basepoint
    assert live != base
    assert live == SuspensionPoint(("1/2", 0), (0, 0))
    assert hash(live) == hash(SuspensionPoint((F(1, 2), 0), (0, 0)))
    assert hash(base) == hash(SuspensionPoint((-1, 0), (0, 0)))
    with pytest.raises(ValueError):
        SuspensionPoint((2, 0), (0, 0))
    with pytest.raises(ValueError):
        SuspensionPoint((0, 0), (0, -2))


def test_partitioned_smash_point_semantics():
    base = PartitionedSmashPoint.basepoint()
    assert base.is_basepoint
    assert base == PartitionedSmashPoint(1, (0,.0, 0, 0), (0, 0, 0, 0))
    assert base == PartitionedSmashPoint(0, (0, 0, 0, 0), (0, -1, 0, 0))
    live = PartitionedSmashPoint(F(1, 2), (0, 1, 0, 0), (0, 0, 0, 0))
    assert not live.is_basepoint
    assert live != base
    with pytest.raises(ValueError):
        PartitionedSmashPoint(2, (0,), (0,))


def test_damped_coordinate_pins():
    z = (F(0), F(0), F(1, 8), F(1))
    # radius 0: the coordinate is untouched
    assert damped_coordinate(z, 1, F(3, 4)) == F(3, 4)
    # radius at half the spread sends the far end to the middle
    assert damped_coordinate(z, 3, 1) == 0
    # radius at or above the spread crushes everything to the basepoint
    assert damped_coordinate(z, 4, 1) == -1
    assert damped_coordinate(z, 4, F(-1, 2)) == -1
    with pytest.raises(ValueError):
        damped_coordinate(z, 5, 0)
    with pytest.raises(ValueError):
        damped_coordinate(z, 1, 2)
    with pytest.raises(ValueError):
        damped_coordinate((F(1, 3),) * 3, 1, 0)


def test_tagging_map_basics():
    c4 = cycle_complex(4)
    base = tagging_map(c4, SuspensionPoint.basepoint())
    assert base.is_basepoint
    # zero height parameter collapses
    assert tagging_map(c4, SuspensionPoint((0, 0, 0), (0, 1, 1, 1))).is_basepoint
    omega = SuspensionPoint((F(1, 2), 0, 0), (0, 1, 1, 1))
    image = tagging_map(c4, omega)
    assert not image.is_basepoint
    assert image.height == 0                       # 2ß - 1 at ß = 1/2
    assert image.anchor == (F(1, 2), 0, 0, 0)
    assert image.payload == omega.payload
    with pytest.raises(ValueError):
        tagging_map(c4, SuspensionPoint((0, 0, 0), (0, 1, 0, 1)))
    with pytest.raises(ValueError):
        tagging_map(c4, SuspensionPoint((0, 0), (0, 1, 1, 1)))
    # a payload of the wrong length, though in range, is refused
    with pytest.raises(ValueError):
        tagging_map(c4, SuspensionPoint((F(1, 2), 0, 0), (0, 1, 1)))
    with pytest.raises(ValueError):
        tagging_map(c4, "not a point")


def test_factor_tagging_map_on_regression_fixture():
    fx = load_fixture("nonneighbourly_regression.json")
    complex = fixture_complex("nonneighbourly_regression.json", key="complex")
    low = vertex_mask(fx["low_block"])
    high = vertex_mask(fx["high_block"])
    expected = fx["expected"]
    pre_gauge = rational_point(fx["pre_gauge"])
    payload = rational_point(fx["payload"])

    assert split_center(low, high, complex.n) == \
        rational_point(expected["center"])
    assert normalized_spread(anchored(pre_gauge)) == \
        as_fraction(expected["spread"])
    gauged = radial_gauge(low, high, pre_gauge)
    ratio = max(abs(y - b) for y, b in
                zip(pre_gauge, split_center(low, high, complex.n))) / \
        max(abs(w) for w in gauged)
    assert ratio == as_fraction(expected["gauge_radius"])

    # the factor map on the gauged point, and the pinched composite on the
    # raw one (the pinch gauges it into the same region), fail alike
    cases = [
        ("damped payload", lambda: factor_tagging_map(
            complex, low, high, SuspensionPoint(gauged, payload))),
        ("pinched composite", lambda: pinched_composite(
            complex, SuspensionPoint(pre_gauge, payload))),
    ]
    for subject, evaluate in cases:
        with pytest.raises(MembershipViolation) as info:
            evaluate()
        violation = info.value
        assert str(violation).startswith(
            f"{subject} leaves the blocked smash: support ")
        assert violation.failed_block == vertex_mask(expected["failed_block"])
        assert violation.support == vertex_mask(expected["support"])
        assert violation.payload == rational_point(expected["damped"])
        assert violation.anchor == anchored(pre_gauge)


def test_factor_tagging_map_valid_case():
    K = full_skeleton(4, 1)
    low, high = vertex_mask([1, 2]), vertex_mask([3, 4])
    rng = seeded(62)
    produced = 0
    while produced < 15:
        params = sample_near(rng, split_center(low, high, 4), F(1, 16))
        if any(abs(t) >= 1 for t in params):
            continue
        omega = SuspensionPoint(params, sample_smash_payload(rng, K))
        if omega.is_basepoint:
            continue
        point = factor_tagging_map(K, low, high, omega)
        if point.is_basepoint:
            continue
        assert point.height == 2 * max(abs(t) for t in params) - 1
        assert in_partitioned_smash(K, point.anchor, point.payload)
        produced += 1
    # payload whose support straddles the split as a non-face is refused
    c4 = cycle_complex(4)
    bad = SuspensionPoint((F(1, 2), 0, 0), (0, 1, 0, 1))
    with pytest.raises(ValueError):
        factor_tagging_map(c4, vertex_mask([1, 3]), vertex_mask([2, 4]), bad)
    short = SuspensionPoint((F(1, 2), 0, 0), (0, 1, 1))
    with pytest.raises(ValueError):
        factor_tagging_map(c4, vertex_mask([1, 3]), vertex_mask([2, 4]), short)


def test_pinch_map_routing():
    routed = pinch_map(WORKED_Y)
    assert routed is not None
    (low, high), gauged = routed
    assert (low, high) == (vertex_mask([1, 2]), vertex_mask([3, 4]))
    assert radial_gauge_inverse(low, high, gauged) == WORKED_Y
    # an evenly spread point belongs to no region
    assert pinch_map((F(-1, 2), F(0), F(1, 2))) is None
    # two coordinates leave no balanced splits at all
    assert pinch_map((F(1, 3), F(1, 5))) is None


def test_pinch_on_suspension():
    K = full_skeleton(4, 1)
    payload = (F(0), F(1), F(1), F(1))
    omega = SuspensionPoint(WORKED_Y, payload)
    routed = pinch_on_suspension(K, omega)
    assert routed is not None
    split, point = routed
    assert split == (vertex_mask([1, 2]), vertex_mask([3, 4]))
    assert point.payload == payload
    assert pinch_on_suspension(K, SuspensionPoint.basepoint()) is None
    flat = SuspensionPoint((F(-1, 2), F(0), F(1, 2)), payload)
    assert pinch_on_suspension(K, flat) is None
    # one vertex: no parameters, no splits, so the wedge basepoint, as
    # every other evaluator collapses the same point
    lone = new_complex(1, [[1]])
    omega = SuspensionPoint((), (F(0),))
    assert pinch_on_suspension(lone, omega) is None
    assert tagging_map(lone, omega).is_basepoint
    assert pinched_composite(lone, omega).is_basepoint


def test_homotopy_matches_endpoints_exactly():
    rng = seeded(63)
    for K in (full_skeleton(4, 1), single_non_face(6, 3)):
        n = K.n
        splits = enumerate_balanced_splits(n)
        centers = [split_center(low, high, n) for low, high in splits]
        for k in range(60):
            if k % 2:
                params = sample_near(rng, centers[rng.randrange(len(centers))],
                                     F(1, 4 * n))
            else:
                params = sample_open_cube(rng, n - 1)
            omega = SuspensionPoint(params, sample_smash_payload(rng, K))
            start = tagging_homotopy(K, omega, 0)
            assert start == tagging_map(K, omega)
            end = tagging_homotopy(K, omega, 1)
            composite = pinched_composite(K, omega)
            assert end == composite
    with pytest.raises(ValueError):
        tagging_homotopy(full_skeleton(4, 1),
                         SuspensionPoint.basepoint(), F(5, 4))


def test_homotopy_violation_on_missing_vertex():
    """Mid-homotopy the interval ends move inward, stranding a non-face
    as interior support."""
    ghost = new_complex(4, [[1, 2, 3]])
    omega = SuspensionPoint((F(1, 32), F(1, 2), F(1, 2)), (1, 1, 1, 1))
    assert tagging_homotopy(ghost, omega, 0) == tagging_map(ghost, omega)
    with pytest.raises(MembershipViolation) as info:
        tagging_homotopy(ghost, omega, F(1, 2))
    assert info.value.failed_block == vertex_mask([4])


def test_pinched_composite_collapses_off_region():
    K = full_skeleton(4, 1)
    flat = SuspensionPoint((F(-1, 2), F(0), F(1, 2)), (0, 1, 1, 1))
    assert pinched_composite(K, flat).is_basepoint
    zero = SuspensionPoint((0, 0, 0), (0, 1, 1, 1))
    assert pinched_composite(K, zero).is_basepoint
