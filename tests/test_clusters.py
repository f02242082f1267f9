"""Exact rational cluster geometry: regions, gauge, tagging evaluators."""

from fractions import Fraction

import pytest

from momentangle import (
    DEFAULT_TOLERANCE,
    MembershipViolation,
    PartitionedSmashPoint,
    SuspensionPoint,
    anchored,
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
    tagging_homotopy,
    tagging_map,
    vertex_mask,
)
from momentangle.clusters import as_fraction, rational_point
from momentangle.verify import sample_near, sample_open_cube, sample_smash_payload

from util import load_fixture, fixture_complex, seeded

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
    splits = enumerate_balanced_splits(4)
    tags = [s for s in splits if in_split_region(WORKED_Y, *s)]
    assert tags == [(vertex_mask([1, 2]), vertex_mask([3, 4]))]


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
    # along the first axis the region ends exactly at radius 1/8 (the
    # point where vertex 1's cluster radius reaches the spread), and the
    # dyadic bisection recovers that endpoint exactly
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
    with pytest.raises(ValueError):
        radial_gauge(low, high, WORKED_Y, tol=0)
    with pytest.raises(ValueError):
        radial_gauge(low, high, WORKED_Y, tol=2)


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
