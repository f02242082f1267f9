"""Sampled verification harnesses and the deterministic violation finder."""

from fractions import Fraction

import pytest

from momentangle import (
    MembershipViolation,
    SuspensionPoint,
    cycle_complex,
    factor_tagging_map,
    full_skeleton,
    in_smashed_complex,
    in_split_region,
    new_complex,
    single_non_face,
    vertex_mask,
)
from momentangle.verify import (
    find_tagging_violation,
    homotopy_report,
    sample_near,
    sample_open_cube,
    sample_smash_payload,
    split_region_report,
)

from util import random_antichain_complex, seeded


def test_samplers():
    rng = seeded(71)
    for _ in range(50):
        y = sample_open_cube(rng, 3)
        assert len(y) == 3 and all(abs(c) < 1 for c in y)
        assert all(isinstance(c, Fraction) for c in y)
    with pytest.raises(ValueError):
        sample_near(rng, (Fraction(0),), spread=Fraction(1, 2))
    K = cycle_complex(4)
    for _ in range(50):
        assert in_smashed_complex(K, sample_smash_payload(rng, K))


def test_split_region_report_clean_small_run():
    report = split_region_report(4, 300, seed=5)
    assert report["n"] == 4 and report["samples"] == 300
    assert report["splits"] == 6
    assert report["tagged"] > 50
    assert report["in_cluster"] >= report["tagged"]
    assert report["overlap_breaches"] == 0
    assert report["coverage_breaches"] == 0
    assert report["stray_tag_breaches"] == 0
    assert report["retraction_checked"] == report["tagged"]
    assert report["retraction_breaches"] == 0
    assert report["gauge_trips"] == report["tagged"]
    assert report["gauge_failures"] == 0


def test_split_region_report_two_coordinates():
    # the degenerate ambient: one cube coordinate, two mirror regions
    report = split_region_report(2, 200, seed=6)
    assert report["splits"] == 2
    assert report["tagged"] == report["in_cluster"] == 200
    assert report["overlap_breaches"] == 0
    assert report["coverage_breaches"] == 0


def test_homotopy_report_exact_on_neighbourly_complex():
    report = homotopy_report(full_skeleton(4, 1), 120, seed=7)
    assert report["samples"] == 120
    assert report["start_mismatches"] == 0
    assert report["end_mismatches"] == 0
    assert report["membership_violations"] == 0
    assert report["end_compared"] == 120
    assert report["end_nonbasepoint"] > 0
    assert report["max_end_error"] == 0


def test_homotopy_report_counts_violations():
    ghost = new_complex(4, [[1, 2, 3]])
    report = homotopy_report(ghost, 200, seed=8)
    assert report["membership_violations"] > 0
    assert report["start_mismatches"] == 0
    assert report["end_mismatches"] == 0


def test_find_tagging_violation_none_cases():
    assert find_tagging_violation(full_skeleton(4, 1)) is None
    assert find_tagging_violation(single_non_face(6, 3)) is None
    # ambient too small for any balanced split
    assert find_tagging_violation(new_complex(3, [[1, 2]])) is None
    assert find_tagging_violation(new_complex(2, [[1]])) is None


def test_find_tagging_violation_ghost_vertex():
    ghost = new_complex(4, [[1, 2, 3]])
    witness = find_tagging_violation(ghost)
    assert witness is not None
    assert witness["culprit"] == vertex_mask([4])
    assert witness["failed_block"] == vertex_mask([4])
    assert witness["culprit"] & witness["low_block"]
    assert in_split_region(witness["pre_gauge"],
                           witness["low_block"], witness["high_block"])
    # the witness replays
    omega = SuspensionPoint(witness["params"], witness["payload"])
    with pytest.raises(MembershipViolation) as info:
        factor_tagging_map(ghost, witness["low_block"],
                           witness["high_block"], omega)
    assert info.value.failed_block == witness["failed_block"]
    assert info.value.support == witness["support"]
    # and the construction is deterministic
    assert find_tagging_violation(ghost) == witness


def test_find_tagging_violation_random_complexes():
    rng = seeded(72)
    found = 0
    for _ in range(30):
        n = rng.randint(4, 6)
        K = random_antichain_complex(rng, n)
        small = [f for f in K.minimal_non_faces if f.bit_count() <= n // 3]
        witness = find_tagging_violation(K)
        if not small:
            assert witness is None
            continue
        found += 1
        culprit = min(small, key=lambda f: (f.bit_count(), f))
        assert witness["culprit"] == culprit
        assert witness["failed_block"] == culprit
    assert found >= 5
