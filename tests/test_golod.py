"""Pair certificates, the splitting decision procedure, cup products."""

import itertools

import pytest

from momentangle import (
    SimplicialComplex,
    boundary_simplex,
    cup_product,
    cup_products_vanish,
    cycle_complex,
    full_skeleton,
    hochster_decomposition,
    iota_pair,
    iter_disjoint_pairs,
    mask_vertices,
    new_complex,
    null_certificate,
    pair_certificates,
    random_complex,
    shifted_join,
    simplex,
    single_non_face,
    splitting_verdict,
    vertex_mask,
)
from momentangle import golod
from momentangle.golod import (
    MAX_PAIR_VERTICES,
    NullCertificate,
    SummandClass,
    _certificate,
    _PairEngine,
)

from test_acceptance import neighbourly_verdict_corpus, oracle_corpus
from util import fixture_complex, random_antichain_complex, seeded


def test_iter_disjoint_pairs_canonical_order():
    for n in range(1, 9):
        pairs = list(iter_disjoint_pairs(n))
        assert len(pairs) == (3 ** n - 2 ** (n + 1) + 1) // 2
        seen = set()
        last = None
        for i, j in pairs:
            assert i and j and not i & j
            union = i | j
            assert union & -union == i & -i  # lowest vertex sits in I
            key = frozenset((i, j))
            assert key not in seen
            seen.add(key)
            assert last is None or last < (i, j)
            last = (i, j)


def test_pair_validation_errors():
    c4 = cycle_complex(4)
    with pytest.raises(ValueError):
        null_certificate(c4, 0, vertex_mask([1]))
    with pytest.raises(ValueError):
        null_certificate(c4, vertex_mask([1, 2]), vertex_mask([2, 3]))
    with pytest.raises(ValueError):
        null_certificate(c4, vertex_mask([1]), vertex_mask([5]))


def test_pair_scans_refuse_complexes_above_the_cap():
    assert MAX_PAIR_VERTICES == 12
    K = simplex(MAX_PAIR_VERTICES + 1)
    for scan in (splitting_verdict, pair_certificates, cup_products_vanish):
        with pytest.raises(ValueError, match="at most 12"):
            scan(K)


def test_certificate_reasons_on_named_pairs():
    c4 = cycle_complex(4)
    # single vertices are faces: the join is a cone over the other side
    cert = null_certificate(c4, vertex_mask([1]), vertex_mask([3]))
    assert (cert.verdict, cert.reason) == ("Null", "TargetContractible")
    # the two diagonals give the essential square inclusion
    cert = null_certificate(c4, vertex_mask([1, 3]), vertex_mask([2, 4]))
    assert cert.verdict == "NotNull"
    assert cert.obstruction == ("Z", 1)
    # adjacent pair: restriction is an edge, a cone
    cert = null_certificate(c4, vertex_mask([1, 2]), vertex_mask([3, 4]))
    assert (cert.verdict, cert.reason) == ("Null", "TargetContractible")
    # high connectivity against low dimension
    cert = null_certificate(full_skeleton(8, 2),
                            vertex_mask([1, 2, 3, 4]),
                            vertex_mask([5, 6, 7, 8]))
    assert (cert.verdict, cert.reason) == ("Null", "DimBelowConnectivity")


def test_join_of_point_pairs_with_apex_is_essential():
    # (two points) * (two points) * (point): the split across the two
    # point-pairs restricts to the full square, an essential circle
    K = shifted_join(shifted_join(boundary_simplex(2), boundary_simplex(2)),
                     simplex(1))
    cert = null_certificate(K, vertex_mask([1, 2]), vertex_mask([3, 4]))
    assert cert.verdict == "NotNull"
    assert cert.obstruction == ("Z", 1)
    verdict = splitting_verdict(K)
    assert verdict.outcome == "NotCoH"
    assert verdict.hypothesis_holds  # 1-neighbourly, yet not a co-H space


def test_iota_pair_report_shape():
    c4 = cycle_complex(4)
    report = iota_pair(c4, vertex_mask([1, 3]), vertex_mask([2, 4]),
                       coeffs=("Z", "F2"))
    d = report.as_dict()
    assert d["I"] == [1, 3] and d["J"] == [2, 4]
    assert set(d["induced"]) == {"Z", "F2"}
    assert d["induced"]["Z"] == {"is_zero": False, "nonzero_degrees": [1]}
    assert d["certificate"]["verdict"] == "NotNull"
    single = iota_pair(c4, vertex_mask([1]), vertex_mask([2]), coeffs="Q")
    assert single.as_dict()["induced"]["Q"]["is_zero"]


def test_verdict_four_cycle():
    verdict = splitting_verdict(cycle_complex(4))
    assert verdict.hypothesis_holds
    assert verdict.outcome == "NotCoH"
    w = verdict.witness.as_dict()
    assert (w["I"], w["J"]) == ([1, 3], [2, 4])
    assert w["certificate"]["obstruction"] == {"coeffs": "Z", "degree": 1}
    assert not w["induced"]["Q"]["is_zero"]


def test_verdict_single_non_face_spheres():
    for n, size, degree in ((6, 3, 5), (9, 5, 9)):
        verdict = splitting_verdict(single_non_face(n, size))
        assert verdict.outcome == "CoH"
        assert verdict.hypothesis_holds
        assert verdict.wedge.is_complete
        assert verdict.wedge.sphere_degrees == [degree]
    verdict = splitting_verdict(boundary_simplex(3))
    assert verdict.outcome == "CoH"
    assert verdict.wedge.sphere_degrees == [5]


def test_verdict_depends_on_ghost_vertex_homotopy():
    # a hollow triangle plus a ghost vertex: the ghost's empty restriction
    # makes the inclusion into (circle * empty) essential
    hollow = new_complex(4, [[1, 2], [1, 3], [2, 3]])
    verdict = splitting_verdict(hollow)
    assert not verdict.hypothesis_holds
    assert verdict.outcome == "NotCoH"
    w = verdict.witness.as_dict()
    assert (w["I"], w["J"]) == ([1, 2, 3], [4])
    # the filled triangle plus a ghost carries no obstruction, but the
    # missing vertex still voids the hypothesis
    filled = splitting_verdict(new_complex(4, [[1, 2, 3]]))
    assert not filled.hypothesis_holds
    assert filled.outcome == "Inconclusive"
    assert filled.unknown_pairs == []
    assert "unknown_pairs" in filled.as_dict()


def test_verdict_projective_plane():
    verdict = splitting_verdict(fixture_complex("rp2.json"))
    assert verdict.outcome == "CoH"
    assert verdict.hypothesis_holds
    assert not verdict.wedge.is_complete
    assert verdict.as_dict()["wedge"]["spheres"] is None


def test_verdict_inconclusive_on_one_skeleton():
    verdict = splitting_verdict(full_skeleton(6, 1))
    assert verdict.outcome == "Inconclusive"
    assert verdict.hypothesis_holds
    assert len(verdict.unknown_pairs) == 10
    assert (vertex_mask([1, 2, 3]), vertex_mask([4, 5, 6])) in \
        verdict.unknown_pairs
    # balanced 3-3 splits of a graph resist every certificate
    for i, j in verdict.unknown_pairs:
        assert i.bit_count() == j.bit_count() == 3


def test_verdict_two_skeleton_is_certified():
    verdict = splitting_verdict(full_skeleton(8, 2))
    assert verdict.outcome == "CoH"
    assert verdict.wedge.is_complete


def test_pair_certificates_consistency():
    for K in (cycle_complex(4), single_non_face(6, 3),
              new_complex(4, [[1, 2], [1, 3], [2, 3]])):
        triples = pair_certificates(K)
        assert [(i, j) for i, j, _ in triples] == \
            list(iter_disjoint_pairs(K.n))
        vanish, witnesses = cup_products_vanish(K)
        has_notnull = any(c.verdict == "NotNull" for _, _, c in triples)
        assert vanish == (not has_notnull)
        if witnesses:
            reported = {(w.subset_i, w.subset_j) for w in witnesses}
            flagged = {(i, j) for i, j, c in triples
                       if c.verdict == "NotNull"}
            assert flagged <= reported


def test_zero_integral_map_forces_zero_rational_map():
    # f*_Q = f*_Z ⊗ Q (universal coefficients): why a certificate skips Q
    # once Z has come out zero.  Checked on every pair of the acceptance-4
    # corpus that the cheap certificates leave to the induced maps.
    zero_z = 0
    for K in oracle_corpus() + neighbourly_verdict_corpus(seeded(404)):
        engine = _PairEngine(K)
        for i, j in iter_disjoint_pairs(K.n):
            # the size test is the certificate's first check, inlined so
            # the 12-vertex complexes' 261,625 pairs stay cheap
            if (min(i.bit_count(), j.bit_count()) <= K.neighbourliness
                    or _certificate(engine, i, j, battery=()).verdict == "Null"):
                continue
            if engine.induced_map(i, j, "Z").is_zero:
                zero_z += 1
                assert engine.induced_map(i, j, "Q").is_zero
    assert zero_z > 500


def _explicit_certificates(K, battery):
    """Certificates computing every battery map up to the first nonzero
    one, Q included."""
    engine = _PairEngine(K)
    out = []
    for i, j in iter_disjoint_pairs(K.n):
        certificate = _certificate(engine, i, j, battery=())
        if certificate.verdict == "Unknown":
            for coeffs in battery:
                degrees = engine.induced_map(i, j, coeffs).nonzero_degrees()
                if degrees:
                    certificate = NullCertificate(
                        "NotNull", obstruction=(coeffs, degrees[0]))
                    break
        out.append((i, j, certificate.as_dict()))
    return out


def test_rational_check_skipped_only_after_integral(monkeypatch):
    built = []
    calculator = golod.CochainCalculator

    def recording(complex, coeffs="Z"):
        built.append(coeffs)
        return calculator(complex, coeffs)

    monkeypatch.setattr(golod, "CochainCalculator", recording)
    # each complex leaves some pairs to the battery; cycle 4 and 5 have
    # an essential pair, the others only Unknown ones
    for K in (cycle_complex(4), cycle_complex(5), full_skeleton(6, 1),
              random_complex(6, 1, 0.2, 2)):
        for battery, builds_q in ((("Z", "Q", "F2"), False),
                                  (("Q", "Z", "F2"), True),
                                  (("Q", "F2"), True)):
            built.clear()
            got = pair_certificates(K, battery)
            assert ("Q" in built) == builds_q
            assert [(i, j, c.as_dict()) for i, j, c in got] == \
                _explicit_certificates(K, battery)


def test_verdicts_invariant_under_relabeling():
    rng = seeded(51)
    for _ in range(12):
        n = rng.randint(3, 6)
        K = random_antichain_complex(rng, n)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relabeled = SimplicialComplex(n, (
            vertex_mask([perm[v - 1] for v in mask_vertices(f)])
            for f in K.facets))
        a, b = splitting_verdict(K), splitting_verdict(relabeled)
        assert (a.outcome, a.hypothesis_holds) == (b.outcome, b.hypothesis_holds)
        assert len(a.unknown_pairs) == len(b.unknown_pairs)


def test_cup_product_on_four_cycle():
    c4 = cycle_complex(4)
    diag_i, diag_j = vertex_mask([1, 3]), vertex_mask([2, 4])
    alpha = SummandClass(diag_i, 0, (1,))
    beta = SummandClass(diag_j, 0, (1,))
    product = cup_product(c4, "Q", alpha, beta)
    assert product.subset_mask == vertex_mask([1, 2, 3, 4])
    assert product.degree == 1
    assert len(product.coords) == 1 and abs(product.coords[0]) == 1
    # the product against a zero class vanishes
    zero = SummandClass(diag_j, 0, (0,))
    assert cup_product(c4, "Q", alpha, zero).is_zero
    # overlapping supports multiply to zero by definition
    overlap = SummandClass(vertex_mask([1, 2]), 0, (1,))
    assert cup_product(c4, "Q", alpha, overlap).is_zero


def test_cup_product_scaling_and_anticommutation():
    c4 = cycle_complex(4)
    diag_i, diag_j = vertex_mask([1, 3]), vertex_mask([2, 4])
    alpha = SummandClass(diag_i, 0, (1,))
    beta = SummandClass(diag_j, 0, (1,))
    double = SummandClass(diag_i, 0, (2,))
    p1 = cup_product(c4, "Q", alpha, beta)
    p2 = cup_product(c4, "Q", double, beta)
    assert tuple(2 * c for c in p1.coords) == p2.coords
    # degree-0 classes here multiply to odd total degree: a*b = b*a
    # up to the Künneth sign (-1)^{(p+1)(q+1)} = -1
    p3 = cup_product(c4, "Q", beta, alpha)
    assert tuple(-c for c in p1.coords) == p3.coords


def test_cup_products_land_in_valid_classes():
    """Products of random decomposition classes are always cocycles:
    coordinate extraction in the target would raise otherwise."""
    rng = seeded(52)
    produced = 0
    for _ in range(40):
        K = random_antichain_complex(rng, rng.randint(2, 5))
        summands = [s for s in hochster_decomposition(K, "Q")
                    if s.subset_mask]
        if len(summands) < 2:
            continue
        for s, t in itertools.islice(
                itertools.combinations(summands, 2), 6):
            deg_s, grp_s = s.shifted_groups[0]
            deg_t, grp_t = t.shifted_groups[0]
            a = SummandClass(s.subset_mask, deg_s - bin(s.subset_mask).count("1") - 1,
                             tuple(rng.randint(-2, 2) for _ in range(grp_s.rank)))
            b = SummandClass(t.subset_mask, deg_t - bin(t.subset_mask).count("1") - 1,
                             tuple(rng.randint(-2, 2) for _ in range(grp_t.rank)))
            cup_product(K, "Q", a, b)
            produced += 1
    assert produced > 30


def test_products_vanish_on_certified_splitting_complexes():
    for K in (single_non_face(6, 3), boundary_simplex(3), full_skeleton(5, 1)):
        verdict = splitting_verdict(K)
        vanish, witnesses = cup_products_vanish(K)
        if verdict.outcome == "CoH":
            assert vanish and not witnesses
