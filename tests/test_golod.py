"""Pair certificates and the splitting decision procedure."""

import json
import math

import pytest

from momentangle import (
    ChainComplex,
    CochainCalculator,
    CrossProductMap,
    HomologyGroup,
    InducedMap,
    IntMatrix,
    SimplicialComplex,
    boundary_simplex,
    cup_products_vanish,
    cycle_complex,
    field_rank,
    full_mask,
    full_skeleton,
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
    smith_normal_form,
    splitting_verdict,
    vertex_mask,
)
from momentangle import cli, golod
from momentangle.homology import parse_coefficients
from momentangle.golod import (
    DEFAULT_BATTERY,
    MAX_PAIR_VERTICES,
    NullCertificate,
    _certificate,
    _PairEngine,
)

from test_acceptance import neighbourly_verdict_corpus, oracle_corpus
from util import (
    cross_product_matrix_by_cochains,
    fixture_complex,
    random_antichain_complex,
    seeded,
    splitting_verdict_by_full_stream,
)


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


def test_restricted_walk_is_the_filtered_canonical_walk():
    for n in range(1, 10):
        pairs = list(iter_disjoint_pairs(n))
        for above in range(4):
            assert list(iter_disjoint_pairs(n, above=above)) == [
                (i, j) for i, j in pairs
                if min(i.bit_count(), j.bit_count()) > above], (n, above)


def test_verdict_matches_the_full_certificate_stream():
    # the verdict walks only pairs with both sides above the
    # neighbourliness; the full stream settles the rest by their sizes
    corpus = [fixture_complex("cycle4.json"), fixture_complex("rp2.json"),
              fixture_complex("nonneighbourly_regression.json", "complex"),
              full_skeleton(9, 1)] + [cycle_complex(n) for n in (6, 7, 8)]
    verdicts = [splitting_verdict(K) for K in corpus]
    for K, verdict in zip(corpus, verdicts):
        assert verdict.as_dict() == splitting_verdict_by_full_stream(K).as_dict()
    assert {v.outcome for v in verdicts} == {"NotCoH", "CoH", "Inconclusive"}
    assert max(len(v.unknown_pairs) for v in verdicts) > 1000


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


def test_theorem_refuses_above_the_cap_before_any_walk(monkeypatch, tmp_path,
                                                     capsys):
    walked = []
    monkeypatch.setattr(golod, "iter_disjoint_pairs",
                        lambda *args, **kwargs: walked.append(args))
    path = tmp_path / "thirteen.json"
    path.write_text(json.dumps(full_skeleton(13, 4).to_dict()))
    for argv in (["theorem", str(path)], ["golod", str(path)]):
        assert cli.main(argv) == 1
        assert "at most 12" in capsys.readouterr().err
    assert walked == []


def test_single_pair_calls_walk_no_subsets():
    # the size test belongs to the pair walk; a single pair is settled by
    # its cone test, so a 40-vertex complex costs nothing here
    one, two = vertex_mask([1]), vertex_mask([2])
    for K, certify in ((simplex(40), null_certificate),
                       (simplex(40), lambda *pair: iota_pair(*pair).certificate),
                       (boundary_simplex(40), null_certificate)):
        cert = certify(K, one, two)
        assert (cert.verdict, cert.reason) == ("Null", "TargetContractible")
        assert "neighbourliness" not in vars(K)


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
        reported = {(w.subset_i, w.subset_j) for w in witnesses}
        flagged = {(i, j) for i, j, c in triples if c.verdict == "NotNull"}
        assert flagged == reported


def test_zero_integral_map_forces_zero_rational_map():
    # f*_Q = f*_Z ⊗ Q (universal coefficients): why a certificate skips Q
    # once Z has come out zero.  Checked on every pair of the acceptance-4
    # corpus that the cheap certificates leave to the induced maps.
    zero_z = 0
    for K in oracle_corpus() + neighbourly_verdict_corpus(seeded(404)):
        engine = _PairEngine(K)
        for i, j in iter_disjoint_pairs(K.n):
            # the pair walk's size test, inlined so the 12-vertex
            # complexes' 261,625 pairs stay cheap; _certificate alone
            # settles those pairs by its slower cone test
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
    induced_map = _PairEngine.induced_map

    def recording(self, subset_i, subset_j, coeffs):
        built.append(coeffs)
        return induced_map(self, subset_i, subset_j, coeffs)

    monkeypatch.setattr(_PairEngine, "induced_map", recording)
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


def _cup_products_vanish_by_maps(K, battery):
    """The route before the certificate stream: skip pairs whose join or
    source is a cone, compute every battery map of the others, and flag
    a pair when any map is nonzero."""
    engine = _PairEngine(K)
    witnesses = []
    for i, j in iter_disjoint_pairs(K.n):
        if min(i.bit_count(), j.bit_count()) <= K.neighbourliness:
            continue
        if any(K.restriction(m).is_cone for m in (i, j, i | j)):
            continue
        maps = {c: engine.induced_map(i, j, c) for c in battery}
        failing = [c for c in battery if not maps[c].is_zero]
        if failing:
            certificate = NullCertificate("NotNull", obstruction=(
                failing[0], maps[failing[0]].nonzero_degrees()[0]))
            witnesses.append((i, j, certificate.as_dict(), {
                c: m.nonzero_degrees() for c, m in maps.items()}))
    return not witnesses, witnesses


def test_cup_products_vanish_matches_all_maps_route():
    corpus = [K for K in oracle_corpus() if K.n <= 5]
    corpus += [random_complex(n, floor, density, seed)
               for n, floor, density in ((6, 0, 0.2), (6, 0, 0.5), (6, 1, 0.5),
                                         (7, 0, 0.2), (7, 0, 0.5))
               for seed in range(6)]
    batteries = (DEFAULT_BATTERY, ("Q", "Z", "F2"), ("F3", "Z"))
    flagged = 0
    for index, K in enumerate(corpus):
        battery = batteries[index % len(batteries)]
        vanish, witnesses = cup_products_vanish(K, battery)
        got = [(w.subset_i, w.subset_j, w.certificate.as_dict(),
                {c: m.nonzero_degrees() for c, m in w.induced.items()})
               for w in witnesses]
        assert (vanish, got) == _cup_products_vanish_by_maps(K, battery)
        flagged += len(witnesses)
    assert flagged > 1000


def _rp2_on(n, labels):
    """The 6-vertex RP² relabelled onto ``labels``, on {1..n}."""
    rp2 = fixture_complex("rp2.json")
    return SimplicialComplex(n, (
        vertex_mask([labels[v - 1] for v in mask_vertices(f)])
        for f in rp2.facets))


def _disjoint_rp2s():
    """RP² ⊔ RP² on {1..6} and {7..12}."""
    return SimplicialComplex(12, _rp2_on(12, range(1, 7)).facets
                             + _rp2_on(12, range(7, 13)).facets)


def _interleaved_join(left, right):
    """The join with ``left`` on the odd labels and ``right`` on the even."""
    def relabel(face, shift):
        return vertex_mask([2 * v - shift for v in mask_vertices(face)])
    return SimplicialComplex(2 * max(left.n, right.n), (
        relabel(f, 1) | relabel(g, 0)
        for f in left.facets for g in right.facets))


def _join_map(engine, subset_i, subset_j, coeffs):
    """The induced map read off a calculator of the join itself."""
    K = engine.complex
    join = K.restriction(subset_i).join(K.restriction(subset_j))
    return InducedMap(engine.calculator(subset_i | subset_j, coeffs),
                      CochainCalculator(join.facets, coeffs))


def test_cross_product_maps_match_join_maps():
    # pairs with a cone side are left out: their join is contractible
    corpus = [K for K in oracle_corpus() if K.n <= 5]
    randoms = [random_complex(n, 0, density, seed)
               for n in (6, 7) for density in (0.3, 0.6) for seed in range(5)]
    assert sum(K.support != full_mask(K.n) for K in randoms) >= 5  # ghosts
    # joins whose factors interleave, so that shuffle signs matter;
    # torsion on one side: RP² with two ghosts between its vertices
    circle = boundary_simplex(3)
    two_edges, points = new_complex(4, [[1, 2], [3, 4]]), full_skeleton(3, 0)
    corpus += randoms + [_interleaved_join(circle, circle),
                         _interleaved_join(two_edges, points)]
    corpus += [_rp2_on(8, (1, 2, 4, 5, 7, 8))]
    compared = nonzero = torsion_sides = 0
    for K in corpus:
        engine = _PairEngine(K)
        for i, j in iter_disjoint_pairs(K.n):
            if K.restriction(i).is_cone or K.restriction(j).is_cone:
                continue
            for coeffs in DEFAULT_BATTERY:
                got = engine.induced_map(i, j, coeffs)
                assert isinstance(got, CrossProductMap)
                want = _join_map(engine, i, j, coeffs)
                assert (got.nonzero_degrees(), got.is_zero) == \
                    (want.nonzero_degrees(), want.is_zero), (K, i, j, coeffs)
                if coeffs != "Z":
                    # the cross products are join classes, so equal ranks
                    # mean equal images
                    p = parse_coefficients(coeffs)[1]
                    assert [field_rank(got.matrix(d), p) for d in got.degrees()] \
                        == [field_rank(want.matrix(d), p) for d in got.degrees()]
                compared += 1
                nonzero += not got.is_zero
            torsion_sides += any(engine.calculator(m, "Z").group(d).torsion
                                 for m in (i, j)
                                 for d in engine.calculator(m, "Z").degrees())
    assert compared > 5000 and nonzero > 500 and torsion_sides == 5


def test_no_join_is_ever_built(monkeypatch):
    def no_join(self, other):
        raise AssertionError("a join was built")

    # the inputs are built first: shifted_join is itself a join
    rp2 = fixture_complex("rp2.json")
    torsion_inputs = (_disjoint_rp2s(), shifted_join(rp2, rp2))
    monkeypatch.setattr(SimplicialComplex, "join", no_join)
    for K in (cycle_complex(4), cycle_complex(5), full_skeleton(6, 1),
              random_complex(7, 0, 0.6, 3), _rp2_on(8, (1, 2, 4, 5, 7, 8))):
        cup_products_vanish(K)
        splitting_verdict(K)
    # both sides carry 2-torsion, so the Z maps have Tor columns
    i, j = full_mask(6), full_mask(12) ^ full_mask(6)
    for K in torsion_inputs:
        iota_pair(K, i, j)
        null_certificate(K, i, j)


def test_shared_torsion_prime_map_matches_the_join():
    rp2 = fixture_complex("rp2.json")
    i, j = full_mask(6), full_mask(12) ^ full_mask(6)
    two = _disjoint_rp2s()
    cert = null_certificate(two, i, j)
    report = iota_pair(two, i, j)
    assert cert.verdict == report.certificate.verdict == "Unknown"
    assert all(isinstance(m, CrossProductMap) for m in report.induced.values())
    # RP² * RP² has the Tor summand Z/2 in degree 4; RP² ⊔ RP² has no
    # cohomology there, so the map is zero
    engine = _PairEngine(two)
    oracle = _join_map(engine, i, j, "Z")
    assert oracle.ambient.group(4) == HomologyGroup(0, [2])
    assert report.induced["Z"].nonzero_degrees() == oracle.nonzero_degrees() == []
    # on the join itself the inclusion is the identity, so the Tor class
    # is seen in degree 4, and is the first obstruction
    engine = _PairEngine(shifted_join(rp2, rp2))
    oracle = _join_map(engine, i, j, "Z")
    assert engine.induced_map(i, j, "Z").nonzero_degrees() \
        == oracle.nonzero_degrees() == [4, 5]
    assert null_certificate(shifted_join(rp2, rp2), i, j).obstruction == ("Z", 4)


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


def test_products_vanish_on_certified_splitting_complexes():
    for K in (single_non_face(6, 3), boundary_simplex(3), full_skeleton(5, 1)):
        verdict = splitting_verdict(K)
        vanish, witnesses = cup_products_vanish(K)
        if verdict.outcome == "CoH":
            assert vanish and not witnesses


def _lattice(columns, orders):
    """Rank and product of invariant factors of the lattice spanned by
    ``columns`` and the relations e·u_k of the torsion coordinates."""
    vectors = list(columns) + [[e if k == m else 0 for k in range(len(orders))]
                               for m, e in enumerate(orders) if e]
    form = smith_normal_form(IntMatrix(len(orders), len(vectors), {
        (r, c): v for c, vector in enumerate(vectors)
        for r, v in enumerate(vector)}))
    return form.rank, math.prod(form.diagonal)


def test_tor_columns_match_the_join():
    """Z pair maps with torsion on both sides against the join's own
    calculator: the images agree as subgroups in every degree.  Takes
    about 9 s (CPython 3.11, one core), two thirds of it on ΣRP² * RP²."""
    rp2 = fixture_complex("rp2.json")
    low, high = full_mask(6), full_mask(12) ^ full_mask(6)
    odd, even = vertex_mask(range(1, 13, 2)), vertex_mask(range(2, 13, 2))
    interleaved = _interleaved_join(rp2, rp2)
    partial = SimplicialComplex(12, [f for k, f in enumerate(interleaved.facets)
                                     if k % 3])
    assert len(partial.facets) < len(interleaved.facets)
    # ΣRP² has its 2-torsion in degree 3, so the Tor sign (-1)^p is -1
    suspended = shifted_join(shifted_join(rp2, full_skeleton(2, 0)), rp2)
    cases = [(shifted_join(rp2, rp2), low, high), (_disjoint_rp2s(), low, high),
             (interleaved, odd, even), (partial, odd, even),
             (suspended, full_mask(8), full_mask(14) ^ full_mask(8))]
    nonzero = []
    for K, i, j in cases:
        engine = _PairEngine(K)
        got, want = engine.induced_map(i, j, "Z"), _join_map(engine, i, j, "Z")
        assert all(any(engine.calculator(m, "Z").group(d).torsion
                       for d in engine.calculator(m, "Z").degrees())
                   for m in (i, j))
        assert got.degrees() == want.degrees()
        for d in got.degrees():
            orders = got.target.orders(d) if d <= got.target.chain.dim else ()
            mine = list(zip(*got.matrix(d)))
            theirs = list(zip(*want.matrix(d)))
            assert _lattice(mine, orders) == _lattice(theirs, orders) \
                == _lattice(mine + theirs, orders), (K, i, j, d)
        nonzero.append(got.nonzero_degrees())
    # the partial subcomplex has no top class, but keeps the Tor class
    assert nonzero == [[4, 5], [], [4, 5], [4], [5, 6]]


def test_verdicts_without_the_hurewicz_flag_compute_no_connectivity(monkeypatch):
    # connectivity only feeds DimBelowConnectivity, which needs the full
    # 2-skeleton on both sides: a cycle or a 1-skeleton never has it
    calls = []
    connectivity = ChainComplex.connectivity.fget

    def recording(chain):
        calls.append(chain)
        return connectivity(chain)

    monkeypatch.setattr(ChainComplex, "connectivity", property(recording))
    for K in (cycle_complex(5), cycle_complex(6), full_skeleton(6, 1)):
        splitting_verdict(K)
        pair_certificates(K)
    assert calls == []
    # the 2-skeleton pair still reads both sides' connectivity
    cert = null_certificate(full_skeleton(8, 2), vertex_mask([1, 2, 3, 4]),
                            vertex_mask([5, 6, 7, 8]))
    assert cert.reason == "DimBelowConnectivity" and len(calls) == 2


def _uct_complexes():
    """Complexes with 2-torsion: every full subcomplex of RP², ΣRP² and
    RP² * RP²."""
    rp2 = fixture_complex("rp2.json")
    return ([rp2.restriction(mask) for mask in range(2, 1 << 7, 2)]
            + [shifted_join(rp2, full_skeleton(2, 0)), shifted_join(rp2, rp2)])


def test_generator_counts_follow_universal_coefficients():
    torsion = 0
    for K in _uct_complexes():
        calc = CochainCalculator(K.facets, "Z")
        for coeffs in ("Z", "Q", "F2", "F3", "F5"):
            other = calc.over(coeffs)
            for d in calc.degrees():
                assert other.generator_count(d) == len(other.orders(d)), \
                    (K.facets, coeffs, d)
            assert other.generator_count(K.dim + 1) == 0
        torsion += sum(len(calc.integral_group(d).torsion)
                       for d in calc.degrees())
    assert torsion >= 4


def test_cross_product_matrices_on_torsion_fixtures_match_the_oracle():
    """Every pair of RP² and of the four-cycle with a ghost vertex, and
    the pairs of ``test_tor_columns_match_the_join`` that cost little,
    against the unshortcut oracle over the default battery: F_p targets
    read the Tor part of H̃^{d+1}, a ghost side has its class in degree
    -1, and the joins of two RP²'s have Tor columns."""
    rp2 = fixture_complex("rp2.json")
    ghosted = SimplicialComplex(5, (f << 1 for f in
                                    fixture_complex("cycle4.json").facets))
    low, high = full_mask(6), full_mask(12) ^ full_mask(6)
    cases = [(K, i, j) for K in (rp2, ghosted)
             for i, j in iter_disjoint_pairs(K.n)]
    cases += [(shifted_join(rp2, rp2), low, high), (_disjoint_rp2s(), low, high)]
    shapes = set()
    for K, i, j in cases:
        for coeffs in DEFAULT_BATTERY:
            got = _PairEngine(K).induced_map(i, j, coeffs)
            want = _PairEngine(K).induced_map(i, j, coeffs)
            for d in got.degrees():
                rows = got.matrix(d)
                assert rows == cross_product_matrix_by_cochains(want, d), \
                    (K.facets, i, j, coeffs, d)
                shapes.add("no target" if not rows else
                           "no source" if not rows[0] else "columns")
    assert shapes == {"no target", "no source", "columns"}
