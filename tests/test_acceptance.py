"""End-to-end acceptance gate.

Each test covers one acceptance item, prints a single PASS/FAIL line on the
real stdout (so the verdicts are visible even under pytest capture), and
enforces an exactness requirement plus a hard time budget:

1. decomposition series agrees with the Koszul-complex oracle, degreewise,
   over Q, F2 and F3, on a 500-complex corpus
2. named homotopy types reproduce their known series, each under a second
3. Poincare series are multiplicative under join (100 random joins)
4. splitting-verdict engine: worked verdicts, a 50-complex highly
   neighbourly corpus, and the one-sided soundness guarantee
5. exact rational region statistics: unique tagging, retraction closure,
   and the spread/radius scaling identities at 10^4 samples per n
6. tagging-homotopy endpoint identities and membership on a 20-complex
   neighbourly corpus, plus the stored non-neighbourly regression fixture
7. Smith-form transform identities, divisibility chains, and torsion
   bookkeeping over Z versus F2/Q
"""

import time

import pytest

from momentangle import (
    MembershipViolation,
    SuspensionPoint,
    boundary_simplex,
    cycle_complex,
    factor_tagging_map,
    full_skeleton,
    koszul_oracle,
    new_complex,
    pair_certificates,
    poincare_series,
    radial_gauge,
    radial_gauge_inverse,
    random_complex,
    reduced_homology,
    shifted_join,
    simplex,
    single_non_face,
    smith_normal_form,
    splitting_verdict,
    vertex_mask,
)
from momentangle.clusters import rational_point
from momentangle.verify import homotopy_report, split_region_report

from util import (
    all_complexes_on,
    fixture_complex,
    int_matrix,
    load_fixture,
    random_antichain_complex,
    seeded,
)

FIELDS = ("Q", "F2", "F3")


def announce(capsys, index, name, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance {index} ({name}): {status} "
              f"[{elapsed:.1f}s] {detail}", flush=True)


def oracle_corpus():
    """Exhaustive on up to 4 vertices, deduplicated random draws on 5 and 6."""
    corpus = [K for n in range(1, 5) for K in all_complexes_on(n)]
    rng = seeded(20260819)
    seen = set()
    while len(corpus) < 500:
        n = 5 if len(corpus) % 2 else 6
        K = random_antichain_complex(rng, n)
        key = (K.n, K.facets)
        if key not in seen:
            seen.add(key)
            corpus.append(K)
    return corpus


def test_1_series_matches_koszul_oracle(capsys):
    t0 = time.perf_counter()
    corpus = oracle_corpus()
    assert len(corpus) == 500
    failures = []
    for K in corpus:
        cap = K.n + K.dim + 1
        for coeffs in FIELDS:
            mine = poincare_series(K, coeffs).as_dict()
            oracle = koszul_oracle(K, coeffs, cap).as_dict()
            if mine != oracle:
                failures.append((K, coeffs, mine, oracle))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600
    announce(capsys, 1, "series vs Koszul oracle", ok, elapsed,
             f"{len(corpus)} complexes x {len(FIELDS)} fields, exact")
    assert not failures, failures[:3]
    assert elapsed < 600


def test_2_named_homotopy_types(capsys):
    cases = [
        (boundary_simplex(3), {0: 1, 5: 1}, "boundary triangle (S^5)"),
        (new_complex(2, [[1], [2]]), {0: 1, 3: 1}, "two points (S^3)"),
        (cycle_complex(4), {0: 1, 3: 2, 6: 1}, "four-cycle (S^3 x S^3)"),
    ]
    cases += [(simplex(k), {0: 1}, f"{k}-simplex (point)")
              for k in (1, 2, 3, 4, 5, 6)]
    t0 = time.perf_counter()
    failures = []
    for K, expected, label in cases:
        t1 = time.perf_counter()
        got = poincare_series(K, "Q").as_dict()
        each = time.perf_counter() - t1
        if got != expected or each >= 1.0:
            failures.append((label, got, expected, each))
    elapsed = time.perf_counter() - t0
    ok = not failures
    announce(capsys, 2, "named homotopy types", ok, elapsed,
             f"{len(cases)} cases, exact, each under 1s")
    assert not failures, failures


def test_3_join_multiplicativity(capsys):
    t0 = time.perf_counter()
    rng = seeded(31415)
    failures = []
    for _ in range(100):
        n1 = rng.randint(1, 9)
        n2 = rng.randint(1, 10 - n1)
        K = random_antichain_complex(rng, n1)
        L = random_antichain_complex(rng, n2)
        joined = shifted_join(K, L)
        product = poincare_series(K, "Q") * poincare_series(L, "Q")
        got = poincare_series(joined, "Q")
        if got.as_dict() != product.as_dict():
            failures.append((K, L, got.as_dict(), product.as_dict()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300
    announce(capsys, 3, "join multiplicativity", ok, elapsed, "100 random joins, exact")
    assert not failures, failures[:3]
    assert elapsed < 300


def neighbourly_verdict_corpus(rng):
    """50 random complexes with neighbourliness at least half the vertex count."""
    sizes = {12: 2, 11: 3, 10: 5, 9: 8, 8: 8, 7: 8, 6: 8, 5: 8}
    corpus = []
    seed = 4242
    for n, count in sorted(sizes.items()):
        produced = 0
        while produced < count:
            density = rng.choice((0.3, 0.5, 0.7))
            K = random_complex(n, n // 2, density, seed)
            seed += 1
            if K.is_simplex or K.is_cone:
                continue  # keep the corpus away from trivially contractible draws
            assert K.neighbourliness >= n // 2
            corpus.append(K)
            produced += 1
    return corpus


def test_4_splitting_verdict_engine(capsys):
    t0 = time.perf_counter()
    failures = []

    # (a) the four-cycle is essential, witnessed by the diagonal pair and a
    # degree-one map of top classes
    verdict = splitting_verdict(cycle_complex(4))
    w = verdict.witness.as_dict() if verdict.witness else {}
    if not (verdict.outcome == "NotCoH" and verdict.hypothesis_holds
            and (w.get("I"), w.get("J")) == ([1, 3], [2, 4])
            and w.get("certificate", {}).get("obstruction") ==
            {"coeffs": "Z", "degree": 1}
            and verdict.witness.induced["Z"].matrix(1) in ([[1]], [[-1]])):
        failures.append(("four-cycle", verdict.as_dict()))

    # (b) a single minimal non-face collapses to one sphere
    for n, size, degree in ((6, 3, 5), (9, 5, 9)):
        v = splitting_verdict(single_non_face(n, size))
        if not (v.outcome == "CoH" and v.wedge is not None
                and v.wedge.is_complete and v.wedge.sphere_degrees == [degree]):
            failures.append((f"single non-face n={n}", v.as_dict()))

    # (c) highly neighbourly random corpus: everything certifies
    rng = seeded(404)
    corpus = neighbourly_verdict_corpus(rng)
    assert len(corpus) == 50
    verdicts = [(K, splitting_verdict(K)) for K in corpus]
    for K, v in verdicts:
        if v.outcome != "CoH" or v.wedge is None:
            failures.append((K, v.as_dict()))

    # (d) soundness: no complex may carry a nonzero product and still be
    # certified; scan the 500-complex oracle corpus plus the corpus above
    scanned = 0
    for K in oracle_corpus():
        triples = pair_certificates(K)
        v = splitting_verdict(K)
        scanned += 1
        if any(c.verdict == "NotNull" for _, _, c in triples) \
                and v.outcome == "CoH":
            failures.append(("unsound", K, v.as_dict()))
    for K, v in verdicts:
        triples = pair_certificates(K)
        scanned += 1
        if any(c.verdict == "NotNull" for _, _, c in triples) \
                and v.outcome == "CoH":
            failures.append(("unsound", K, v.as_dict()))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1800
    announce(capsys, 4, "splitting-verdict engine", ok, elapsed,
             f"worked verdicts, 50 neighbourly, soundness over {scanned}")
    assert not failures, failures[:3]
    assert elapsed < 1800


def test_5_region_statistics_exact(capsys):
    t0 = time.perf_counter()
    failures = []
    for n in range(4, 10):
        report = split_region_report(n, 10_000, seed=4000 + n)
        clean = (report["samples"] == 10_000
                 and report["overlap_breaches"] == 0
                 and report["coverage_breaches"] == 0
                 and report["stray_tag_breaches"] == 0
                 and report["retraction_breaches"] == 0
                 and report["gauge_failures"] == 0
                 and report["retraction_checked"] == report["tagged"]
                 and report["in_cluster"] == report["tagged"]
                 and report["gauge_trips"] == report["tagged"])
        if not clean:
            failures.append((n, report))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600
    announce(capsys, 5, "region statistics", ok, elapsed,
             "n=4..9, 10^4 rational samples each, zero breaches")
    assert not failures, failures
    assert elapsed < 600


def homotopy_corpus():
    """20 complexes, each at least floor(n/3)-neighbourly, n in {4,5,6}."""
    named = [
        cycle_complex(4), boundary_simplex(4), full_skeleton(4, 1),
        single_non_face(4, 2),
        boundary_simplex(5), full_skeleton(5, 1), full_skeleton(5, 2),
        single_non_face(5, 2),
        single_non_face(6, 3), full_skeleton(6, 2), boundary_simplex(6),
    ]
    corpus = list(named)
    seed = 808
    for n, count in ((4, 3), (5, 3), (6, 3)):
        produced = 0
        while produced < count:
            K = random_complex(n, n // 3, 0.5, seed)
            seed += 1
            if K.is_simplex:
                continue
            corpus.append(K)
            produced += 1
    assert len(corpus) == 20
    return corpus


def test_6_tagging_homotopy_identities(capsys):
    t0 = time.perf_counter()
    failures = []
    for i, K in enumerate(homotopy_corpus()):
        assert K.neighbourliness >= K.n // 3
        report = homotopy_report(K, 1000, seed=6000 + i)
        clean = (report["samples"] == 1000
                 and report["start_mismatches"] == 0
                 and report["end_mismatches"] == 0
                 and report["end_compared"] == 1000
                 and report["membership_violations"] == 0
                 and report["max_end_error"] == 0)
        if not clean:
            failures.append((K, report))

    # stored regression: a ghost vertex breaks factor-map membership
    fx = load_fixture("nonneighbourly_regression.json")
    ghost = fixture_complex("nonneighbourly_regression.json", key="complex")
    assert ghost.neighbourliness < ghost.n // 3 + 1  # genuinely non-neighbourly
    low = vertex_mask(fx["low_block"])
    high = vertex_mask(fx["high_block"])
    pre_gauge = rational_point(fx["pre_gauge"])
    params = radial_gauge(low, high, pre_gauge)
    if radial_gauge_inverse(low, high, params) != pre_gauge:
        failures.append(("regression fixture gauge round trip", params))
    omega = SuspensionPoint(params, rational_point(fx["payload"]))
    with pytest.raises(MembershipViolation) as info:
        factor_tagging_map(ghost, low, high, omega)
    if info.value.failed_block != vertex_mask(fx["expected"]["failed_block"]) \
            or info.value.support != vertex_mask(fx["expected"]["support"]):
        failures.append(("regression fixture", info.value))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1200
    announce(capsys, 6, "tagging homotopy", ok, elapsed,
             "20 complexes x 10^3 samples, exact endpoints, membership clean")
    assert not failures, failures[:3]
    assert elapsed < 1200


def test_7_smith_form_and_torsion(capsys):
    t0 = time.perf_counter()
    rng = seeded(9001)
    failures = []
    for trial in range(1000):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        entries = [[rng.randint(-9, 9) if rng.random() < 0.8 else 0
                    for _ in range(cols)] for _ in range(rows)]
        if trial % 5 == 0 and rows > 1:
            entries[-1] = [3 * x for x in entries[0]]  # force rank deficiency
        A = int_matrix(entries)
        snf = smith_normal_form(A, keep_transforms=True)
        diag = snf.diagonal
        good = (snf.U @ A @ snf.V == snf.as_matrix()
                and all(d > 0 for d in diag)
                and all(diag[i + 1] % diag[i] == 0
                        for i in range(len(diag) - 1)))
        if not good:
            failures.append((entries, diag))

    # torsion bookkeeping: the projective plane has a lone order-two class,
    # visible over Z and as an F2-versus-Q rank discrepancy
    rp2 = fixture_complex("rp2.json")
    h1 = reduced_homology(rp2, "Z")[1]
    if h1.rank != 0 or list(h1.torsion) != [2]:
        failures.append(("rp2 homology", h1.as_dict()))
    q = poincare_series(rp2, "Q").as_dict()
    f2 = poincare_series(rp2, "F2").as_dict()
    diff = {d: f2.get(d, 0) - q.get(d, 0)
            for d in set(f2) | set(q) if f2.get(d, 0) != q.get(d, 0)}
    if diff != {8: 1, 9: 1}:
        failures.append(("rp2 series discrepancy", diff))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    announce(capsys, 7, "Smith form and torsion", ok, elapsed,
             "10^3 transform identities, order-two class over Z vs F2/Q")
    assert not failures, failures[:3]
    assert elapsed < 120
