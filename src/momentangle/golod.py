"""Product-vanishing decision and nullhomotopy certificates.

For each pair of disjoint nonempty vertex sets I, J there is a canonical
inclusion of K restricted to I ∪ J into the join of the restrictions to
I and to J.  The suspensions of these inclusions control whether the
moment-angle complex splits as a wedge: if any of them is essential the
splitting fails, and a map that is nonzero on cohomology is certainly
essential.  This module certifies nullhomotopy where cheap topology
suffices (contractible source or target, dimension below the join's
connectivity) and otherwise computes the induced cohomology maps
exactly, over ZZ, QQ and small prime fields.  A certificate stops at the
first nonzero map, so a QQ check that follows a zero ZZ map in the
battery is skipped: by the universal coefficient theorem the QQ map is
the ZZ map tensored with QQ, hence zero as well.  Reports that list the
maps over every coefficient system (``iota_pair``, the witness of a
NotCoH verdict, ``cup_products_vanish``) still compute QQ.

Certificate reasons name the spaces of the unsuspended inclusion: its
source is the restriction to I ∪ J and its target is the join.

Scans over all pairs visit (3^n - 2^{n+1} + 1)/2 pairs, so they refuse
complexes with more than ``MAX_PAIR_VERTICES`` vertices up front.
"""

from __future__ import annotations

import math

from momentangle.complexes import full_mask, mask_vertices
from momentangle.homology import (
    DEFAULT_BATTERY,
    CochainCalculator,
    InducedMap,
    check_subcomplex,
    connectivity_certificate,
)
from momentangle.hochster import wedge_model

# Largest vertex count the all-pairs scans accept: 261,625 pairs at n = 12.
MAX_PAIR_VERTICES = 12


class NullCertificate:
    """Verdict on one suspended inclusion: Null(reason)/NotNull/Unknown."""

    def __init__(self, verdict, reason=None, obstruction=None):
        if verdict not in ("Null", "NotNull", "Unknown"):
            raise ValueError(f"bad verdict {verdict!r}")
        self.verdict = verdict
        self.reason = reason
        self.obstruction = obstruction

    def as_dict(self):
        out = {"verdict": self.verdict}
        if self.reason:
            out["reason"] = self.reason
        if self.obstruction:
            coeffs, degree = self.obstruction
            out["obstruction"] = {"coeffs": coeffs, "degree": degree}
        return out

    def __repr__(self):
        extra = self.reason or self.obstruction or ""
        return f"NullCertificate({self.verdict}{', ' if extra else ''}{extra})"


class PairReport:
    """Everything computed for one pair: maps per coefficients + verdict."""

    def __init__(self, subset_i, subset_j, induced, certificate):
        self.subset_i = subset_i
        self.subset_j = subset_j
        self.induced = induced
        self.certificate = certificate

    def as_dict(self):
        return {
            "I": list(mask_vertices(self.subset_i)),
            "J": list(mask_vertices(self.subset_j)),
            "induced": {
                coeffs: {"is_zero": m.is_zero,
                         "nonzero_degrees": m.nonzero_degrees()}
                for coeffs, m in self.induced.items()
            },
            "certificate": self.certificate.as_dict(),
        }

    def __repr__(self):
        return (f"PairReport(I={list(mask_vertices(self.subset_i))}, "
                f"J={list(mask_vertices(self.subset_j))}, "
                f"{self.certificate!r})")


class TheoremVerdict:
    """Outcome of the splitting decision procedure for one complex."""

    def __init__(self, hypothesis_holds, outcome,
                 wedge=None, witness=None, unknown_pairs=()):
        self.hypothesis_holds = hypothesis_holds
        self.outcome = outcome
        self.wedge = wedge
        self.witness = witness
        self.unknown_pairs = list(unknown_pairs)

    def as_dict(self):
        out = {"hypothesis_holds": self.hypothesis_holds,
               "outcome": self.outcome}
        if self.wedge is not None:
            out["wedge"] = self.wedge.as_dict()
        if self.witness is not None:
            out["witness"] = self.witness.as_dict()
        if self.outcome == "Inconclusive":
            out["unknown_pairs"] = [
                {"I": list(mask_vertices(i)), "J": list(mask_vertices(j))}
                for i, j in self.unknown_pairs]
        return out

    def __repr__(self):
        return (f"TheoremVerdict({self.outcome}, "
                f"hypothesis_holds={self.hypothesis_holds})")


def iter_disjoint_pairs(n):
    """Unordered disjoint nonempty pairs of subsets of {1..n}.

    Each pair appears once, with the side containing the lowest vertex
    of I ∪ J first; pairs stream in ascending (I mask, J mask) order.
    """
    full = full_mask(n)
    for bits in range(1, 1 << n):
        first = bits << 1
        complement = full ^ first
        low_bit = first & -first
        second = 0
        while True:
            second = (second - complement) & complement
            if not second:
                break
            if (first | second) & -(first | second) == low_bit:
                yield first, second


def _check_pair_scan(complex):
    """Refuse a complex too large for an all-pairs scan, before any
    subset walk (even its neighbourliness) starts."""
    if complex.n > MAX_PAIR_VERTICES:
        raise ValueError(f"pair scans need at most {MAX_PAIR_VERTICES} "
                         f"vertices, got {complex.n}")


class _PairEngine:
    """Per-run caches for restrictions, joins and cohomology calculators."""

    def __init__(self, complex):
        self.complex = complex
        self._restrictions = {}
        self._connectivity = {}
        self._calculators = {}
        self._joins = {}
        self._induced = {}

    def restriction(self, mask):
        if mask not in self._restrictions:
            self._restrictions[mask] = self.complex.restriction(mask)
        return self._restrictions[mask]

    def connectivity(self, mask):
        if mask not in self._connectivity:
            self._connectivity[mask] = connectivity_certificate(
                self.restriction(mask))
        return self._connectivity[mask]

    def calculator(self, complex, key, coeffs):
        memo_key = (key, coeffs)
        if memo_key not in self._calculators:
            self._calculators[memo_key] = CochainCalculator(complex, coeffs)
        return self._calculators[memo_key]

    def join(self, subset_i, subset_j):
        key = (subset_i, subset_j)
        if key not in self._joins:
            joined = self.restriction(subset_i).join(self.restriction(subset_j))
            check_subcomplex(self.restriction(subset_i | subset_j), joined)
            self._joins[key] = joined
        return self._joins[key]

    def induced_map(self, subset_i, subset_j, coeffs):
        key = (subset_i, subset_j, coeffs)
        if key not in self._induced:
            source = self.calculator(self.join(subset_i, subset_j),
                                     ("join", subset_i, subset_j), coeffs)
            target = self.calculator(self.restriction(subset_i | subset_j),
                                     ("sub", subset_i | subset_j), coeffs)
            self._induced[key] = InducedMap(target, source)
        return self._induced[key]


def _validate_pair(complex, subset_i, subset_j):
    if not subset_i or not subset_j:
        raise ValueError("both subsets must be nonempty")
    if subset_i & subset_j:
        raise ValueError("subsets must be disjoint")
    if (subset_i | subset_j) & ~full_mask(complex.n):
        raise ValueError("subsets must lie in the ambient vertex set")


def _certificate(engine, subset_i, subset_j, battery=DEFAULT_BATTERY):
    """Certificate cascade for one pair, cheapest arguments first."""
    complex = engine.complex
    # A side of size at most the neighbourliness restricts to a full
    # simplex, so the join is a cone; skip building anything.
    if min(subset_i.bit_count(),
           subset_j.bit_count()) <= complex.neighbourliness:
        return NullCertificate("Null", reason="TargetContractible")
    if (engine.restriction(subset_i).is_cone
            or engine.restriction(subset_j).is_cone):
        return NullCertificate("Null", reason="TargetContractible")
    union = subset_i | subset_j
    if engine.restriction(union).is_cone:
        return NullCertificate("Null", reason="SourceContractible")
    conn_i, flag_i = engine.connectivity(subset_i)
    conn_j, flag_j = engine.connectivity(subset_j)
    if (flag_i == "topological" and flag_j == "topological"
            and engine.restriction(union).dim <= conn_i + conn_j + 2):
        return NullCertificate("Null", reason="DimBelowConnectivity")
    for k, coeffs in enumerate(battery):
        # Every earlier map was zero.  If Z was among them, the universal
        # coefficient theorem (f*_Q = f*_Z ⊗ Q) makes the Q map zero too.
        if coeffs == "Q" and "Z" in battery[:k]:
            continue
        degrees = engine.induced_map(subset_i, subset_j,
                                     coeffs).nonzero_degrees()
        if degrees:
            return NullCertificate("NotNull",
                                   obstruction=(coeffs, degrees[0]))
    return NullCertificate("Unknown")


def null_certificate(complex, subset_i, subset_j):
    """Certificate for the suspended inclusion of one disjoint pair.

    Applies, in order: target contractible (a restriction is a cone, so
    the join is one), source contractible, source dimension at most the
    join's certified topological connectivity, then exact induced-map
    computation over the default coefficient battery.  NotNull carries
    the first (coefficients, degree) obstruction found.
    """
    _validate_pair(complex, subset_i, subset_j)
    return _certificate(_PairEngine(complex), subset_i, subset_j)


def iota_pair(complex, subset_i, subset_j, coeffs=DEFAULT_BATTERY):
    """Full report for one pair: join built, subcomplex checked, induced
    cohomology maps computed over every requested coefficient system."""
    _validate_pair(complex, subset_i, subset_j)
    if isinstance(coeffs, str):
        coeffs = (coeffs,)
    engine = _PairEngine(complex)
    induced = {c: engine.induced_map(subset_i, subset_j, c) for c in coeffs}
    certificate = _certificate(engine, subset_i, subset_j, battery=coeffs)
    return PairReport(subset_i, subset_j, induced, certificate)


def pair_certificates(complex, coeffs=DEFAULT_BATTERY):
    """Certificate for every disjoint pair, sharing one cache engine.

    Returns ``(subset_i, subset_j, NullCertificate)`` triples in the
    canonical pair order.  A NotNull verdict anywhere means some induced
    map is essential, so the product-vanishing question is settled by
    scanning the verdicts.
    """
    _check_pair_scan(complex)
    if isinstance(coeffs, str):
        coeffs = (coeffs,)
    engine = _PairEngine(complex)
    return [
        (subset_i, subset_j, _certificate(engine, subset_i, subset_j, coeffs))
        for subset_i, subset_j in iter_disjoint_pairs(complex.n)
    ]


def cup_products_vanish(complex, coeffs=DEFAULT_BATTERY):
    """Whether every induced map on cohomology is zero, with witnesses.

    Scans all disjoint pairs.  Pairs whose join is a cone (one side is a
    simplex or a cone) or whose union restricts to a cone have a zero
    map for rank reasons and are skipped; every other pair's maps are
    computed exactly.  Returns (all_zero, [PairReport for failures]).
    """
    _check_pair_scan(complex)
    if isinstance(coeffs, str):
        coeffs = (coeffs,)
    engine = _PairEngine(complex)
    neighbourliness = complex.neighbourliness
    witnesses = []
    for subset_i, subset_j in iter_disjoint_pairs(complex.n):
        if min(subset_i.bit_count(), subset_j.bit_count()) <= neighbourliness:
            continue
        if (engine.restriction(subset_i).is_cone
                or engine.restriction(subset_j).is_cone
                or engine.restriction(subset_i | subset_j).is_cone):
            continue
        failing = {}
        for c in coeffs:
            induced = engine.induced_map(subset_i, subset_j, c)
            if not induced.is_zero:
                failing[c] = induced
        if failing:
            first = next(iter(failing))
            certificate = NullCertificate(
                "NotNull",
                obstruction=(first, failing[first].nonzero_degrees()[0]))
            induced_all = {c: engine.induced_map(subset_i, subset_j, c)
                           for c in coeffs}
            witnesses.append(PairReport(subset_i, subset_j,
                                        induced_all, certificate))
    return not witnesses, witnesses


def splitting_verdict(complex):
    """Decision procedure: wedge splitting, a refuting pair, or neither.

    NotCoH is returned on the first pair (in canonical order) whose
    inclusion is essential on cohomology — valid whether or not the
    neighbourliness hypothesis holds, since an essential map cannot be
    nullhomotopic.  CoH needs the ⌊n/3⌋-neighbourly hypothesis plus a
    Null certificate for every pair, and comes with the integral wedge
    model.  Anything else is Inconclusive, listing the pairs that
    resisted certification.
    """
    _check_pair_scan(complex)
    hypothesis = complex.is_third_neighbourly
    engine = _PairEngine(complex)
    unknown = []
    for subset_i, subset_j in iter_disjoint_pairs(complex.n):
        certificate = _certificate(engine, subset_i, subset_j)
        if certificate.verdict == "NotNull":
            induced = {c: engine.induced_map(subset_i, subset_j, c)
                       for c in DEFAULT_BATTERY}
            witness = PairReport(subset_i, subset_j, induced, certificate)
            return TheoremVerdict(hypothesis, "NotCoH", witness=witness)
        if certificate.verdict == "Unknown":
            unknown.append((subset_i, subset_j))
    if hypothesis and not unknown:
        return TheoremVerdict(True, "CoH", wedge=wedge_model(complex, "Z"))
    return TheoremVerdict(hypothesis, "Inconclusive", unknown_pairs=unknown)


# ----------------------------------------------------------------------
# products of decomposition classes


class SummandClass:
    """A cohomology class in one summand: subset, degree, coordinates."""

    def __init__(self, subset_mask, degree, coords):
        self.subset_mask = subset_mask
        self.degree = degree
        self.coords = tuple(coords)

    @property
    def is_zero(self):
        return all(not c for c in self.coords)

    def __repr__(self):
        return (f"SummandClass(I={list(mask_vertices(self.subset_mask))}, "
                f"degree={self.degree}, coords={self.coords})")


def _shuffle_sign(mask_a, mask_b):
    """Sign of the permutation sorting (vertices of a, vertices of b)."""
    inversions = 0
    b_seen = 0
    for v in mask_vertices(mask_a | mask_b):
        if mask_b >> v & 1:
            b_seen += 1
        else:
            inversions += b_seen
    return -1 if inversions % 2 else 1


def cup_product(complex, field, class_i, class_j):
    """Product of two summand classes, landing in the union's summand.

    The product of classes supported on I and J lives in degree
    p + q + 1 of the restriction to I ∪ J; when I and J overlap it is
    zero by definition.  On a face f of that degree the representing
    cochain evaluates, up to the sign convention below, to
    α(f ∩ I)·β(f ∩ J) — with the Künneth sign (-1)^{(p+1)(q+1)} and the
    shuffle sign of interleaving f ∩ I with f ∩ J.
    """
    engine = _PairEngine(complex)
    p, q = class_i.degree, class_j.degree
    union = class_i.subset_mask | class_j.subset_mask
    target = engine.calculator(engine.restriction(union),
                               ("sub", union), field)
    target_orders = target.orders(p + q + 1) if p + q + 1 <= max(
        target.complex.dim, -1) else ()
    zero = SummandClass(union, p + q + 1, (0,) * len(target_orders))
    if class_i.subset_mask & class_j.subset_mask:
        return zero
    calc_i = engine.calculator(engine.restriction(class_i.subset_mask),
                               ("sub", class_i.subset_mask), field)
    calc_j = engine.calculator(engine.restriction(class_j.subset_mask),
                               ("sub", class_j.subset_mask), field)
    for calc, cls in ((calc_i, class_i), (calc_j, class_j)):
        if len(cls.coords) != len(calc.orders(cls.degree)):
            raise ValueError("class coordinate length does not match the "
                             "summand's basis")
    if not target_orders:
        return zero
    alpha = _combined_cochain(calc_i, class_i)
    beta = _combined_cochain(calc_j, class_j)
    index_i = calc_i.face_index(p)
    index_j = calc_j.face_index(q)
    kunneth = -1 if ((p + 1) * (q + 1)) % 2 else 1
    product = []
    for face in target.faces(p + q + 1):
        part_i = face & class_i.subset_mask
        part_j = face & class_j.subset_mask
        if part_i.bit_count() != p + 1 or part_j not in index_j:
            product.append(0)
            continue
        if part_i not in index_i:
            product.append(0)
            continue
        value = (kunneth * _shuffle_sign(part_i, part_j)
                 * alpha[index_i[part_i]] * beta[index_j[part_j]])
        product.append(value)
    return SummandClass(union, p + q + 1,
                        target.class_coordinates(p + q + 1, product))


def _combined_cochain(calculator, summand_class):
    generators = calculator.generators(summand_class.degree)
    size = len(calculator.faces(summand_class.degree))
    out = [0] * size
    for coeff, gen in zip(summand_class.coords, generators):
        if coeff:
            for i, v in enumerate(gen):
                out[i] += coeff * v
    return out
