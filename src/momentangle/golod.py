"""Product-vanishing decision and nullhomotopy certificates.

For each pair of disjoint nonempty vertex sets I, J there is a canonical
inclusion of K restricted to I ∪ J into the join of the restrictions to
I and to J.  The suspensions of these inclusions control whether the
moment-angle complex splits as a wedge: if any of them is essential the
splitting fails, and a map that is nonzero on cohomology is certainly
essential.  This module certifies nullhomotopy where cheap topology
suffices (contractible source or target, dimension below the join's
connectivity) and otherwise computes the induced cohomology maps
exactly, over ZZ, QQ and small prime fields.

The join is never built.  By Künneth its cohomology is spanned by cross
products of the factors' classes and, over ZZ, by one class per pair of
torsion classes whose orders share a prime (the Tor summand), so each
pair map is read off the cached calculators of I, J and I ∪ J
(``CrossProductMap``).  A mask's calculator is built from K's facets cut
down to it, as the Hochster scan reads its cores, and is the one
per-mask record: a ``homology.ChainComplex`` whose cone tests, dimension
and Hurewicz test the certificates read, and whose connectivity comes
off its table of integral groups; a full skeleton, as most K_I of a
neighbourly K are, lists no faces until a pair map reads its generators.
It serves every coefficient system.
The engine keeps no pair map: a pair's report builds its maps again from
the cached calculators.  Each calculator tabulates from that table, once
per coefficient system and by universal coefficients, how many classes
each degree has (``class_counts``).  So a pair map decides each degree
from the tables before any Smith transform: a target degree with no
classes is no rows, cross products are built only in the factor degrees
where both sides have classes, and over ZZ Tor classes only where the
torsion orders share a prime.

A certificate stops at the first nonzero map, so a QQ check that
follows a zero ZZ map in the battery is skipped: by the universal
coefficient theorem the QQ map is the ZZ map tensored with QQ, hence
zero as well.  Reports that list the maps over every coefficient system
(``iota_pair``, the witness of a NotCoH verdict,
``cup_products_vanish``) still compute QQ.

Certificate reasons name the spaces of the unsuspended inclusion: its
source is the restriction to I ∪ J and its target is the join.

The scans over all pairs (``pair_certificates``, ``splitting_verdict``,
``cup_products_vanish``) refuse complexes with more than
``MAX_PAIR_VERTICES`` vertices up front, then read the neighbourliness
m once.  A pair with a side of at most m vertices is Null by its sizes
alone, since that side restricts to a simplex.  ``splitting_verdict``
and ``cup_products_vanish`` read one certificate stream, which walks
only the pairs with both sides larger than m, in canonical order
(15,114 of the 261,625 disjoint pairs of ``full_skeleton(12, 3)``);
``cup_products_vanish`` is its set of NotNull pairs.
``pair_certificates`` reports every pair, so it walks all
(3^n - 2^{n+1} + 1)/2 of them and marks the size-settled ones
TargetContractible.  The size test belongs to the walks: a single-pair
certificate (``null_certificate``, ``iota_pair``) reaches the same
verdict through its cone test and walks no subsets.
"""

from __future__ import annotations

import math

from momentangle.complexes import full_mask, mask_vertices
from momentangle.homology import (
    DEFAULT_BATTERY,
    CochainCalculator,
    GradedMap,
    hurewicz_applies,
)
from momentangle.hochster import wedge_model
# Unused here (connectivity is read off each chain complex's integral
# table), but the benchmark's tracer wraps this module attribute by name.
from momentangle.homology import connectivity_certificate  # noqa: F401

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


def iter_disjoint_pairs(n, above=0):
    """Unordered disjoint pairs of subsets of {1..n} with more than
    ``above`` vertices on each side (by default: nonempty).

    Each pair appears once, with the side containing the lowest vertex
    of I ∪ J first; pairs stream in ascending (I mask, J mask) order.
    No pair with a smaller side is visited: J runs over the submasks of
    the vertices above I's lowest in ascending order, and jumps past
    those with too few vertices.
    """
    full = full_mask(n)
    for bits in range(1, 1 << n):
        first = bits << 1
        complement = full & ~first & -((first & -first) << 1)
        if first.bit_count() <= above or complement.bit_count() <= above:
            continue
        second = 0
        while True:
            second = (second - complement) & complement
            if not second:
                break
            # the least larger submask with one more vertex adds the
            # lowest vertex of the complement that it misses
            while second.bit_count() <= above:
                missing = complement & ~second
                second |= missing & -missing
            yield first, second


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


def _cross_product_cochains(faces, mask_i, index_i, alphas, index_j, betas):
    """The cochains f ↦ sign(f∩I, f∩J)·α(f∩I)·β(f∩J) on ``faces``.

    ``faces`` lie in I ∪ J, and a face's part in I is its meet with
    ``mask_i`` (I itself, or the support of K_I).  α runs over ``alphas``
    (cochains on the faces of ``index_i``) and β over ``betas`` (on those
    of ``index_j``), α major.  The sign is the shuffle sign, so the value
    is α·β on the face ordered I-part first.  A face whose parts are not
    both indexed (the wrong sizes) gets 0.
    """
    splits = []
    for k, face in enumerate(faces):
        part_i = face & mask_i
        part_j = face ^ part_i
        if part_i in index_i and part_j in index_j:
            splits.append((k, index_i[part_i], index_j[part_j],
                           _shuffle_sign(part_i, part_j)))
    out = []
    for alpha in alphas:
        for beta in betas:
            cochain = [0] * len(faces)
            for k, a, b, sign in splits:
                cochain[k] = sign * alpha[a] * beta[b]
            out.append(cochain)
    return out


class CrossProductMap(GradedMap):
    """The map H̃^*(K_I * K_J) → H̃^*(K_{I∪J}) read from the factors.

    The join's reduced cochains are the tensor product of the factors'
    (shifted by one), and δ(u × v) = δu × v + (-1)^{|u|+1} u × δv.  By
    Künneth its cohomology in degree d is spanned by

    - the cross products α × β, α a generator of H̃^p(K_I) and β one of
      H̃^q(K_J), p + q + 1 = d; the empty face sits in degree -1, so a
      side of ghost vertices needs no special case;
    - over ``Z``, one Tor class for each torsion generator α of H̃^p(K_I)
      (δa = eα) and β of H̃^q(K_J) (δb = fβ), p + q = d, with
      g = gcd(e, f) > 1: the cocycle (f/g)·a × β + (-1)^p (e/g)·α × b.

    Column k of ``matrix(d)`` is the class in H̃^d(K_{I∪J}) of the k-th
    of these cochains restricted, f ↦ sign(f∩I, f∩J)·u(f∩I)·v(f∩J), with
    entries reduced modulo the target's orders over ``coeffs`` as in
    ``InducedMap``.  The columns generate the image, so zero tests and
    ``nonzero_degrees`` are exact over every coefficient system.
    """

    def __init__(self, calc_i, calc_j, target, coeffs):
        self.calc_i = calc_i
        self.calc_j = calc_j
        self.target = target
        self.coeffs = coeffs
        self._matrices = {}

    def degrees(self):
        top = max(self.target.dim, self.calc_i.dim + self.calc_j.dim + 1)
        return range(-1, top + 1)

    def matrix(self, d):
        rows = self._matrices.get(d)
        if rows is None:
            rows = self._matrices[d] = self._rows(d)
        return rows

    def _rows(self, d):
        """The matrix in degree d, decided first from the calculators'
        class counts: no rows when the target has no generators, and one
        empty row per target generator when no cochain is built.

        Cross products are built only for I's class degrees p where J has
        classes in d - 1 - p, and over ``Z`` Tor cochains only where the
        two sides' torsion orders share a prime, so no side's transforms
        are built for a degree whose partner has no classes.  The built
        cochains' class coordinates make up the columns.
        """
        target, coeffs = self.target, self.coeffs
        size = target.class_counts(coeffs).get(d)
        if not size:
            return []
        calc_i, calc_j = self.calc_i, self.calc_j
        counts_j = calc_j.class_counts(coeffs)
        cochains = []
        for p in calc_i.class_counts(coeffs):
            q = d - 1 - p
            if q in counts_j:
                cochains += self._cross(d, p, calc_i.generators(p, coeffs),
                                        calc_j.generators(q, coeffs))
        if coeffs == "Z":
            for p, group in calc_i.integral_groups.items():
                if group.torsion and any(
                        math.gcd(e, f) > 1 for e in group.torsion
                        for f in calc_j.integral_group(d - p).torsion):
                    cochains += self._tor_cochains(d, p)
        if not cochains:
            return [[] for _ in range(size)]
        columns = [target.class_coordinates(d, c, coeffs) for c in cochains]
        return [[col[i] for col in columns] for i in range(size)]

    def _cross(self, d, p, lefts, rights):
        """Restricted u × v for u in ``lefts`` (p-cochains of K_I) and v in
        ``rights`` ((d - 1 - p)-cochains of K_J), u major."""
        if not (lefts and rights):
            return []
        return _cross_product_cochains(
            self.target.faces(d), self.calc_i.support,
            self.calc_i.face_index(p), lefts,
            self.calc_j.face_index(d - 1 - p), rights)

    def _tor_cochains(self, d, p):
        """The Tor cocycles of degree d from H̃^p(K_I) and H̃^{d-p}(K_J);
        none over a field."""
        if self.coeffs != "Z":
            return []
        tors_i = self.calc_i.torsion_primitives(p)
        tors_j = self.calc_j.torsion_primitives(d - p)
        orders = [(e, f) for _, e, _ in tors_i for _, f, _ in tors_j]
        a_beta = self._cross(d, p - 1, [a for _, _, a in tors_i],
                             [beta for beta, _, _ in tors_j])
        alpha_b = self._cross(d, p, [alpha for alpha, _, _ in tors_i],
                              [b for _, _, b in tors_j])
        sign = -1 if p % 2 else 1
        out = []
        for (e, f), u, v in zip(orders, a_beta, alpha_b):
            g = math.gcd(e, f)
            if g > 1:
                out.append([f // g * x + sign * (e // g) * y
                            for x, y in zip(u, v)])
        return out


class _PairEngine:
    """A per-run cache of calculators, one per mask, plus the one pair
    walk and the one pair-report builder."""

    def __init__(self, complex):
        self.complex = complex
        self._calculators = {}

    def calculator(self, mask):
        """Cochain calculator of K_I for I = ``mask``, read off K's facets
        cut down to I: its cone test, dimension, neighbourliness and
        connectivity, and its cohomology over every coefficient system."""
        if mask not in self._calculators:
            self._calculators[mask] = CochainCalculator(
                {f & mask for f in self.complex.facets})
        return self._calculators[mask]

    def induced_map(self, subset_i, subset_j, coeffs):
        """The map on cohomology induced by K_{I∪J} ⊆ K_I * K_J, read from
        the cached calculators of I, J and I ∪ J as a ``CrossProductMap``."""
        return CrossProductMap(self.calculator(subset_i),
                               self.calculator(subset_j),
                               self.calculator(subset_i | subset_j), coeffs)

    def certificates(self, battery):
        """Stream ``(subset_i, subset_j, NullCertificate)`` over the pairs
        that need work, in the canonical order of ``iter_disjoint_pairs``.

        A side of size at most the neighbourliness restricts to a full
        simplex, so the join is a cone and the pair is Null by its sizes
        alone: only pairs with both sides larger are walked.
        """
        _refuse_above_cap(self.complex)
        return ((subset_i, subset_j,
                 _certificate(self, subset_i, subset_j, battery))
                for subset_i, subset_j in iter_disjoint_pairs(
                    self.complex.n, above=self.complex.neighbourliness))

    def report(self, subset_i, subset_j, battery, certificate):
        """The pair's certificate with its induced map over every
        coefficient system of the battery."""
        induced = {c: self.induced_map(subset_i, subset_j, c) for c in battery}
        return PairReport(subset_i, subset_j, induced, certificate)


def _battery(coeffs):
    """A coefficient battery as a sequence; one label is a battery of one."""
    return (coeffs,) if isinstance(coeffs, str) else coeffs


def _refuse_above_cap(complex):
    """The all-pairs scans' cap, checked before any subset walk, the
    neighbourliness included."""
    if complex.n > MAX_PAIR_VERTICES:
        raise ValueError(f"pair scans need at most {MAX_PAIR_VERTICES} "
                         f"vertices, got {complex.n}")


def _validate_pair(complex, subset_i, subset_j):
    if not subset_i or not subset_j:
        raise ValueError("both subsets must be nonempty")
    if subset_i & subset_j:
        raise ValueError("subsets must be disjoint")
    if (subset_i | subset_j) & ~full_mask(complex.n):
        raise ValueError("subsets must lie in the ambient vertex set")


def _certificate(engine, subset_i, subset_j, battery=DEFAULT_BATTERY):
    """Certificate cascade for one pair, cheapest arguments first."""
    side_i, side_j = engine.calculator(subset_i), engine.calculator(subset_j)
    if side_i.apex or side_j.apex:
        return NullCertificate("Null", reason="TargetContractible")
    union = engine.calculator(subset_i | subset_j)
    if union.apex:
        return NullCertificate("Null", reason="SourceContractible")
    # neither side is a cone, so its connectivity is topological exactly
    # when the Hurewicz flag holds; without it no connectivity is read
    if hurewicz_applies(side_i) and hurewicz_applies(side_j):
        if union.dim <= side_i.connectivity + side_j.connectivity + 2:
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
    """Full report for one pair: its certificate and the induced
    cohomology maps over every requested coefficient system."""
    _validate_pair(complex, subset_i, subset_j)
    battery = _battery(coeffs)
    engine = _PairEngine(complex)
    return engine.report(subset_i, subset_j, battery,
                         _certificate(engine, subset_i, subset_j, battery))


def pair_certificates(complex, coeffs=DEFAULT_BATTERY):
    """Certificate for every disjoint pair, sharing one cache engine.

    Returns ``(subset_i, subset_j, NullCertificate)`` triples for every
    disjoint pair, in the canonical pair order; a pair with a side no
    larger than the neighbourliness is TargetContractible by its sizes.
    A NotNull verdict anywhere means some induced map is essential, so
    the product-vanishing question is settled by scanning the verdicts.
    """
    _refuse_above_cap(complex)
    engine = _PairEngine(complex)
    battery = _battery(coeffs)
    neighbourliness = complex.neighbourliness
    return [(subset_i, subset_j,
             NullCertificate("Null", reason="TargetContractible")
             if min(subset_i.bit_count(),
                    subset_j.bit_count()) <= neighbourliness
             else _certificate(engine, subset_i, subset_j, battery))
            for subset_i, subset_j in iter_disjoint_pairs(complex.n)]


def cup_products_vanish(complex, coeffs=DEFAULT_BATTERY):
    """Whether every induced map on cohomology is zero, with witnesses.

    The witnesses are the NotNull pairs of the certificate stream, each
    reported with its maps over every requested coefficient system; a
    Null or Unknown pair, and a pair the stream skips by its sizes, has
    a zero map over each of them.  Returns (all_zero, [PairReport for
    failures]).
    """
    battery = _battery(coeffs)
    engine = _PairEngine(complex)
    witnesses = [engine.report(subset_i, subset_j, battery, certificate)
                 for subset_i, subset_j, certificate
                 in engine.certificates(battery)
                 if certificate.verdict == "NotNull"]
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
    engine = _PairEngine(complex)
    stream = engine.certificates(DEFAULT_BATTERY)
    hypothesis = complex.is_third_neighbourly
    unknown = []
    for subset_i, subset_j, certificate in stream:
        if certificate.verdict == "NotNull":
            witness = engine.report(subset_i, subset_j, DEFAULT_BATTERY,
                                    certificate)
            return TheoremVerdict(hypothesis, "NotCoH", witness=witness)
        if certificate.verdict == "Unknown":
            unknown.append((subset_i, subset_j))
    if hypothesis and not unknown:
        return TheoremVerdict(True, "CoH", wedge=wedge_model(complex, "Z"))
    return TheoremVerdict(hypothesis, "Inconclusive", unknown_pairs=unknown)
