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

The join is not built to compute a map.  By Künneth its cohomology is
spanned by cross products of the factors' classes, so each pair map is
read off the cached calculators of I, J and I ∪ J
(``CrossProductMap``).  The one exception is a ZZ pair whose sides
share a torsion prime: there the join has a Tor summand that no cross
product reaches, and that map alone builds the join and its calculator.

A certificate stops at the first nonzero map, so a QQ check that
follows a zero ZZ map in the battery is skipped: by the universal
coefficient theorem the QQ map is the ZZ map tensored with QQ, hence
zero as well.  Reports that list the maps over every coefficient system
(``iota_pair``, the witness of a NotCoH verdict,
``cup_products_vanish``) still compute QQ.

Certificate reasons name the spaces of the unsuspended inclusion: its
source is the restriction to I ∪ J and its target is the join.

Every scan over all pairs (``pair_certificates``, ``splitting_verdict``,
``cup_products_vanish``) reads one certificate stream, which walks the
(3^n - 2^{n+1} + 1)/2 disjoint pairs once; ``cup_products_vanish`` is
its set of NotNull pairs.  The stream refuses complexes with more than
``MAX_PAIR_VERTICES`` vertices up front, then reads the neighbourliness
once and settles every pair with a side no larger than it by size
alone.  That size test belongs to the walk: a single-pair certificate
(``null_certificate``, ``iota_pair``) reaches the same verdict through
its cone test and walks no subsets.
"""

from __future__ import annotations

import math

from momentangle.complexes import full_mask, mask_vertices
from momentangle.homology import (
    DEFAULT_BATTERY,
    CochainCalculator,
    GradedMap,
    InducedMap,
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


def _share_torsion_prime(calc_i, calc_j):
    """Whether some torsion orders of the two cohomologies share a prime,
    so that the Künneth formula has a Tor summand."""
    def torsion(calc):
        return [e for d in calc.degrees() for e in calc.orders(d) if e > 1]
    orders_j = torsion(calc_j)
    return any(math.gcd(a, b) > 1 for a in torsion(calc_i) for b in orders_j)


class CrossProductMap(GradedMap):
    """The map H̃^*(K_I * K_J) → H̃^*(K_{I∪J}) read from the factors.

    The join's reduced cochains are the tensor product of the factors'
    (shifted by one), so by Künneth its cohomology in degree d holds the
    cross products α × β, α a generator of H̃^p(K_I) and β one of
    H̃^q(K_J), p + q + 1 = d; the empty face sits in degree -1, so a side
    of ghost vertices needs no special case.  Column (α, β) of
    ``matrix(d)`` is the class in H̃^d(K_{I∪J}) of the restricted cross
    product, f ↦ sign(f∩I, f∩J)·α(f∩I)·β(f∩J), with entries reduced
    modulo the target's orders as in ``InducedMap``.

    Over a field, and over ``Z`` when no torsion prime of K_I is one of
    K_J, the cross products generate the join's cohomology (the Tor
    summand vanishes), so zero tests and ``nonzero_degrees`` are exact.
    """

    def __init__(self, calc_i, calc_j, target):
        self.calc_i = calc_i
        self.calc_j = calc_j
        self.target = target
        self._matrices = {}

    def degrees(self):
        top = max(self.target.complex.dim,
                  self.calc_i.complex.dim + self.calc_j.complex.dim + 1)
        return range(-1, top + 1)

    def matrix(self, d):
        if d in self._matrices:
            return self._matrices[d]
        target = self.target
        target_orders = target.orders(d) if d <= target.complex.dim else ()
        columns = []
        if target_orders:
            dim_i, dim_j = self.calc_i.complex.dim, self.calc_j.complex.dim
            for p in range(max(-1, d - 1 - dim_j), min(dim_i, d) + 1):
                alphas = self.calc_i.generators(p)
                betas = self.calc_j.generators(d - 1 - p)
                if alphas and betas:
                    columns += [target.class_coordinates(d, cochain)
                                for cochain in _cross_product_cochains(
                                    target.faces(d),
                                    self.calc_i.complex.support,
                                    self.calc_i.face_index(p), alphas,
                                    self.calc_j.face_index(d - 1 - p), betas)]
        rows = [[col[i] for col in columns] for i in range(len(target_orders))]
        self._matrices[d] = rows
        return rows


class _PairEngine:
    """Per-run caches for restrictions, joins, calculators and induced maps,
    plus the one pair walk and the one pair-report builder."""

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

    def calculator(self, mask, coeffs):
        """Cochain calculator of the restriction to ``mask``: one integral
        calculator per mask, read over ``coeffs``."""
        key = (mask, coeffs)
        if key not in self._calculators:
            if (mask, "Z") not in self._calculators:
                self._calculators[mask, "Z"] = CochainCalculator(
                    self.restriction(mask), "Z")
            self._calculators[key] = self._calculators[mask, "Z"].over(coeffs)
        return self._calculators[key]

    def join(self, subset_i, subset_j):
        key = (subset_i, subset_j)
        if key not in self._joins:
            self._joins[key] = self.restriction(subset_i).join(
                self.restriction(subset_j))
        return self._joins[key]

    def induced_map(self, subset_i, subset_j, coeffs):
        """The map on cohomology induced by K_{I∪J} ⊆ K_I * K_J.

        It is read from the cached calculators of I, J and I ∪ J as a
        ``CrossProductMap``.  Only a ``Z`` pair whose sides share a
        torsion prime, where cross products miss the Tor summand of the
        join, builds the join and its calculator.
        """
        key = (subset_i, subset_j, coeffs)
        if key not in self._induced:
            calc_i = self.calculator(subset_i, coeffs)
            calc_j = self.calculator(subset_j, coeffs)
            target = self.calculator(subset_i | subset_j, coeffs)
            if coeffs == "Z" and _share_torsion_prime(calc_i, calc_j):
                self._induced[key] = InducedMap(
                    target,
                    CochainCalculator(self.join(subset_i, subset_j), coeffs))
            else:
                self._induced[key] = CrossProductMap(calc_i, calc_j, target)
        return self._induced[key]

    def certificates(self, battery):
        """Stream ``(subset_i, subset_j, NullCertificate)`` over every
        disjoint pair, in the canonical order of ``iter_disjoint_pairs``.

        The cap is checked before any subset walk, the neighbourliness
        included.  A side of size at most the neighbourliness restricts
        to a full simplex, so the join is a cone: such pairs are settled
        by their sizes, with nothing built.
        """
        if self.complex.n > MAX_PAIR_VERTICES:
            raise ValueError(f"pair scans need at most {MAX_PAIR_VERTICES} "
                             f"vertices, got {self.complex.n}")
        neighbourliness = self.complex.neighbourliness
        return ((subset_i, subset_j,
                 NullCertificate("Null", reason="TargetContractible")
                 if min(subset_i.bit_count(),
                        subset_j.bit_count()) <= neighbourliness
                 else _certificate(self, subset_i, subset_j, battery))
                for subset_i, subset_j in iter_disjoint_pairs(self.complex.n))

    def report(self, subset_i, subset_j, battery, certificate):
        """The pair's certificate with its induced map over every
        coefficient system of the battery."""
        induced = {c: self.induced_map(subset_i, subset_j, c) for c in battery}
        return PairReport(subset_i, subset_j, induced, certificate)


def _battery(coeffs):
    """A coefficient battery as a sequence; one label is a battery of one."""
    return (coeffs,) if isinstance(coeffs, str) else coeffs


def _validate_pair(complex, subset_i, subset_j):
    if not subset_i or not subset_j:
        raise ValueError("both subsets must be nonempty")
    if subset_i & subset_j:
        raise ValueError("subsets must be disjoint")
    if (subset_i | subset_j) & ~full_mask(complex.n):
        raise ValueError("subsets must lie in the ambient vertex set")


def _certificate(engine, subset_i, subset_j, battery=DEFAULT_BATTERY):
    """Certificate cascade for one pair, cheapest arguments first."""
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
    """Full report for one pair: its certificate and the induced
    cohomology maps over every requested coefficient system."""
    _validate_pair(complex, subset_i, subset_j)
    battery = _battery(coeffs)
    engine = _PairEngine(complex)
    return engine.report(subset_i, subset_j, battery,
                         _certificate(engine, subset_i, subset_j, battery))


def pair_certificates(complex, coeffs=DEFAULT_BATTERY):
    """Certificate for every disjoint pair, sharing one cache engine.

    Returns ``(subset_i, subset_j, NullCertificate)`` triples in the
    canonical pair order.  A NotNull verdict anywhere means some induced
    map is essential, so the product-vanishing question is settled by
    scanning the verdicts.
    """
    return list(_PairEngine(complex).certificates(_battery(coeffs)))


def cup_products_vanish(complex, coeffs=DEFAULT_BATTERY):
    """Whether every induced map on cohomology is zero, with witnesses.

    The witnesses are the NotNull pairs of the certificate stream, each
    reported with its maps over every requested coefficient system; a
    Null or Unknown pair has a zero map over each of them.  Returns
    (all_zero, [PairReport for failures]).
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
    target = engine.calculator(union, field)
    target_orders = target.orders(p + q + 1) if p + q + 1 <= max(
        target.complex.dim, -1) else ()
    zero = SummandClass(union, p + q + 1, (0,) * len(target_orders))
    if class_i.subset_mask & class_j.subset_mask:
        return zero
    calc_i = engine.calculator(class_i.subset_mask, field)
    calc_j = engine.calculator(class_j.subset_mask, field)
    for calc, cls in ((calc_i, class_i), (calc_j, class_j)):
        if len(cls.coords) != len(calc.orders(cls.degree)):
            raise ValueError("class coordinate length does not match the "
                             "summand's basis")
    if not target_orders:
        return zero
    kunneth = -1 if ((p + 1) * (q + 1)) % 2 else 1
    (product,) = _cross_product_cochains(
        target.faces(p + q + 1), class_i.subset_mask,
        calc_i.face_index(p), [_combined_cochain(calc_i, class_i)],
        calc_j.face_index(q), [_combined_cochain(calc_j, class_j)])
    return SummandClass(union, p + q + 1, target.class_coordinates(
        p + q + 1, [kunneth * v for v in product]))


def _combined_cochain(calculator, summand_class):
    generators = calculator.generators(summand_class.degree)
    size = len(calculator.faces(summand_class.degree))
    out = [0] * size
    for coeff, gen in zip(summand_class.coords, generators):
        if coeff:
            for i, v in enumerate(gen):
                out[i] += coeff * v
    return out
