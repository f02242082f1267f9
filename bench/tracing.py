"""Outside-in tracing of the package's layers for the traced pass.

Wrappers are installed at the module attribute each caller looks up (for
example ``momentangle.hochster.smith_normal_form``), so nothing under
``src/`` changes and untraced passes run the original functions.  Each
wrapped call records a span (name, start, end, parent span, job) in flat
arrays; counters are recorded at the same boundaries.  The per-layer
metrics are derived from the spans and counters after the pass.

Calls inside one layer (``field_solve`` running ``field_echelon`` inside
``linalg``) are not split, except inside ``clusters``, where the
bisection steps of the radial gauge are the quantity of interest.
"""

import gzip
import json
import time
from array import array
from collections import Counter

from momentangle import cli, clusters, golod, hochster, homology, verify
from momentangle.complexes import SimplicialComplex
from momentangle.homology import ChainComplex, InducedMap


def _cells(counts, name, args, result):
    counts[name + ".cells"] += args[0].num_rows * args[0].num_cols


def _hochster(counts, name, args, result):
    counts["hochster.subsets"] += 1 << args[0].n
    counts["hochster.summands"] += len(result)


def _certificate(counts, name, args, result):
    counts["golod.cert." + (result.reason or result.verdict)] += 1


def _samples(counts, name, args, result):
    counts["verify.samples"] += result["samples"]
    if "tagged" in result:
        counts["verify.region_samples"] += result["samples"]
        counts["verify.tagged"] += result["tagged"]


# (owner, attribute, span name, counter hook)
WRAPPED = [
    (SimplicialComplex, "restriction", "complexes.restriction", None),
    (SimplicialComplex, "join", "complexes.join", None),
    (hochster, "smith_normal_form", "linalg.smith_normal_form", _cells),
    (homology, "smith_normal_form", "linalg.smith_normal_form", _cells),
    (hochster, "rank_mod_p", "linalg.rank_mod_p", _cells),
    (homology, "rank_mod_p", "linalg.rank_mod_p", _cells),
    (homology, "field_solve", "linalg.field_solve", None),
    (homology, "field_echelon", "linalg.field_echelon", None),
    (homology, "field_nullspace", "linalg.field_nullspace", None),
    (ChainComplex, "boundary_matrix", "homology.boundary_matrix", None),
    (golod, "CochainCalculator", "homology.cochain_calculator", None),
    (InducedMap, "matrix", "homology.induced_map_matrix", None),
    (golod, "connectivity_certificate", "homology.connectivity_certificate", None),
    (cli, "hochster_decomposition", "hochster.hochster_decomposition", _hochster),
    (hochster, "hochster_decomposition", "hochster.hochster_decomposition", _hochster),
    (golod, "wedge_model", "hochster.wedge_model", None),
    (cli, "splitting_verdict", "golod.splitting_verdict", None),
    (cli, "pair_certificates", "golod.pair_certificates", None),
    (golod, "NullCertificate", "golod.null_certificate", _certificate),
    (clusters, "in_split_region", "clusters.in_split_region", None),
    (verify, "in_split_region", "clusters.in_split_region", None),
    (clusters, "radial_gauge", "clusters.radial_gauge", None),
    (verify, "radial_gauge", "clusters.radial_gauge", None),
    (clusters, "radial_gauge_inverse", "clusters.radial_gauge_inverse", None),
    (verify, "radial_gauge_inverse", "clusters.radial_gauge_inverse", None),
    (verify, "tagging_homotopy", "clusters.tagging_homotopy", None),
    (verify, "pinched_composite", "clusters.pinched_composite", None),
    (cli, "split_region_report", "verify.split_region_report", _samples),
    (cli, "homotopy_report", "verify.homotopy_report", _samples),
    (cli, "find_tagging_violation", "verify.find_tagging_violation", None),
]

GAUGES = ("clusters.radial_gauge", "clusters.radial_gauge_inverse")
CERTIFICATES = ("TargetContractible", "SourceContractible", "DimBelowConnectivity",
                "NotNull", "Unknown")
TIMED = ["complexes.restriction", "complexes.join",
         "linalg.smith_normal_form", "linalg.rank_mod_p", "linalg.field_solve",
         "linalg.field_echelon", "linalg.field_nullspace",
         "homology.boundary_matrix", "homology.induced_map_matrix",
         "homology.connectivity_certificate",
         "hochster.hochster_decomposition", "hochster.wedge_model",
         "golod.splitting_verdict", "golod.pair_certificates",
         "clusters.radial_gauge", "clusters.radial_gauge_inverse",
         "clusters.tagging_homotopy", "clusters.pinched_composite"]


def metric_units():
    """Every per-layer metric the traced pass reports, with its unit."""
    units = {}
    for name in TIMED:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in ("linalg.smith_normal_form", "linalg.rank_mod_p"):
        units[name + ".cells"] = "count"
    units["homology.cochain_calculator.calls"] = "count"
    for kind in ("scan", "gauge"):
        units[f"clusters.in_split_region.{kind}_calls"] = "count"
        units[f"clusters.in_split_region.{kind}_self_s"] = "s"
    for name in ("split_region_report", "homotopy_report", "find_tagging_violation"):
        units[f"verify.{name}.self_s"] = "s"
    units.update({
        "hochster.subsets": "count",
        "hochster.summands": "count",
        "hochster.summand_yield": "ratio",
        "hochster.matrices_per_subset": "ratio",
        "golod.cheap_cert_ratio": "ratio",
        "verify.samples": "count",
        "verify.tagged_ratio": "ratio",
        "cli.self_s": "s",
        "cli.stdout_bytes": "bytes",
        "trace.overhead_ratio": "ratio",
    })
    for reason in CERTIFICATES:
        units["golod.cert." + reason] = "count"
    return units


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    ROOT = "cli.main"

    def __init__(self):
        self.names = [self.ROOT]
        self.name_ids = {self.ROOT: 0}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.stack = [-1]
        self.current_job = -1
        self.counts = Counter()
        self._saved = []

    def wrap(self, name, fn, hook=None):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        clock = time.perf_counter
        stack, counts = self.stack, self.counts
        span_name, start, end = self.span_name, self.start, self.end
        parent, job = self.parent, self.job

        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            job.append(self.current_job)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, name, args, result)
            return result

        return traced

    def install(self):
        for owner, attr, name, hook in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, up in enumerate(self.parent):
            if up >= 0:
                own[up] -= self.end[index] - self.start[index]
        return own

    def metrics(self, overhead_ratio):
        """Per-layer metrics of the pass; see ``metric_units`` for the list."""
        names = [self.names[i] for i in self.span_name]
        own = self.self_times()
        calls, self_s = Counter(), Counter()
        under_hochster = [False] * len(names)
        for index, (name, up) in enumerate(zip(names, self.parent)):
            if name == "clusters.in_split_region":
                name += (".gauge" if up >= 0 and names[up] in GAUGES else ".scan")
            calls[name] += 1
            self_s[name] += own[index]
            under_hochster[index] = (names[index] == "hochster.hochster_decomposition"
                                     or (up >= 0 and under_hochster[up]))
        counts = self.counts
        out = {}
        for name in TIMED:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = float(self_s[name])
        for name in ("linalg.smith_normal_form", "linalg.rank_mod_p"):
            out[name + ".cells"] = counts[name + ".cells"]
        out["homology.cochain_calculator.calls"] = calls["homology.cochain_calculator"]
        for kind in ("scan", "gauge"):
            key = f"clusters.in_split_region.{kind}"
            out[key + "_calls"] = calls[key]
            out[key + "_self_s"] = float(self_s[key])
        for name in ("split_region_report", "homotopy_report", "find_tagging_violation"):
            out[f"verify.{name}.self_s"] = float(self_s["verify." + name])
        scan_matrices = sum(
            1 for name, flag in zip(names, under_hochster)
            if flag and name in ("linalg.smith_normal_form", "linalg.rank_mod_p"))
        subsets = counts["hochster.subsets"]
        certificates = sum(counts["golod.cert." + r] for r in CERTIFICATES)
        cheap = certificates - counts["golod.cert.NotNull"] - counts["golod.cert.Unknown"]
        out.update({
            "hochster.subsets": subsets,
            "hochster.summands": counts["hochster.summands"],
            "hochster.summand_yield": _ratio(counts["hochster.summands"], subsets),
            "hochster.matrices_per_subset": _ratio(scan_matrices, subsets),
            "golod.cheap_cert_ratio": _ratio(cheap, certificates),
            "verify.samples": counts["verify.samples"],
            "verify.tagged_ratio": _ratio(counts["verify.tagged"],
                                          counts["verify.region_samples"]),
            "cli.self_s": float(self_s[self.ROOT]),
            "cli.stdout_bytes": counts["cli.stdout_bytes"],
            "trace.overhead_ratio": overhead_ratio,
        })
        for reason in CERTIFICATES:
            out["golod.cert." + reason] = counts["golod.cert." + reason]
        return out

    def dominant(self):
        """Library span names ranked by total self time, largest first."""
        own = self.self_times()
        totals = Counter()
        for index, name_id in enumerate(self.span_name):
            if name_id:
                totals[self.names[name_id]] += own[index]
        return totals.most_common()

    def dump(self, path):
        """Write every span once, as columns, to a gzip JSON file."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump({
                "names": self.names,
                "span_name": list(self.span_name),
                "start": list(self.start),
                "end": list(self.end),
                "parent": list(self.parent),
                "job": list(self.job),
                "counts": dict(self.counts),
            }, handle)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
