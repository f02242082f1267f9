"""Command line front end: load complexes, run analyses, emit reports.

Reports are JSON by default (``--format text`` flattens them to aligned
``path = value`` lines).  Output is deterministic: keys are sorted, no
timestamps are embedded, so identical inputs and flags give
byte-identical bytes.

Exit codes: 0 on success (including verification runs that *report*
failures), 1 for usage or input problems, 2 when an internal consistency
assertion trips.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .complexes import (
    SimplicialComplex,
    boundary_simplex,
    cycle_complex,
    full_skeleton,
    mask_vertices,
    random_complex,
    shifted_join,
    simplex,
    single_non_face,
)
from .golod import pair_certificates, splitting_verdict
from .homology import DEFAULT_BATTERY, parse_coefficients
from .hochster import (
    MAX_DECOMPOSITION_VERTICES,
    hochster_decomposition,
    series_from_decomposition,
)
from .verify import find_tagging_violation, homotopy_report, split_region_report

SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# plumbing


def _load_complex(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: the file nests too deeply") from None
    return SimplicialComplex.from_dict(data)


def _vertices(mask):
    return list(mask_vertices(mask))


def _fraction_str(value):
    return str(Fraction(value))


def _battery(text):
    labels = tuple(part.strip() for part in text.split(",") if part.strip())
    if not labels:
        raise ValueError("empty coefficient battery")
    for label in labels:
        parse_coefficients(label)
    return labels


def _text_lines(value, path=""):
    if isinstance(value, dict):
        if not value:
            yield f"{path} = {{}}"
        for key in sorted(value, key=str):
            yield from _text_lines(value[key], f"{path}.{key}" if path else str(key))
    else:
        yield f"{path} = {json.dumps(value, default=_as_dict)}"


def _as_dict(value):
    """``json.dumps`` hook for report values kept as objects: their dict form."""
    return value.as_dict()


def _emit(report, fmt):
    if fmt == "text":
        for line in _text_lines(report):
            print(line)
    else:
        print(_json_text(report))


# A JSON string never holds a raw newline, so only the empty summand list
# itself can produce these bytes.
_SUMMANDS_SLOT = '\n  "summands": []'


def _json_text(report):
    """The bytes of ``json.dumps(report, indent=2, sort_keys=True)``.

    With ``indent`` set, CPython's ``json`` falls back to its pure-Python
    encoder, which dominated large ``hochster`` reports.  So a ``hochster``
    report keeps its ``HochsterSummand`` objects, the rest is dumped with an
    empty list in their place, and ``_summands_json`` writes the list there.
    """
    if report["command"] != "hochster":
        return json.dumps(report, indent=2, sort_keys=True)
    head, tail = json.dumps({**report, "summands": []},
                            indent=2, sort_keys=True).split(_SUMMANDS_SLOT)
    return f'{head}\n  "summands": {_summands_json(report["summands"])}{tail}'


def _summands_json(summands):
    """``HochsterSummand.as_dict`` of each summand, as the list at depth one
    of an ``indent=2, sort_keys=True`` dump, written without the dicts.

    The vertex items of a mask extend those of the mask without its top
    vertex, and the text after them depends only on the shifted groups,
    which many summands share; both are kept and reused.
    """
    if not summands:
        return "[]"
    vertex_items = {0: ""}

    def items_of(mask):
        text = vertex_items.get(mask)
        if text is None:
            top = mask.bit_length() - 1
            text = vertex_items[mask] = f"{items_of(mask ^ (1 << top))},\n        {top}"
        return text

    group_texts = {}
    out = []
    for summand in summands:
        mask = summand.subset_mask
        vertices = f"[{items_of(mask)[1:]}\n      ]" if mask else "[]"
        groups = summand.shifted_groups
        text = group_texts.get(groups)
        if text is None:
            text = group_texts[groups] = _groups_json(groups)
        out.append(f'\n      "I": {vertices}{text}')
    return "[\n    {" + "\n    },\n    {".join(out) + "\n    }\n  ]"


def _groups_json(groups):
    """The ``degrees`` and ``torsion`` entries of one summand's dict."""
    if len(groups) > 1:
        # degree keys sort as strings: "10" before "9"
        groups = sorted(groups, key=lambda item: str(item[0]))
    degrees = ",".join(f'\n        "{d}": {g.rank}' for d, g in groups)
    text = ',\n      "degrees": ' + (f"{{{degrees}\n      }}" if groups else "{}")
    torsion = ",".join(
        f'\n        "{d}": [' + ",".join(f"\n          {e}" for e in g.torsion)
        + "\n        ]" for d, g in groups if g.torsion)
    if torsion:
        text += f',\n      "torsion": {{{torsion}\n      }}'
    return text


def _complex_json(complex):
    """The bytes of ``json.dumps(complex.to_dict(), indent=2, sort_keys=True)``,
    written without the pure-Python encoder (see ``_json_text``)."""
    facets = ",\n    ".join(
        "[\n      " + ",\n      ".join(map(str, mask_vertices(f))) + "\n    ]"
        if f else "[]" for f in complex.facets)
    return f'{{\n  "facets": [\n    {facets}\n  ],\n  "n": {complex.n}\n}}'


def _report(command, config, body):
    out = {"schema": SCHEMA_VERSION, "command": command, "config": config}
    out.update(body)
    return out


# ----------------------------------------------------------------------
# subcommands


def _cmd_analyze(args):
    complex = _load_complex(args.input)
    # the face count, which the neighbourliness reads, can hold every subset
    if complex.n > MAX_DECOMPOSITION_VERTICES:
        raise ValueError(f"analyze needs at most {MAX_DECOMPOSITION_VERTICES} "
                         f"vertices (it walks all 2^n subsets)")
    body = {
        "n": complex.n,
        "dim": complex.dim,
        "support": _vertices(complex.support),
        "facets": [_vertices(f) for f in complex.facets],
        "f_vector": list(complex.f_vector),
        "euler_characteristic": complex.euler_characteristic,
        "neighbourliness": complex.neighbourliness,
        "support_neighbourliness": complex.support_neighbourliness,
        "is_third_neighbourly": complex.is_third_neighbourly,
        "is_cone": complex.is_cone,
        "is_simplex": complex.is_simplex,
        "minimal_non_faces": [_vertices(f) for f in complex.minimal_non_faces],
    }
    return _report("analyze", {"input": args.input}, body)


def _cmd_hochster(args):
    complex = _load_complex(args.input)
    parse_coefficients(args.coeffs)
    summands = hochster_decomposition(complex, args.coeffs)
    series = series_from_decomposition(summands)
    body = {
        "coeffs": args.coeffs,
        "series": series.as_dict(),
        "series_pretty": series.pretty(),
        "total_rank": series.total_rank,
        # kept as objects: ``_json_text`` writes them, ``_as_dict`` for text
        "summands": summands,
    }
    return _report("hochster", {"input": args.input, "coeffs": args.coeffs}, body)


def _cmd_golod(args):
    complex = _load_complex(args.input)
    battery = _battery(args.coeffs)
    certificates = pair_certificates(complex, battery)
    counts = {"Null": 0, "NotNull": 0, "Unknown": 0}
    pairs = []
    for subset_i, subset_j, certificate in certificates:
        counts[certificate.verdict] += 1
        pairs.append(
            {
                "I": _vertices(subset_i),
                "J": _vertices(subset_j),
                "certificate": certificate.as_dict(),
            }
        )
    body = {
        "coeffs": list(battery),
        "products_vanish": counts["NotNull"] == 0,
        "verdict_counts": counts,
        "pairs": pairs,
    }
    return _report("golod", {"input": args.input, "coeffs": args.coeffs}, body)


def _cmd_theorem(args):
    complex = _load_complex(args.input)
    verdict = splitting_verdict(complex)
    return _report("theorem", {"input": args.input}, {"verdict": verdict.as_dict()})


def _cmd_cluster_verify(args):
    config = {"samples": args.samples, "seed": args.seed}
    if args.complex is None and args.n is None:
        raise ValueError("cluster verify needs --n or --complex")
    body = {}
    if args.n is not None:
        config["n"] = args.n
        regions = split_region_report(args.n, args.samples, args.seed)
        body["regions"] = regions
        body["regions_pass"] = not any(
            regions[key] for key in regions if key.endswith(("breaches", "failures"))
        )
    if args.complex is not None:
        config["complex"] = args.complex
        complex = _load_complex(args.complex)
        homotopy = dict(homotopy_report(complex, args.samples, args.seed))
        body["homotopy_pass"] = (
            homotopy["start_mismatches"] == 0
            and homotopy["end_mismatches"] == 0
            and homotopy["max_end_error"] == 0
        )
        homotopy["max_end_error"] = _fraction_str(homotopy["max_end_error"])
        body["homotopy"] = homotopy
        witness = find_tagging_violation(complex)
        # masks as vertex lists, points as fractions
        body["tagging_violation"] = None if witness is None else {
            key: (_vertices(value) if isinstance(value, int)
                  else [_fraction_str(c) for c in value])
            for key, value in witness.items()}
    return _report("cluster verify", config, body)


_GENERATORS = {
    "simplex": lambda args: simplex(args.n),
    "boundary": lambda args: boundary_simplex(args.n),
    "skeleton": lambda args: full_skeleton(args.n, args.k),
    "cycle": lambda args: cycle_complex(args.n),
    "nonface": lambda args: single_non_face(args.n, args.size),
    "random": lambda args: random_complex(args.n, args.floor, args.density, args.seed),
}


def _cmd_generate(args):
    if args.family == "join":
        if not args.left or not args.right:
            raise ValueError("join needs --left and --right complex files")
        complex = shifted_join(_load_complex(args.left), _load_complex(args.right))
    else:
        if args.n is None:
            raise ValueError(f"family '{args.family}' needs --n")
        complex = _GENERATORS[args.family](args)
    payload = _complex_json(complex)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)
    return None


# ----------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="momentangle",
        description="Exact computations for moment-angle complex cohomology, "
        "wedge splittings, and the cluster-partition geometry behind them.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="report rendering (default json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", parents=[common], help="combinatorial summary of a complex file"
    )
    p.add_argument("input", help="complex JSON file")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser(
        "hochster",
        parents=[common],
        help="subset decomposition of the ambient cohomology with its series",
    )
    p.add_argument("input", help="complex JSON file")
    p.add_argument("--coeffs", default="Z", help="Z, Q or Fp (default Z)")
    p.set_defaults(handler=_cmd_hochster)

    p = sub.add_parser(
        "golod",
        parents=[common],
        help="per-pair certificates for the induced-map vanishing question",
    )
    p.add_argument("input", help="complex JSON file")
    p.add_argument(
        "--coeffs",
        default=",".join(DEFAULT_BATTERY),
        help="comma-separated battery (default %(default)s)",
    )
    p.set_defaults(handler=_cmd_golod)

    p = sub.add_parser(
        "theorem",
        parents=[common],
        help="wedge-splitting decision: CoH, NotCoH with witness, or Inconclusive",
    )
    p.add_argument("input", help="complex JSON file")
    p.set_defaults(handler=_cmd_theorem)

    p = sub.add_parser("cluster", parents=[], help="cluster geometry verification")
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)
    v = cluster_sub.add_parser(
        "verify",
        parents=[common],
        help="sampled exact checks of the region decomposition and homotopy",
    )
    v.add_argument("--n", type=int, help="ambient vertex count for region checks")
    v.add_argument("--samples", type=int, default=1000, help="sample count")
    v.add_argument("--seed", type=int, default=0, help="RNG seed")
    v.add_argument(
        "--complex", help="complex JSON file for homotopy and violation checks"
    )
    v.set_defaults(handler=_cmd_cluster_verify)

    p = sub.add_parser("generate", help="write a complex file from a family")
    p.add_argument(
        "family",
        choices=("simplex", "boundary", "skeleton", "cycle", "nonface", "random", "join"),
    )
    p.add_argument("--n", type=int, help="vertex count")
    p.add_argument("--k", type=int, default=1, help="skeleton dimension")
    p.add_argument("--size", type=int, default=2, help="non-face size")
    p.add_argument("--floor", type=int, default=0, help="neighbourliness floor")
    p.add_argument("--density", type=float, default=0.5, help="extra facet density")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--left", help="left factor file (join)")
    p.add_argument("--right", help="right factor file (join)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(handler=_cmd_generate, format="json")

    return parser


# A parse leaves the parser as it was, so one parser serves every call.
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        report = args.handler(args)
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report is not None:
        _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
