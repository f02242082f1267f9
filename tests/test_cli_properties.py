"""Property test: the ``hochster`` report writer against ``json.dumps``.

``cli._json_text`` writes the summand list of a ``hochster`` report
itself, since ``json.dumps`` with ``indent`` runs CPython's pure-Python
encoder.  Hypothesis draws synthetic summand lists (empty subsets,
multi-digit degrees whose string order differs from their numeric order,
several torsion factors, groups of rank 0) and input paths with the
characters JSON escapes, and both renderings must agree byte for byte.
Runs are derandomized, so every run draws the same examples.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from momentangle import HochsterSummand, HomologyGroup, cli

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100,
                    database=None)

groups = st.builds(HomologyGroup, st.integers(0, 3),
                   st.lists(st.integers(2, 12), max_size=3).map(sorted))


@st.composite
def summand_lists(draw):
    """Summands in increasing mask order, each with ascending degrees."""
    masks = draw(st.lists(st.integers(0, (1 << 21) - 1), max_size=12,
                          unique=True))
    out = []
    for bits in sorted(masks):
        degrees = sorted(draw(st.sets(st.integers(0, 120), max_size=4)))
        out.append(HochsterSummand(
            bits << 1, [(d, draw(groups)) for d in degrees]))
    return out


paths = st.one_of(st.text(), st.just('\n  "summands": []'))


@PROPERTY
@given(summand_lists(), paths)
def test_report_writer_is_json_dumps(summands, path):
    report = cli._report("hochster", {"input": path, "coeffs": "Z"},
                         {"coeffs": "Z", "series": {}, "series_pretty": "0",
                          "total_rank": 0, "summands": summands})
    plain = {**report, "summands": [s.as_dict() for s in summands]}
    assert cli._json_text(report) == json.dumps(plain, indent=2,
                                                sort_keys=True)
    assert list(cli._text_lines(report)) == list(cli._text_lines(plain))
