"""Command line behaviour: reports, determinism, exit codes."""

import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from momentangle import cli

from util import FIXTURES

CYCLE4 = str(FIXTURES / "cycle4.json")
RP2 = str(FIXTURES / "rp2.json")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_complex(tmp_path, name, n, facets):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "facets": facets}))
    return str(path)


def test_analyze_report(capsys):
    report = run_json(capsys, "analyze", CYCLE4)
    assert report["schema"] == 2
    assert report["command"] == "analyze"
    assert report["config"] == {"input": CYCLE4}
    assert report["n"] == 4 and report["dim"] == 1
    assert report["f_vector"] == [1, 4, 4]
    assert report["euler_characteristic"] == 0
    assert sorted(report["minimal_non_faces"]) == [[1, 3], [2, 4]]
    assert report["is_third_neighbourly"] is True
    assert report["is_cone"] is False


def test_hochster_report(capsys):
    report = run_json(capsys, "hochster", CYCLE4, "--coeffs", "Q")
    assert report["series"] == {"0": 1, "3": 2, "6": 1}
    assert report["series_pretty"] == "1 + 2t^3 + t^6"
    assert report["total_rank"] == 4
    subsets = [s["I"] for s in report["summands"]]
    assert [1, 3] in subsets and [2, 4] in subsets
    torsioned = run_json(capsys, "hochster", RP2)
    flagged = [s for s in torsioned["summands"] if "torsion" in s]
    assert flagged == [{"I": [1, 2, 3, 4, 5, 6],
                        "degrees": {"9": 0},
                        "torsion": {"9": [2]}}]


def test_golod_report(capsys):
    report = run_json(capsys, "golod", CYCLE4)
    assert report["products_vanish"] is False
    assert report["verdict_counts"]["NotNull"] >= 1
    assert len(report["pairs"]) == 25   # (3^4 - 2^5 + 1) / 2
    witness = next(p for p in report["pairs"]
                   if p["certificate"]["verdict"] == "NotNull")
    assert (witness["I"], witness["J"]) == ([1, 3], [2, 4])
    assert witness["certificate"]["obstruction"] == {"coeffs": "Z", "degree": 1}
    trimmed = run_json(capsys, "golod", CYCLE4, "--coeffs", "F2")
    assert trimmed["coeffs"] == ["F2"]
    assert trimmed["products_vanish"] is False


def test_theorem_reports(capsys, tmp_path):
    report = run_json(capsys, "theorem", CYCLE4)
    verdict = report["verdict"]
    assert verdict["outcome"] == "NotCoH"
    assert verdict["hypothesis_holds"] is True
    assert verdict["witness"]["I"] == [1, 3]

    code, _, _ = run_cli(capsys, "generate", "nonface", "--n", "6",
                         "--size", "3", "--out", str(tmp_path / "nf.json"))
    assert code == 0
    report = run_json(capsys, "theorem", str(tmp_path / "nf.json"))
    verdict = report["verdict"]
    assert verdict["outcome"] == "CoH"
    assert verdict["wedge"]["is_complete"] is True
    assert verdict["wedge"]["spheres"] == [5]


def test_generate_families(capsys, tmp_path):
    doc = run_json(capsys, "generate", "boundary", "--n", "3")
    assert doc == {"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]}
    doc = run_json(capsys, "generate", "skeleton", "--n", "4", "--k", "1")
    assert doc["n"] == 4 and len(doc["facets"]) == 6
    first = run_json(capsys, "generate", "random", "--n", "5",
                     "--floor", "1", "--density", "0.4", "--seed", "9")
    second = run_json(capsys, "generate", "random", "--n", "5",
                      "--floor", "1", "--density", "0.4", "--seed", "9")
    assert first == second


def test_generate_join_multiplies_series(capsys, tmp_path):
    left = str(tmp_path / "left.json")
    right = str(tmp_path / "right.json")
    joined = str(tmp_path / "joined.json")
    assert run_cli(capsys, "generate", "boundary", "--n", "2",
                   "--out", left)[0] == 0
    assert run_cli(capsys, "generate", "boundary", "--n", "2",
                   "--out", right)[0] == 0
    code, _, _ = run_cli(capsys, "generate", "join",
                         "--left", left, "--right", right, "--out", joined)
    assert code == 0
    report = run_json(capsys, "hochster", joined, "--coeffs", "Q")
    assert report["series"] == {"0": 1, "3": 2, "6": 1}


def test_cluster_verify_regions(capsys):
    report = run_json(capsys, "cluster", "verify", "--n", "2",
                      "--samples", "60", "--seed", "3")
    assert report["command"] == "cluster verify"
    assert report["config"]["n"] == 2
    assert report["regions"]["splits"] == 2
    assert report["regions_pass"] is True


def test_cluster_verify_complex(capsys, tmp_path):
    ghost = write_complex(tmp_path, "ghost.json", 4, [[1, 2, 3]])
    report = run_json(capsys, "cluster", "verify", "--complex", ghost,
                      "--samples", "40", "--seed", "4")
    assert report["homotopy"]["samples"] == 40
    assert report["homotopy_pass"] is True
    violation = report["tagging_violation"]
    assert violation["culprit"] == [4]
    assert violation["failed_block"] == [4]
    assert violation["low_block"] == [1, 4]
    clean = write_complex(tmp_path, "clean.json", 4,
                          [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])
    report = run_json(capsys, "cluster", "verify", "--complex", clean,
                      "--samples", "40", "--seed", "4")
    assert report["tagging_violation"] is None
    assert report["homotopy"]["max_end_error"] == "0"


def regions_pin(n, splits):
    """The region counts of ``--samples 40`` at ``n``: every odd draw, the
    one perturbed around a split center, is tagged; no uniform draw is."""
    return {"n": n, "samples": 40, "splits": splits, "in_cluster": 20,
            "tagged": 20, "overlap_breaches": 0, "coverage_breaches": 0,
            "stray_tag_breaches": 0, "retraction_checked": 20,
            "retraction_breaches": 0, "gauge_trips": 20, "gauge_failures": 0}


@pytest.mark.parametrize("seed", ["1", "2"])
@pytest.mark.parametrize("n, expected", [
    ("6", regions_pin(6, 20)),
    ("7", regions_pin(7, 70)),
    ("9", regions_pin(9, 252)),
])
def test_cluster_verify_pinned_regions(capsys, n, expected, seed):
    report = run_json(capsys, "cluster", "verify", "--n", n,
                      "--samples", "40", "--seed", seed)
    assert report["regions"] == expected


def test_cluster_verify_pinned_complexes(capsys, tmp_path):
    neighbourly = write_complex(
        tmp_path, "skeleton.json", 6,
        [list(face) for face in itertools.combinations(range(1, 7), 3)])
    report = run_json(capsys, "cluster", "verify", "--complex", neighbourly,
                      "--samples", "40", "--seed", "4")
    assert report["homotopy"] == {
        "samples": 40, "start_mismatches": 0, "end_mismatches": 0,
        "end_compared": 40, "end_nonbasepoint": 11,
        "membership_violations": 0, "max_end_error": "0"}
    assert report["tagging_violation"] is None

    ghost = write_complex(tmp_path, "ghost.json", 4, [[1, 2, 3]])
    report = run_json(capsys, "cluster", "verify", "--complex", ghost,
                      "--samples", "40", "--seed", "4")
    assert report["homotopy"] == {
        "samples": 40, "start_mismatches": 0, "end_mismatches": 0,
        "end_compared": 9, "end_nonbasepoint": 0,
        "membership_violations": 31, "max_end_error": "0"}
    assert report["tagging_violation"] == {
        "low_block": [1, 4], "high_block": [2, 3], "culprit": [4],
        "failed_block": [4], "support": [1, 4],
        "pre_gauge": ["1/1024", "1/2", "1/2"], "params": ["1/128", "0", "0"],
        "payload": ["1", "1", "1", "1"]}


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "analyze", CYCLE4, "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert "schema = 2" in lines
    assert 'command = "analyze"' in lines
    assert "minimal_non_faces = [[1, 3], [2, 4]]" in lines


def test_exit_codes(capsys, tmp_path):
    # usage problems: missing subcommand, unknown flags
    assert run_cli(capsys, )[0] == 1
    assert run_cli(capsys, "analyze")[0] == 1
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "analyze", "--help")[0] == 0
    # missing and malformed input files
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "absent.json"))
    assert code == 1 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1 and "line 1" in err
    # structurally wrong document
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({"facets": [[1]]}))
    assert run_cli(capsys, "analyze", str(worse))[0] == 1
    # bad coefficient label, and the removed thread-count and tolerance flags
    assert run_cli(capsys, "hochster", CYCLE4, "--coeffs", "R")[0] == 1
    assert run_cli(capsys, "hochster", CYCLE4, "--threads", "2")[0] == 1
    assert run_cli(capsys, "cluster", "verify", "--n", "4", "--samples", "2",
                   "--tol", "1/2")[0] == 1
    # cluster verify without a target, without samples, or beyond the
    # split-enumeration cap (refused before the 2^n scan starts)
    assert run_cli(capsys, "cluster", "verify")[0] == 1
    for samples in ("0", "-3"):
        code, out, err = run_cli(capsys, "cluster", "verify", "--n", "5",
                                 "--samples", samples)
        assert code == 1 and out == "" and "sample" in err
        code, out, _ = run_cli(capsys, "cluster", "verify", "--complex", CYCLE4,
                               "--samples", samples)
        assert code == 1 and out == ""
    code, out, err = run_cli(capsys, "cluster", "verify", "--n", "40",
                             "--samples", "1")
    assert code == 1 and out == "" and "at most 16" in err
    # pair scans beyond the vertex cap, refused before any subset walk
    # (the 40-simplex's neighbourliness alone walks 2^40 subsets)
    big = write_complex(tmp_path, "big.json", 40, [list(range(1, 41))])
    for argv in (("theorem", big), ("golod", big, "--coeffs", "Z")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and "at most 12" in err
    # analyze beyond the subset-scan cap, refused before any property is read
    code, out, err = run_cli(capsys, "analyze", big)
    assert code == 1 and out == "" and "at most 20" in err
    # a facet naming one vertex twice
    repeated = write_complex(tmp_path, "repeated.json", 2, [[1, 1]])
    assert run_cli(capsys, "analyze", repeated)[0] == 1
    # join without factors
    assert run_cli(capsys, "generate", "join")[0] == 1
    assert run_cli(capsys, "generate", "simplex")[0] == 1


def test_internal_assertion_maps_to_exit_2(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("tripped for the test")
    monkeypatch.setattr(cli, "split_region_report", explode)
    code, _, err = run_cli(capsys, "cluster", "verify", "--n", "4")
    assert code == 2
    assert "internal check failed" in err


def test_console_script_runs():
    # the child needs the package on its path even when it is not installed
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run(
        [sys.executable, "-m", "momentangle.cli", "analyze", CYCLE4],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert json.loads(result.stdout)["command"] == "analyze"
