"""The benchmark's tracer wraps package attributes by name.

``bench/tracing.py`` looks each wrapped name up in its owner's
``__dict__``; a refactor that moves or drops one would break only the
traced benchmark pass.  These tests load the tracer read-only and fail
first instead.
"""

import ast
import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(wrapped):
    return [owner.__dict__.get(attr) for owner, attr, _, _ in wrapped]


def test_every_wrapped_attribute_exists():
    tracing = load_tracing()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.WRAPPED
               if attr not in owner.__dict__]
    assert missing == []


def test_unused_imports_are_the_wrapped_ones():
    # a name imported only for the tracer carries ``noqa: F401``; each must
    # be a wrapped attribute of its module, so a tracer that stops wrapping
    # it names the import to drop
    wrapped = {(owner, attr) for owner, attr, _, _ in load_tracing().WRAPPED}
    stray = []
    for path in sorted((ROOT / "src" / "momentangle").glob("*.py")):
        module = importlib.import_module(
            "momentangle" if path.stem == "__init__"
            else f"momentangle.{path.stem}")
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                stray += [f"{path.stem}.{alias.asname or alias.name}"
                          for alias in node.names
                          if (module, alias.asname or alias.name)
                          not in wrapped]
    assert stray == []


def test_install_then_uninstall_restores_originals():
    tracing = load_tracing()
    before = current(tracing.WRAPPED)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = current(tracing.WRAPPED)
        assert all(a is not b for a, b in zip(before, during))
    finally:
        tracer.uninstall()
    after = current(tracing.WRAPPED)
    assert all(a is b for a, b in zip(before, after))


def test_traced_cli_runs_every_workload_command(capsys):
    # the tracer swaps module attributes such as ``golod.CochainCalculator``
    # for plain functions, so the package may only call them
    from momentangle import cli

    fixtures = pathlib.Path(__file__).resolve().parent / "fixtures"
    cycle4, rp2 = str(fixtures / "cycle4.json"), str(fixtures / "rp2.json")
    commands = [["theorem", cycle4], ["theorem", rp2],
                ["golod", cycle4], ["golod", rp2, "--coeffs", "F2,Z"],
                ["hochster", rp2], ["hochster", cycle4, "--coeffs", "F2"],
                ["cluster", "verify", "--n", "4", "--samples", "4"],
                ["cluster", "verify", "--complex", cycle4, "--samples", "4"]]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(commands), capsys.readouterr().err
    traced = {tracer.names[i] for i in tracer.span_name}
    assert {"homology.cochain_calculator", "golod.splitting_verdict",
            "hochster.hochster_decomposition",
            "verify.split_region_report"} <= traced
