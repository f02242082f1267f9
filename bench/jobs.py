"""Seeded CLI jobs, their inputs, the answer check and the reference timing.

A workload is a list of groups in ``pool.json``.  Each group holds pool
entries (an input spec, an argv template and the digest of the answer
recorded when the pool was built); a workload seed picks ``pick`` entries
of every group without replacement and shuffles the resulting job list.
Inputs are built here from the package's own generators, so the program
only ever sees the generated JSON files and argv.
"""

import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import time
import traceback
from fractions import Fraction

from momentangle import cli
from momentangle.complexes import (
    cycle_complex,
    flag_from_graph,
    full_skeleton,
    random_complex,
    single_non_face,
)

POOL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")
# Seconds ``reference_work`` takes at the reference speed: its median in
# the runs that tuned the benchmark, on a 2-core Xeon VM at 2.1 GHz with
# CPython 3.11.7.
REFERENCE_S = 0.0065


def gnp_edges(n, p, seed):
    """Edges of a seeded Erdős–Rényi graph G(n, p) on {1..n}."""
    rng = random.Random(seed)
    return [(a, b) for a, b in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < p]


def cycle_edges(n, seed):
    """A Hamiltonian n-cycle through {1..n} in seeded order."""
    order = list(range(1, n + 1))
    random.Random(seed).shuffle(order)
    return [(order[i], order[(i + 1) % n]) for i in range(n)]


GENERATORS = {
    "gnp_flag": lambda n, p, seed: flag_from_graph(n, gnp_edges(n, p, seed)),
    "cycle_flag": lambda n, seed: flag_from_graph(n, cycle_edges(n, seed)),
    "random_complex": random_complex,
    "full_skeleton": full_skeleton,
    "cycle_complex": cycle_complex,
    "single_non_face": single_non_face,
}


def build_input(spec):
    """The complex an input spec ``[generator, *args]`` names."""
    return GENERATORS[spec[0]](*spec[1:])


def write_input(spec, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(build_input(spec).to_dict(), handle)


def load_pool():
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def select_jobs(pool, workload, seed):
    """The seeded job list of one workload: picks per group, then shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    chosen = []
    for group in pool[workload]:
        chosen.extend(rng.sample(group["entries"], group["pick"]))
    rng.shuffle(chosen)
    return chosen


def prepare(workload, seed, workdir):
    """Write every input of the seeded job list; return runnable jobs.

    A job is ``(argv, digest)``.  This is all the set-up a run does
    before its first timed job, apart from importing the package.
    """
    jobs = []
    for k, entry in enumerate(select_jobs(load_pool(), workload, seed)):
        path = ""
        if entry["input"] is not None:
            path = os.path.join(workdir, f"in{k}.json")
            write_input(entry["input"], path)
        argv = [path if part == "{input}" else part for part in entry["argv"]]
        jobs.append((argv, entry["digest"]))
    return jobs


def run_job(argv, main=cli.main):
    """One ``momentangle`` call in this process: (seconds, code, stdout, stderr).

    An exception that escapes ``main`` ends the call with code 1 and its
    traceback on stderr, as it would end a ``momentangle`` process.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # noqa: BLE001 - a crashed job is a failed job
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def reference_work():
    """Seconds a fixed piece of interpreter work takes now.

    It is the kind of work the package does: exact elimination over
    ``Fraction``, then integer list, dict and sort traffic over a working
    set larger than the first-level caches.  So its time follows the
    host's speed for this code.  The collector is off while it runs, so a
    heap left by a job cannot slow it.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    n = 9
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inverse = 1 / rows[c][c]
        rows[c] = [x * inverse for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    data = [(i * 2654435761) & 0xFFFFF for i in range(10000)]
    counts = {}
    for x in data:
        counts[x] = counts.get(x, 0) + 1
    data.sort()
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


def _ints(report):
    return {k: v for k, v in report.items() if isinstance(v, int)}


def answer(report):
    """The answer fields of a report, without the config echo or schema.

    Only what the computation decides is kept, so a report that renames
    or drops a knob, or bumps ``schema``, still compares equal.
    """
    command = report["command"]
    if command == "hochster":
        return {"series": report["series"], "summands": report["summands"]}
    if command == "theorem":
        verdict = report["verdict"]
        witness = verdict.get("witness")
        wedge = verdict.get("wedge")
        return {
            "outcome": verdict["outcome"],
            "hypothesis_holds": verdict["hypothesis_holds"],
            "witness": witness and {key: witness[key]
                                    for key in ("I", "J", "certificate")},
            "unknown_pairs": verdict.get("unknown_pairs"),
            "spheres": wedge and wedge["spheres"],
        }
    if command == "golod":
        return {"pairs": report["pairs"]}
    if command == "cluster verify":
        out = {key: _ints(report[key])
               for key in ("regions", "homotopy") if key in report}
        for key in ("regions_pass", "homotopy_pass"):
            out[key] = report.get(key)
        violation = report.get("tagging_violation")
        out["violation_culprit"] = violation and violation["culprit"]
        return out
    raise ValueError(f"no answer fields known for {command!r}")


def digest(report):
    text = json.dumps(answer(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(code, stdout, expected):
    """Why a job failed, or None when its answer matches the reference."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not a JSON report"
    if report.get("regions_pass") is False or report.get("homotopy_pass") is False:
        return "a cluster check reported failure"
    if digest(report) != expected:
        return "answer differs from the reference"
    return None
