"""Build ``pool.json``: the job pool of every workload with reference answers.

Run from the repository root with ``python3 bench/make_pool.py
[workload ...]``; named workloads are rebuilt and the others kept.  Every
candidate job runs through ``momentangle.cli.main``; its answer digest
becomes the reference that benchmark runs compare against.  A group
keeps, of the candidates with the outcome it wants (say, an Inconclusive
verdict), those whose costs lie closest together.  A candidate that fails
outright stops the build, because a failing job cannot be a reference.
"""

import gc
import json
import os
import statistics
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs  # noqa: E402

COEFFS = ("Z", "F2", "Q")
SAMPLES = "10"
ROUNDS = 3


def hochster_groups():
    """One group per ladder rung: a size, a density and a coefficient ring.

    The rungs at n = 11 and the 10-vertex skeleton cost alike and outnumber
    the cheaper and the dearer rungs, so the median job falls among them.
    """
    rungs = [(10, p, c) for p, cs in ((0.3, "Z F2"), (0.5, "F2 Q"), (0.7, "Q Z"))
             for c in cs.split()]
    rungs += [(11, p, c) for p in (0.3, 0.5, 0.7) for c in COEFFS]
    rungs += [(12, 0.3, "Q"), (12, 0.7, "F2"), (13, 0.3, "F2")]
    groups = []
    for k, (n, p, coeffs) in enumerate(rungs):
        specs = [["gnp_flag", n, p, 1000 * k + v] for v in range(8)]
        groups.append(group(f"flag{n}-p{p}-{coeffs}", 1, specs,
                            ["hochster", "{input}", "--coeffs", coeffs], keep=4))
    for n, coeffs in ((9, "F2"), (10, "Z")):
        groups.append(group(f"skeleton{n}-2-{coeffs}", 1, [["full_skeleton", n, 2]],
                            ["hochster", "{input}", "--coeffs", coeffs], keep=1))
    return groups


def verdict_groups():
    """Inconclusive, NotCoH, CoH and golod jobs; the twelve like-cost NotCoH
    jobs hold the middle of the 28, so the median job is one of them."""
    def outcome(name):
        return lambda report: report["verdict"]["outcome"] == name

    neighbourly = [["random_complex", n, floor, 0.5, s]
                   for s in range(6) for n, floor in ((7, 3), (8, 3), (8, 4), (9, 4))]
    return [
        group("inconclusive-random6", 4,
              [["random_complex", 6, 2, 0.2, s] for s in range(80)],
              ["theorem", "{input}"], keep=8, enough=24, want=outcome("Inconclusive")),
        group("skeleton6-1", 1, [["full_skeleton", 6, 1]], ["theorem", "{input}"], keep=1),
        group("notcoh-cycle6", 12, [["cycle_flag", 6, s] for s in range(24)],
              ["theorem", "{input}"], keep=16, want=outcome("NotCoH")),
        group("coh-neighbourly", 8, neighbourly, ["theorem", "{input}"], keep=12,
              want=outcome("CoH")),
        group("golod-cycle6", 3,
              [["cycle_complex", 6]] + [["cycle_flag", 6, 100 + s] for s in range(7)],
              ["golod", "{input}"], keep=4),
    ]


def cluster_groups():
    """Eight cheaper and eight dearer jobs around five like-cost homotopy
    jobs at n = 8, so the median job is one of those five."""
    def violation(found):
        return lambda report: (report["tagging_violation"] is not None) == found

    verify = ["cluster", "verify", "--samples", SAMPLES, "--seed", "{k}"]
    groups = [group(f"regions{n}", 2, [None] * 10, verify + ["--n", str(n)], keep=4)
              for n in (6, 7, 8, 9)]
    for n, floor, pick in ((6, 3, 2), (7, 3, 2), (8, 3, 5), (9, 4, 2)):
        groups.append(group(
            f"homotopy{n}", pick,
            [["random_complex", n, floor, 0.5, s] for s in range(5 * pick)],
            verify + ["--complex", "{input}"], keep=2 * pick, want=violation(False)))
    groups.append(group(
        "violation-nonneighbourly", 2,
        [["single_non_face", n, 2] for n in (6, 7, 8, 9)] * 3,
        verify + ["--complex", "{input}"], keep=4, want=violation(True)))
    return groups


def group(name, pick, specs, argv, keep, enough=None, want=None):
    """A pool group: of the candidates with the wanted outcome, the ``keep``
    whose costs lie closest together.

    Keeping entries of like cost makes a seed change the inputs of a pass
    but hardly its length.  A candidate's cost is the median of
    ``ROUNDS`` timed runs, taken round-robin over the group and scaled to
    the reference speed, so the host's drift does not pick the entries.
    ``enough`` stops the search after that many wanted candidates.  Argv
    ``{k}`` is the candidate's index, used as its sampling seed.
    """
    candidates, commands = [], []
    with tempfile.TemporaryDirectory() as workdir:
        for k, spec in enumerate(specs):
            path = os.path.join(workdir, f"input{k}.json")
            if spec is not None:
                jobs.write_input(spec, path)
            cmd = [path if a == "{input}" else str(k) if a == "{k}" else a for a in argv]
            seconds, code, stdout, stderr = jobs.run_job(cmd)
            if code != 0:
                raise SystemExit(f"{name}: {cmd} exited {code}: {stderr}")
            report = json.loads(stdout)
            if jobs.check(code, stdout, jobs.digest(report)):
                raise SystemExit(f"{name}: {cmd} failed its own checks")
            if want is not None and not want(report):
                continue
            candidates.append({
                "input": spec,
                "argv": [str(k) if a == "{k}" else a for a in argv],
                "digest": jobs.digest(report),
            })
            commands.append(cmd)
            if len(candidates) == enough:
                break
        if len(candidates) < max(pick, keep):
            raise SystemExit(f"{name}: only {len(candidates)} usable candidates")
        times = [[] for _ in commands]
        for _ in range(ROUNDS):
            for cmd, samples in zip(commands, times):
                gc.collect()
                reference = jobs.reference_work()
                samples.append(jobs.run_job(cmd)[0] * jobs.REFERENCE_S / reference)
    cost = [statistics.median(samples) for samples in times]
    by_cost = sorted(range(len(cost)), key=cost.__getitem__)
    low = min(range(len(cost) - keep + 1),
              key=lambda i: cost[by_cost[i + keep - 1]] / cost[by_cost[i]])
    chosen = sorted(by_cost[low:low + keep])
    entries = [dict(candidates[i], seconds=round(cost[i], 4)) for i in chosen]
    print(f"{name}: {len(entries)} of {len(candidates)} candidates, pick {pick}, "
          f"{min(e['seconds'] for e in entries)}-{max(e['seconds'] for e in entries)} s",
          file=sys.stderr)
    return {"name": name, "pick": pick, "entries": entries}


def main():
    builders = {
        "hochster-ladder": hochster_groups,
        "verdict-mix": verdict_groups,
        "cluster-sweep": cluster_groups,
    }
    names = sys.argv[1:] or list(builders)
    pool = jobs.load_pool() if os.path.exists(jobs.POOL_PATH) else {}
    for name in names:
        pool[name] = builders[name]()
    with open(jobs.POOL_PATH, "w", encoding="utf-8") as handle:
        json.dump(pool, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
