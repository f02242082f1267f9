"""Benchmark of the ``momentangle`` command line, run from the repository root.

    python3 bench/run.py --workload hochster-ladder --seed 1 --seconds 20 --trace 0

Each job is one ``momentangle.cli.main(argv)`` call with stdout captured,
so it covers argparse, JSON load, compute, report and ``json.dumps``.
Jobs run one at a time, a closed loop with one client.  A run repeats
whole passes over the seeded job list for about ``--seconds``, each pass
in a fresh interpreter, checks every answer against ``pool.json``, and
prints one JSON result as the last line of stdout.  With ``--trace 1`` it
then runs one more pass with outside-in wrappers (see ``tracing.py``) and
reports the per-layer metrics instead of the end-to-end ones.

The host's speed drifts by a third and more over tens of seconds, longer
than a run, so end-to-end times are scaled to a reference speed: a fixed
piece of interpreter work is timed before every job, and the
run's times are multiplied by ``jobs.REFERENCE_S`` over its median time.  Raw
seconds are kept in the side file.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("hochster-ladder", "verdict-mix", "cluster-sweep")
PREDICTED_DOMINANT = {
    "hochster-ladder": ("linalg.smith_normal_form", "linalg.rank_mod_p"),
    "verdict-mix": ("linalg.field_solve",),
    "cluster-sweep": ("clusters.in_split_region",),
}
SETUP_SAMPLES = 10
HOST_DRIFT = ("The same job has taken from 1.96 to 3.40 s of CPU time on one host, and "
              "a fixed loop a third longer for tens of seconds; compare timings only "
              "between runs of one session on one machine. Exact counts do not drift.")


def import_package():
    """Import the package from this checkout's ``src``, and only from there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH)
    try:
        import momentangle
    except ImportError as exc:
        raise SystemExit(f"error: cannot import momentangle from {src}: {exc}")
    if not os.path.abspath(momentangle.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: momentangle imported from {momentangle.__file__}, "
                         f"not from {src}")


def environment():
    with open("/proc/loadavg", encoding="ascii") as handle:
        loadavg = handle.read().split()[:3]
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg": loadavg, "time": time.time()}


def run_pass(jobs, main, tracer=None):
    """Run every job once: its seconds, the ``reference_work`` time taken
    before it, and its failure reason (None if correct)."""
    import jobs as joblib

    seconds, references, failures = [], [], []
    for index, (argv, expected) in enumerate(jobs):
        gc.collect()
        references.append(joblib.reference_work())
        if tracer is not None:
            tracer.current_job = index
        elapsed, code, stdout, stderr = joblib.run_job(argv, main)
        seconds.append(elapsed)
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(stdout.encode())
        reason = joblib.check(code, stdout, expected)
        if reason is not None:
            print(f"FAILED {' '.join(argv)}: {reason} {stderr.strip()}", file=sys.stderr)
        failures.append(reason)
    return seconds, references, failures


def one_pass(workload, seed, run_jobs=True):
    """Body of a pass process: write the inputs, run every job once, report.

    Without ``run_jobs`` the process stops where its first timed job would
    start, which samples the set-up time alone.
    """
    import jobs as joblib
    from momentangle import cli

    workdir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        jobs = joblib.prepare(workload, seed, workdir)
        first_job_at = time.monotonic()
        seconds, references, failures = (run_pass(jobs, cli.main) if run_jobs
                                          else ([], [], []))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"first_job_at": first_job_at, "seconds": seconds,
                      "references": references, "failures": failures}))


def spawn(workload, seed, flag):
    """Run this script as a pass process: its result, and the seconds from
    spawning the interpreter to its first timed job."""
    spawned = time.monotonic()
    done = subprocess.run([sys.executable, __file__, "--workload", workload,
                           "--seed", str(seed), flag],
                          check=True, capture_output=True, text=True, timeout=90)
    sys.stderr.write(done.stderr)
    result = json.loads(done.stdout.splitlines()[-1])
    return result, result["first_job_at"] - spawned


def measure(workload, seed, budget):
    """Set-up samples, then whole passes (two at least) while the next one
    should end within ``budget`` seconds.

    A fresh process per pass is what a user calling ``momentangle`` pays
    for, and keeps a process-wide cache from carrying answers from one
    pass into the next.  Every pass also gives a set-up sample.
    """
    setups = [spawn(workload, seed, "--setup-only")[1] for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        result, setup = spawn(workload, seed, "--one-pass")
        passes.append(result)
        setups.append(setup)
        elapsed = time.monotonic() - start
        if len(passes) >= 2 and elapsed + elapsed / len(passes) > budget:
            return passes, setups


def traced_pass(jobs, untraced_wall, workload, seed):
    """One pass with every layer wrapped: per-layer metrics and failures."""
    import jobs as joblib
    import tracing
    from momentangle import cli

    tracer = tracing.Tracer()
    main = tracer.wrap(tracer.ROOT, cli.main)
    tracer.install()
    try:
        seconds, references, failures = run_pass(jobs, main, tracer)
    finally:
        tracer.uninstall()
    traced_wall = sum(seconds) * joblib.REFERENCE_S / statistics.median(references)
    metrics = tracer.metrics(traced_wall / untraced_wall)
    ranking = tracer.dominant()
    predicted = PREDICTED_DOMINANT[workload]
    predicted_s = sum(s for name, s in ranking if name in predicted)
    rival, rival_s = next((name, s) for name, s in ranking + [("none", 0.0)]
                          if name not in predicted)
    verdict = "confirmed" if predicted_s > rival_s else "FAILED"
    print(f"dominant layer prediction {verdict}: {' + '.join(predicted)} "
          f"{predicted_s:.3f} s self time, next {rival} {rival_s:.3f} s, "
          f"of {sum(s for _, s in ranking):.3f} s in wrapped calls", file=sys.stderr)
    tracer.dump(os.path.join(OUT, f"spans-{workload}-{seed}.json.gz"))
    units = tracing.metric_units()
    report = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    extra = {"dominant": [[name, s] for name, s in ranking[:8]],
             "prediction": verdict, "traced_seconds": seconds,
             "traced_references": references}
    return report, failures, extra


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def main():
    args = parse_args()
    import_package()
    import jobs as joblib

    os.makedirs(OUT, exist_ok=True)
    if args.one_pass or args.setup_only:
        one_pass(args.workload, args.seed, run_jobs=args.one_pass)
        return 0
    stamp = {"start": environment()}
    passes, setups = measure(args.workload, args.seed, args.seconds)
    # The whole run is scaled by its median reference time: scaling single
    # jobs by the reference taken next to them adds that short
    # measurement's noise.
    references = [r for p in passes for r in p["references"]]
    speed = joblib.REFERENCE_S / statistics.median(references)
    per_job = [statistics.median(times) * speed
               for times in zip(*(p["seconds"] for p in passes))]
    failures = [f for p in passes for f in p["failures"]]
    wall = sum(per_job)
    report = {
        "jobs_per_s": {"value": failures.count(None) / len(passes) / wall, "unit": "1/s"},
        "job_p50_s": {"value": statistics.median(s for p in passes for s in p["seconds"])
                      * speed, "unit": "s"},
        "setup_s": {"value": statistics.median(setups) * speed, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                        / 1024, "unit": "MB"},
    }
    extra = {}
    if args.trace:
        workdir = tempfile.mkdtemp(prefix="traced-", dir=OUT)
        try:
            jobs = joblib.prepare(args.workload, args.seed, workdir)
            report, traced_failures, extra = traced_pass(jobs, wall, args.workload,
                                                         args.seed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failures += traced_failures
    stamp["end"] = environment()
    failed = len(failures) - failures.count(None)
    side = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": stamp, "host_drift": HOST_DRIFT,
            "jobs": joblib.select_jobs(joblib.load_pool(), args.workload, args.seed),
            "speed": speed, "latencies": per_job,
            "passes": [{k: p[k] for k in ("seconds", "references")} for p in passes],
            "setups": setups, "failed_ratio": failed / len(failures), **extra}
    with open(os.path.join(OUT, f"run-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(side, handle, indent=1)
    print(json.dumps(stamp), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(failures),
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
