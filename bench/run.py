"""floppymetrics benchmark: one workload per process, printed as one JSON line.

    python3 bench/run.py --workload screen|extend|game --seed N --seconds S --trace 0|1

A workload is a fixed mix of at least MIN_JOBS jobs generated from the seed
(see workloads.py).  Set-up (import, input generation, document writing) runs
SETUP_REPEATS times and reports its median.

``--trace 0`` runs the mix in whole passes until ``--seconds`` of job wall
time and at least MIN_PASSES passes are done, and prints the end-to-end
metrics.  Times are quiet-host times (see hostclock.py); a job's latency is
its median over the passes.  The measured wall-clock figures go to stderr.

``--trace 1`` runs one untraced pass and two traced passes (see tracing.py),
checks that the traced passes repeat their call counts exactly and reproduce
the untraced outputs byte for byte, and prints the per-layer metrics.

Every job's output is checked outside the timed region, and its digest is
compared with the first pass and, for the seeds recorded in digests.json,
with the recorded digest.  ``--record-digests`` rewrites the entry for
``--workload`` and ``--seed`` from one pass whose checks all succeed.

The library is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from hostclock import HostClock
from tracing import LAYERS, REPORTED, Tracer
from workloads import BUILDERS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1  # the held-out seed is 2; digests.json records both
SETUP_REPEATS = 7
MIN_JOBS = 100  # distinct jobs per pass, so that p90 has ten samples beyond it
MIN_PASSES = 3

END_TO_END = (
    ("pairs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# waste ratio -> (numerator, denominator or None for the jobs' pairs, job kinds)
RATIOS = {
    "game.with_edge_per_inning": ("core.with_edge", None, {"game", "sabotage"}),
    "extension.envelope_per_step": ("core.lower_envelope", None, {"extend-lex", "extend-maxgap", "extend-set"}),
    "glue.validate_patchwork_per_certificate": ("glue.validate_patchwork", "glue.floppy_certificate", {"certificate"}),
    "core.envelope_per_nonedge": ("core.lower_envelope", None, {"is_floppy", "certificate"}),
}


def per_layer_metrics():
    """(name, unit) of every metric printed with --trace 1."""
    out = []
    for name in REPORTED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.share", "ratio")]
    out += [(name, "ratio") for name in RATIOS]
    return out + [("trace.overhead_ratio", "ratio")]


def load_library():
    """Import the package afresh; part of the set-up being timed."""
    for name in [m for m in sys.modules if m == "floppymetrics" or m.startswith("floppymetrics.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"floppymetrics.{m}") for m in LAYERS})
    if SRC not in Path(lib.core.__file__).resolve().parents:
        raise SystemExit(f"floppymetrics was imported from {lib.core.__file__}, not from {SRC}")
    return lib


def setup(workload, seed, workdir):
    """Returns (jobs, median quiet-host set-up seconds)."""

    def once():
        lib = load_library()
        workdir.mkdir(parents=True)
        return BUILDERS[workload](lib, seed, str(workdir))

    times = []
    with HostClock() as clock:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            jobs, _, quiet = clock.time(once)
            times.append(quiet)
    return jobs, statistics.median(times)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def plain_time(fn):
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, wall


def run_pass(jobs, timer=plain_time, tracer=None):
    """Run every job once; per job return ((wall s, quiet s) or None, digest
    or None, problems)."""
    out = []
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job, tracer.active = i, True
        try:
            result, wall, quiet = timer(job.run)
        except Exception:  # a failing job is counted, and the run goes on
            out.append((None, None, [traceback.format_exc(limit=4)]))
            continue
        finally:
            if tracer:
                tracer.active = False
        try:
            out.append(((wall, quiet), digest(job.render(result)), job.check(result)))
        except Exception:
            out.append(((wall, quiet), None, [traceback.format_exc(limit=4)]))
    return out


def count_failures(jobs, passes, reference):
    """Failed executions: an error, a failed check, or a digest that differs
    from the recorded one (or, for unrecorded seeds, from the first pass)."""
    if reference is None:
        reference = {job.id: d for job, (_, d, _) in zip(jobs, passes[0])}
    failed = 0
    for n, results in enumerate(passes):
        for job, (_, d, problems) in zip(jobs, results):
            if d is not None and d != reference.get(job.id):
                problems = problems + [f"digest {d} differs from {reference.get(job.id)}"]
            if problems:
                failed += 1
                if failed <= 5:
                    print(f"FAILED {job.id} (pass {n}): {problems[:2]}", file=sys.stderr)
    return failed


def job_seconds(results):
    return sum(times[0] for times, _, _ in results if times)


def end_to_end(jobs, passes, setup_s):
    done = [(job.pairs, times) for results in passes for job, (times, _, _) in zip(jobs, results) if times]
    pairs = sum(p for p, _ in done)
    wall = sum(w for _, (w, _) in done)
    quiet = sum(q for _, (_, q) in done)
    latency = []
    for runs in zip(*([times for times, _, _ in results] for results in passes)):
        if any(runs):
            latency.append(statistics.median(q for _, q in filter(None, runs)))
    print(f"{len(latency)} jobs, median of {len(passes)} passes; wall clock: {pairs / wall:.2f} pairs/s, "
          f"host slowdown {wall / quiet:.3f}", file=sys.stderr)
    return {
        "pairs_per_s": pairs / quiet,
        "job_p50_ms": statistics.median(latency) * 1e3,
        "job_p90_ms": statistics.quantiles(latency, n=10)[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(jobs, untraced, traced, summary):
    calls, self_s, job_calls = summary
    wall = job_seconds(traced)
    values = {}
    for name in REPORTED:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in LAYERS:
        total = sum(s for name, s in self_s.items() if name.split(".")[0] == layer)
        values[f"{layer}.self_s"] = total
        values[f"{layer}.share"] = total / wall
    for ratio, (num, den, kinds) in RATIOS.items():
        picked = [i for i, job in enumerate(jobs) if job.kind in kinds]
        top = sum(job_calls.get((i, num), 0) for i in picked)
        bottom = sum(job_calls.get((i, den), 0) if den else jobs[i].pairs for i in picked)
        values[ratio] = top / bottom if bottom else 0.0
    values["trace.overhead_ratio"] = wall / job_seconds(untraced)
    return values


def measure(args, jobs, setup_s):
    """Returns (passes run, self-checks passed, metric values)."""
    gc.collect()
    if not args.trace:
        passes = []
        with HostClock() as clock:
            while len(passes) < MIN_PASSES or sum(map(job_seconds, passes)) < args.seconds:
                passes.append(run_pass(jobs, clock.time))
        return passes, True, end_to_end(jobs, passes, setup_s)
    # plain wall clock: probes would land inside the traced spans
    untraced = run_pass(jobs)
    tracer = Tracer()
    tracer.install()
    try:
        first = run_pass(jobs, tracer=tracer)
        summary = tracer.summary()
        tracer.reset()
        second = run_pass(jobs, tracer=tracer)
        repeat = tracer.summary()
    finally:
        tracer.uninstall()
    counts_repeat = summary[0] == repeat[0]
    same_output = [d for _, d, _ in untraced] == [d for _, d, _ in first] == [d for _, d, _ in second]
    if not counts_repeat:
        print("SELF-CHECK: call counts differ between the two traced passes", file=sys.stderr)
    if not same_output:
        print("SELF-CHECK: traced outputs differ from untraced outputs", file=sys.stderr)
    passes = [untraced, first, second]
    return passes, counts_repeat and same_output, per_layer(jobs, untraced, first, summary)


def record_digests(args, jobs):
    results = run_pass(jobs)
    bad = [(job.id, problems) for job, (_, _, problems) in zip(jobs, results) if problems]
    if bad:
        raise SystemExit(f"not recording: {len(bad)} jobs fail, first {bad[0]}")
    book = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    book.setdefault(args.workload, {})[str(args.seed)] = {job.id: d for job, (_, d, _) in zip(jobs, results)}
    DIGESTS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(jobs)} digests for {args.workload} seed {args.seed}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "floppymetrics" / "__init__.py").is_file():
        print(f"no floppymetrics sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE.parent / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        jobs, setup_s = setup(args.workload, args.seed, workdir)
        if len(jobs) < MIN_JOBS:
            raise SystemExit(f"{args.workload} has {len(jobs)} jobs, fewer than {MIN_JOBS}")
        if args.record_digests:
            record_digests(args, jobs)
            return 0
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        reference = recorded.get(args.workload, {}).get(str(args.seed))
        passes, self_checks, values = measure(args, jobs, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = count_failures(jobs, passes, reference)
    attempted = len(passes) * len(jobs)
    print(f"fail_ratio {failed / attempted} ({failed}/{attempted})", file=sys.stderr)
    units = dict(per_layer_metrics() if args.trace else END_TO_END)
    print(json.dumps({
        "correct": failed == 0 and self_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
