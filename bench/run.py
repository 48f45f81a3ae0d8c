"""Benchmark of the sparse_closure package: one client, closed loop.

    python3 bench/run.py --workload certify|train|exact --seed N --seconds S --trace 0|1
                         [--results FILE]

Run from the repository root; the package is imported from ./src.  The
process imports the package, sets up (input generation and a warm-up round
of every job kind, five times), then runs rounds of jobs until the round
boundary nearest to S seconds, checking every output and timing each job
against the host speed sampled while it ran (SpeedSampler).  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it runs each job both
untraced and traced (spans around the calls into every module, see
tracing.py), plus its probe call where a layer metric needs one, and reports
the per-layer metrics and the tracing overhead.  The last line of stdout is a JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it print
every metric by name and unit.  --results merges the full record (metrics,
environment, span summary) into FILE under "<workload>/trace<0|1>".
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_ROUNDS = 5
TAIL_BEYOND = 10
SAMPLE_PERIOD_S = 0.02
SAMPLE_FRACTIONS = 60  # 0.2 to 0.4 ms a sample on the baseline host
REFERENCE_SAMPLE_S = 300e-6  # set-up time is reported in seconds at this sample time

END_TO_END = {  # name -> unit: the metrics BENCHMARK.json bounds, on every workload
    "setup_s": "s",
    "jobs_per_kref": "1/kref",
    "peak_rss_mb": "MB",
}
EXTRA_UNITS = {  # printed and recorded, not bounded (see README.md); the rest are in s
    "jobs_per_s": "1/s", "reference_us": "us",
    "job_tail_percentile": "%", "job_tail_beyond": "count", "jobs": "count", "rounds": "count",
    "error_rate": "failed/attempted", "refused": "count",
}
KIND_P50 = {  # per-workload end-to-end metrics, printed and recorded
    "verify": "verify_p50_s",
    "fit": "fit_p50_s",
    "enum": "enum_p50_s",
    "gen_dataset": "gen_dataset_p50_s",
    "project": "project_p50_s",
}
PER_LAYER = {
    "infimum.gap_s": "s",
    "infimum.fit_s": "s",
    "infimum.sweep_ms": "ms",
    "infimum.signature_rate": "ratio",
    "infimum.fit_bounded_rate": "ratio",
    "closure.thm5_s": "s",
    "closure.verdict_us": "us",
    "closure.thm5_subsets": "count",
    "closure.thm5_distinct_ratio": "ratio",
    "patterns.subset_us": "us",
    "smt.emit_s": "s",
    "smt.bytes": "bytes",
    "relu.step_us": "us",
    "relu.metrics_ms": "ms",
    "relu.train_epoch_s": "s",
    "experiments.self_s": "s",
    "experiments.workers": "count",
    "datasets.build_s": "s",
    "datasets.point_us": "us",
    "datasets.write_s": "s",
    "datasets.points": "count",
    "polyhedra.eliminate_s": "s",
    "polyhedra.rows_in": "count",
    "polyhedra.pairs": "count",
    "polyhedra.rows_out": "count",
    "polyhedra.kept_ratio": "ratio",
    "polyhedra.cap_hits": "count/round",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}


def import_package(workload):
    """Import what the workload's first calls would import; returns seconds."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import sparse_closure.cli

    if workload == "certify":
        import scipy.optimize  # noqa: F401  (lazy import of the first infimum polish)
        import sparse_closure.infimum  # noqa: F401
    if workload == "train":
        import sparse_closure.experiments  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(sparse_closure.__file__).resolve().parent != ROOT / "src" / "sparse_closure":
        raise ImportError(f"sparse_closure imported from {sparse_closure.__file__}, not ./src")
    return elapsed


def environment(workers):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "run_experiment_workers": workers,
    }


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples beyond); the maximum when there are too few."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0, 0
    return ordered[k - 1], 100.0 * k / len(ordered), TAIL_BEYOND


class SpeedSampler:
    """Samples the host's speed while untraced jobs run.

    On a shared 2-vCPU host (Intel Xeon) the speed of the same Python code
    was seen to switch between about 1x and 1.6x within seconds, so a job's
    wall time says as much about the host as about the package.  Inside
    `with sampler:` a SIGALRM handler builds, sorts and indexes a fixed list
    of `Fraction`s every SAMPLE_PERIOD_S of wall time and records the
    thread CPU time this took (a sample descheduled in favour of the
    package's worker processes does not read as a slow host).  `job` turns
    a job's wall time into reference units: the wall time minus the samples
    inside it, divided by the mean sample time over the job.  The sample is
    the benchmark's own code, so a faster package lowers the job's time in
    reference units as much as its wall time."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def sample(self, *_):
        start, cpu = time.perf_counter(), time.thread_time()
        values = sorted(Fraction(i * 7919 % 1009, i % 13 + 1) for i in range(1, SAMPLE_FRACTIONS))
        {v: i for i, v in enumerate(values)}
        self.cpus.append(time.thread_time() - cpu)
        self.walls.append(time.perf_counter() - start)

    def __enter__(self):
        self.first = len(self.cpus)
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def job(self, wall):
        """(wall time without the samples, reference time) of the job just
        run inside `with self:`; a job too short to be sampled gets one
        sample right after it."""
        if len(self.cpus) == self.first:
            self.sample()
            return wall, self.cpus[-1]
        inside = slice(self.first, None)
        return wall - sum(self.walls[inside]), statistics.fmean(self.cpus[inside])

    def seconds(self, wall):
        """`wall` of the interval just run inside `with self:`, without the
        samples and converted to seconds at REFERENCE_SAMPLE_S a sample."""
        wall, ref = self.job(wall)
        return wall * REFERENCE_SAMPLE_S / ref


def run_job(job, records, round_index, sampler=None):
    """Time one job, then check its output; returns the wall time.  With a
    sampler, the wall time excludes the samples and the record gets the
    job's reference time."""
    start = time.perf_counter()
    try:
        with sampler or contextlib.nullcontext():
            output = job.run()
    except Exception as exc:  # an exception from the package is a failed job, not a crashed run
        output = exc
    wall = time.perf_counter() - start
    record = {"round": round_index, "kind": job.kind, "wall": wall, "size": job.size}
    if sampler is not None:
        record["wall"], record["ref"] = sampler.job(wall)
    try:
        if isinstance(output, Exception):
            raise output
        record["outcome"] = job.check(output)
    except Exception as exc:
        record["outcome"] = f"failed: {type(exc).__name__}: {exc}"
    records.append(record)
    return record["wall"]


def setup(build, seed):
    """SETUP_ROUNDS times: build a tiny round from the seed and run it, so
    each job kind pays its first-call costs before measuring.  Returns each
    round's wall time and its time at the reference speed (see
    SpeedSampler.seconds), and the job records."""
    walls, times, records = [], [], []
    sampler = SpeedSampler()
    work = WORK / "setup"
    work.mkdir(parents=True, exist_ok=True)
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        with sampler:
            for job in build(seed, 0, work, tiny=True):
                run_job(job, records, -1)
        walls.append(time.perf_counter() - start)
        times.append(sampler.seconds(walls[-1]))
    return walls, times, records


def measure(build, seed, seconds, tracer):
    """Rounds of jobs until the round boundary nearest to `seconds`.  Each
    job runs untraced under a SpeedSampler.  With a tracer it also runs
    traced, followed by its probe (traced); the two runs alternate which
    goes first, so that the warm-up of the first favours neither."""
    records, rerun, traced, trace_jobs = [], [], [], []
    sampler = SpeedSampler()
    work = WORK / "jobs"
    work.mkdir(parents=True, exist_ok=True)

    def run_traced(job, r):
        job_id = tracer.job_id = len(trace_jobs)
        trace_jobs.append((job.kind, None))
        tracer.install()
        try:
            wall = run_job(job, rerun, r)
            if job.probe:
                tracer.job_id = len(trace_jobs)
                trace_jobs.append((job.probe_kind, job_id))
                job.probe()
        finally:
            tracer.uninstall()
        return wall

    start = time.perf_counter()
    r = 0
    while True:
        for job in build(seed, r, work):
            if tracer is None:
                run_job(job, records, r, sampler)
            elif len(traced) % 2 == 0:
                untraced_wall = run_job(job, records, r, sampler)
                traced.append((untraced_wall, run_traced(job, r)))
            else:
                traced_wall = run_traced(job, r)
                traced.append((run_job(job, records, r, sampler), traced_wall))
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (2 * r) >= seconds:
            return records, rerun, r, traced, trace_jobs


def end_to_end(records, rounds, setup_s):
    walls = [x["wall"] for x in records]
    value, pct, beyond = tail(walls)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_kref": len(walls) / sum(x["wall"] / (1e3 * x["ref"]) for x in records),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {"jobs_per_s": len(walls) / sum(walls),
             "reference_us": 1e6 * statistics.median(x["ref"] for x in records),
             "job_p50_s": statistics.median(walls), "job_tail_s": value, "job_tail_percentile": pct,
             "job_tail_beyond": beyond, "jobs": len(walls), "rounds": rounds}
    for kind, name in KIND_P50.items():
        kind_walls = [x["wall"] for x in records if x["kind"] == kind]
        if kind_walls:
            extra[name] = statistics.median(kind_walls)
    train = [x["wall"] / x["size"] for x in records if x["kind"] == "train"]
    if train:
        extra["seed_epoch_s"] = statistics.median(train)
    not_ok = [x for x in records if x["outcome"] != "ok"]
    extra["error_rate"] = len(not_ok) / len(records)
    extra["refused"] = sum(x["outcome"] == "refused" for x in records)
    return metrics, extra


def print_metric(name, value, unit):
    print(f"{name:32s} {value!r} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "train", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="merge the full record into this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sparse_closure" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sampler = SpeedSampler()
    with sampler:
        import_wall = import_package(args.workload)
    import_s = sampler.seconds(import_wall)
    import tracing
    from workloads import ROUNDS

    build = ROUNDS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    pool_watch = tracing.Tracer()
    pool_watch.install(spans=False)  # records the worker count run_experiment chooses
    try:
        setup_walls, setup_times, setup_records = setup(build, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        records, rerun, rounds, traced, trace_jobs = measure(build, args.seed, args.seconds, tracer)
    finally:
        pool_watch.uninstall()
    setup_s = import_s + statistics.median(setup_times)
    workers = max(pool_watch.workers, default=None)

    all_records = setup_records + records + rerun
    failed = [x for x in all_records if x["outcome"] not in ("ok", "refused")]
    for x in failed[:5]:
        print(f"FAILED {x['kind']}: {x['outcome']}", file=sys.stderr)

    e2e, extra = end_to_end(records, rounds, setup_s)
    extra["setup_wall_s"] = import_wall + statistics.median(setup_walls)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(workers),
        "setup": {"import_s": import_s, "rounds_s": setup_times,
                  "import_wall_s": import_wall, "rounds_wall_s": setup_walls},
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "workload_metrics": extra,
        "failed": [x["outcome"] for x in failed],
    }
    if tracer is not None:
        import layers

        per_layer = layers.per_layer(tracer, trace_jobs, traced, rounds)
        record["per_layer"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in per_layer.items()}
        record["spans"] = len(tracer.spans)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        shown = per_layer
        units = PER_LAYER
    else:
        shown = e2e
        units = END_TO_END

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} jobs in {rounds} rounds")
    print(json.dumps({"environment": record["environment"]}))
    for name, value in e2e.items():
        print_metric(name, value, END_TO_END[name])
    for name, value in extra.items():
        print_metric(name, value, EXTRA_UNITS.get(name, "s"))
    if tracer is not None:
        for name, value in per_layer.items():
            print_metric(name, value, PER_LAYER[name])

    if args.results:
        path = Path(args.results)
        merged = json.loads(path.read_text()) if path.is_file() else {}
        merged[f"{args.workload}/trace{args.trace}"] = record
        path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
