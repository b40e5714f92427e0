"""Benchmark runner for codedcache.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in its own single-threaded process as a closed loop
with one client: the next job starts only after the previous one ends.
A run goes over a pool of jobs made during set-up, pass after pass.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a
fixed number of passes, each untraced and traced, and reports the
per-layer metrics plus the tracing overhead.  Every job's output is
checked as soon as the job ends, outside its timing.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``
for what each metric means.
"""

from __future__ import annotations

import os
import time

# One thread per pool: the workloads are single-threaded by design.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# Times are scaled to a machine on which reference_seconds() takes
# REFERENCE_S; set-up takes the median of REFERENCE_REPEATS runs of it.
REFERENCE_S = 0.0025
REFERENCE_REPEATS = 9
E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import codedcache from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "codedcache" / "__init__.py").is_file():
        sys.exit(f"perfbench: no codedcache sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import codedcache

    if SRC not in Path(codedcache.__file__).resolve().parents:
        sys.exit(f"perfbench: imported codedcache from {codedcache.__file__}, not {SRC}")
    return codedcache


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="catalogue, analysis, bit-exact or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(codedcache, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "codedcache": codedcache.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class OutputLog:
    """Checks each job's output as soon as the job ends and keeps only
    the size of all output and the sha256 of each pool job's first
    output, so what the run holds in memory does not grow with the
    number of jobs and the hash does not depend on the pass count."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.size = 0
        self.hashed: set[int] = set()

    def take(self, workload, record) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if not record.problems:
                try:
                    record.problems += workload.check(record)
                except Exception as exc:  # a check that cannot parse the output failed
                    record.problems.append(f"check raised {type(exc).__name__}: {exc}")
            text = workload.output_text(record).encode("utf-8")
        self.size += len(text)
        if record.job.id not in self.hashed:
            self.hashed.add(record.job.id)
            self.digest.update(text)
        record.outputs.clear()


def run_job(workload, job, record) -> None:
    """One closed-loop job; an exception is the job's failure.

    The exceptions the CLI turns into exit codes 2 and 3 (``ConfigError``
    is a ``ValueError``) are the program refusing a job, as a non-zero
    exit is.  Anything else, ``DecodeError`` included, is a wrong answer.
    """
    t0 = time.perf_counter()
    try:
        workload.run(job, record)
    except (ValueError, RuntimeError, OSError) as exc:
        record.problems.append(f"refused with {type(exc).__name__}: {exc}")
        record.refused = True
    except Exception as exc:  # a crash in the program is a failed job
        record.problems.append(f"raised {type(exc).__name__}: {exc}")
    record.seconds = time.perf_counter() - t0


def reference_seconds() -> float:
    """Wall time of a fixed piece of work that does not touch codedcache:
    interpreted loops, dict and float work, and numpy calls on small
    arrays, the mix the jobs spend their time in.  It measures how fast
    the machine runs at the moment."""
    import numpy

    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(8000):
        acc += math.sqrt(i + acc % 7.0)
        table[i & 127] = acc
    values = numpy.arange(512, dtype=numpy.float64)
    for _ in range(100):
        values = numpy.sort(values[::-1] * 1.0001)
    return time.perf_counter() - t0


def run_pass(workload, jobs, log: OutputLog | None, tracer=None,
             reference: list | None = None) -> list:
    """Run the jobs back to back.  Only the jobs themselves are timed:
    installing the tracer and checking outputs happen between jobs, so
    a pass's wall time is the sum of ``record.seconds``.  With a
    ``reference`` list, each job is preceded by one timed run of the
    reference work, appended to the list."""
    from workloads import Record

    records = []
    for job in jobs:
        if reference is not None:
            reference.append(reference_seconds())
        record = Record(job)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            run_job(workload, job, record)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.job_span(job.id, job.stratum, start, start + record.seconds, record.ok)
        if log is not None:
            log.take(workload, record)
        records.append(record)
    return records


def job_seconds(records) -> float:
    return sum(r.seconds for r in records)


def in_order(pool, seed: int, index: int) -> list:
    from workloads import pass_order

    return [pool[i] for i in pass_order(seed, index, len(pool))]


def run_timed(workload, pool, seed: int, seconds: float, log: OutputLog):
    """Whole passes over the pool until the jobs have run for ``seconds``.
    Returns the records, and per pass its records and the median time of
    the reference work run between its jobs."""
    passes = []
    while not passes or sum(job_seconds(p) for p, _ in passes) < seconds:
        reference = []
        records = run_pass(workload, in_order(pool, seed, len(passes)), log,
                           reference=reference)
        passes.append((records, statistics.median(reference)))
    return [r for p, _ in passes for r in p], passes


def traced_passes(workload, seconds: float) -> int:
    """A traced run's fixed pass count, so that its counts repeat for a
    given seed and ``--seconds``."""
    return max(1, round(seconds / (3 * workload.pass_seconds)))


def run_traced(workload, pool, seed: int, passes: int, tracer, log: OutputLog):
    """Each pass untraced and traced, alternating which goes first so
    that neither side always runs on warm caches.  Only the traced side
    is checked.  Returns the traced records and the untraced and traced
    wall times."""
    records = []
    walls = {False: 0.0, True: 0.0}
    for index in range(passes):
        jobs = in_order(pool, seed, index)
        for traced in (bool(index % 2), not index % 2):
            recs = run_pass(workload, jobs, log if traced else None,
                            tracer if traced else None)
            walls[traced] += job_seconds(recs)
            if traced:
                records += recs
    return records, walls[False], walls[True]


def measure_setup(args) -> tuple[float, float]:
    """Median wall time of fresh processes that import the package and
    make this workload's pool (``--setup-only``), unscaled and scaled by
    the reference work timed just before each."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0", "--setup-only"]
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        ref = statistics.median(reference_seconds() for _ in range(REFERENCE_REPEATS))
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * REFERENCE_S / ref)
    return statistics.median(times), statistics.median(scaled)


def summarize_failures(records) -> list[str]:
    lines = []
    for record in records:
        if record.problems:
            tag = "refused" if record.refused else "wrong"
            lines.append(f"# failed job {record.job.id} ({tag}): {record.problems[0]}")
    return lines


def print_result(lines, correct, attempted, failed, metrics, units) -> None:
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def run_workload(args) -> int:
    codedcache = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = base / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    # Jobs run inside the work directory and name their files relative
    # to it, so the paths the CLI echoes, and the output hash, do not
    # depend on the process id.
    os.chdir(workdir)
    try:
        pool, notes = workload.make_pool(args.seed, Path())
        if args.setup_only:
            return 0
        return measure(args, codedcache, workload, pool, notes)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # fails while another run still has its directory here


def measure(args, codedcache, workload, pool, notes) -> int:
    import tracing

    raw_setup_s, setup_s = (None, None) if args.trace else measure_setup(args)

    warnings.simplefilter("always")
    # Warm-up: one untimed job.  The other jobs' first runs are timed,
    # but each percentile sits amid one job's runs over many passes.
    run_pass(workload, pool[:1], None)

    env = environment(codedcache, args.seed)
    lines = [f"# perfbench {workload.name} seed={args.seed} trace={args.trace}",
             "# env " + json.dumps(env, sort_keys=True), *notes]
    log = OutputLog()
    if args.trace:
        tracer = tracing.Tracer()
        records, plain_wall, traced_wall = run_traced(
            workload, pool, args.seed, traced_passes(workload, args.seconds), tracer, log)
    else:
        records, passes = run_timed(workload, pool, args.seed, args.seconds, log)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sha, size = log.digest.hexdigest(), log.size
    attempted = len(records)
    failed = sum(1 for r in records if r.problems)
    correct = not any(r.problems and not r.refused for r in records)
    strata = {}
    for r in records:
        strata[r.job.stratum] = strata.get(r.job.stratum, 0) + 1
    lines.append(f"# jobs {attempted} " + json.dumps(strata, sort_keys=True)
                 + f", {failed} failed")
    lines += summarize_failures(records)
    lines.append(f"# output_sha256 {sha} (first output of each of {len(pool)} pool jobs;"
                 f" {size} bytes over {attempted} jobs)")

    if args.trace:
        metrics = tracer.metrics(size if workload.writes_cli else 0)
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        units = tracing.UNITS
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": workload.name, "env": env,
                                 "untraced_wall_s": plain_wall,
                                 "traced_wall_s": traced_wall})
        lines.append(f"# trace written to {trace_path.relative_to(ROOT)}")
    else:
        raw = {"setup_s": raw_setup_s, **speed_metrics(passes, scaled=False)}
        metrics = {"setup_s": setup_s, **speed_metrics(passes, scaled=True),
                   "peak_rss_mb": peak_rss_mb}
        lines.append("# raw " + json.dumps(raw))
        units = E2E_UNITS
        lines.append(f"# timed phase {job_seconds(records):.3f} s, {len(passes)} passes over"
                     f" {len(pool)} jobs, {attempted - failed} successful job runs")
        # Printed with the metrics, but carried in the JSON by attempted/failed.
        lines.append(f"{'error_rate':32s} {failed / attempted:>16.6g} ratio")
    print_result(lines, correct, attempted, failed, metrics, units)
    return 0


def speed_metrics(passes, scaled: bool) -> dict[str, float]:
    """jobs_per_s (the median pass), job_p50_ms and job_p90_ms (over all
    successful job runs), with each pass's times scaled by
    ``REFERENCE_S`` / its reference time if ``scaled``."""
    rates, times = [], []
    for records, ref in passes:
        scale = REFERENCE_S / ref if scaled else 1.0
        rates.append(sum(r.ok for r in records) / (job_seconds(records) * scale))
        times += [r.seconds * scale * 1e3 for r in records if r.ok]
    return {
        "jobs_per_s": statistics.median(rates),
        "job_p50_ms": float(statistics.median(times)) if times else 0.0,
        "job_p90_ms": percentile(times, 90) if times else 0.0,
    }


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def run_all(args) -> int:
    """Each workload in its own process, one after the other; the last
    line joins their results, metric names prefixed with the workload."""
    import_package()
    import workloads

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
