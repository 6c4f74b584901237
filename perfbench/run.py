#!/usr/bin/env python3
"""mvskew benchmark: closed-loop CLI workloads with oracle-checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Load model: one client in a closed loop. Each pass runs the workload's job
script (``workloads.py``) as one ``mvskew`` subprocess at a time, spawn to
exit, writing to a scratch directory at ``--precision 15``. Passes repeat
while another fits in ``--seconds``, at least ``MIN_PASSES``. BLAS threads
are pinned to ``PINNED_THREADS``. After each pass, outside the timed
section, every output is checked against the numpy oracle in ``oracle.py``.

``--trace 0`` prints the end-to-end metrics: medians over the passes of
timings scaled to reference speed (see ``measure``). ``--trace 1`` runs
each job untraced and, back to back, through ``tracejob.py`` with the span
recorder of ``spans.py``; then one pass at ``nproc`` BLAS threads. It prints
the per-layer metrics. ``--smoke`` runs every workload once on tiny inputs
in both modes and checks that every metric of BENCHMARK.json is printed
with its unit.

The last stdout line is one JSON object: correct, attempted, failed (jobs
that exited non-zero or failed a check) and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

PINNED_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = str(PINNED_THREADS)

import numpy as np  # noqa: E402

from oracle import Oracle  # noqa: E402
from spans import job_totals, layer_metrics, read_spans  # noqa: E402
from workloads import JOB_KINDS, Job, Workload, workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# what the `mvskew` console script runs
LAUNCH = "import sys; from mvskew.cli import main; sys.exit(main())"
# a fresh interpreter importing the package: the set-up every job pays
IMPORT = [sys.executable, "-c", "import mvskew"]
# -X importtime samples per traced run
IMPORT_SAMPLES = 5
# passes per run at least, so that each job latency is a median of two
MIN_PASSES = 2
# A fixed task that does not touch mvskew: interpreter start, numpy import, a
# little numpy and Python. It runs before every timed sample and after the last
# one, and tracks the speed of the host, whose CPUs slow down by about 1.5x for
# seconds at a time.
REFERENCE = [sys.executable, "-c",
             "import numpy as np\na = np.ones((32, 32))\nfor _ in range(3000): a @ a\n"
             "s = 0\nfor i in range(400000): s += i * i\n"]
# its least time on the development host (2-vCPU Xeon VM, Python 3.11, numpy 2.4)
REFERENCE_SECONDS = 0.15
NPROC = len(os.sched_getaffinity(0))


def unit_of(name: str) -> str:
    for suffix, unit in ((".mb_per_s", "MB/s"), (".replicates_per_s", "1/s"),
                         (".gflop", "GFLOP"), (".mb_moved", "MB"),
                         (".bytes_out", "bytes"), (".overhead_frac", "ratio"),
                         ("_mb", "MB"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def job_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("MVSKEW_OUTPUT_DIR", None)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


@dataclass
class JobRun:
    job: Job
    out: Path
    latency: float
    returncode: int
    stderr: str


def run_pass(jobs: tuple[Job, ...], csv: Path, passdir: Path, seed: int, env,
             traced: bool = False, reference: bool = False
             ) -> tuple[list[JobRun], list[float]]:
    """One pass over a job script.

    Returns the job runs and, with ``reference``, the times of the reference
    task run before each job and after the last one.
    """
    passdir.mkdir(parents=True, exist_ok=True)
    runs, references = [], []
    for job in jobs:
        if reference:
            references.append(timed(REFERENCE, env))
        out = passdir / job.kind
        argv = [job.args[0], str(csv), *job.args[1:],
                "--output-dir", str(out), "--precision", "15"]
        if job.args[0] == "boot":
            argv += ["--seed", str(seed)]
        if traced:
            prefix = [str(HERE / "tracejob.py"), str(passdir / f"{job.kind}.spans")]
        else:
            prefix = ["-c", LAUNCH]
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *prefix, *argv], env=env, cwd=passdir,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        runs.append(JobRun(job, out, time.perf_counter() - t0, proc.returncode,
                           proc.stderr.decode(errors="replace")[-400:]))
    if reference:
        references.append(timed(REFERENCE, env))
    return runs, references


def _files(run: JobRun) -> list[Path]:
    """The output files of a job run; none if it made no output directory."""
    return sorted(run.out.iterdir()) if run.out.is_dir() else []


def _digest(run: JobRun) -> str:
    h = hashlib.sha256()
    for path in _files(run):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Tally:
    """Checks job outputs against the oracle and counts attempts and failures.

    Outputs byte-identical to ones already verified for the same job kind
    pass without a second oracle check.
    """

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.verified: dict[str, set[str]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, runs: list[JobRun]) -> None:
        for run in runs:
            self.attempted += 1
            if run.returncode != 0:
                fails = [f"exit status {run.returncode}: {run.stderr.strip()}"]
            else:
                digest = _digest(run)
                known = self.verified.setdefault(run.job.kind, set())
                fails = [] if digest in known else self.oracle.check(
                    run.job.kind, run.out, run.job.args)
                if not fails:
                    known.add(digest)
            if fails:
                self.failed += 1
                print(f"FAILED {run.job.kind}: " + "; ".join(fails), file=sys.stderr)


def timed(argv: list[str], env) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True)
    return time.perf_counter() - t0


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def import_breakdown(env) -> dict[str, float]:
    """Import seconds of mvskew, scipy and numpy from -X importtime.

    A package's time is the cumulative time of its modules imported from
    outside the package. numpy modules first imported by scipy count as
    scipy's, so numpy + scipy + mvskew's own modules add up to mvskew.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", *IMPORT[1:]],
                          env=env, check=True, capture_output=True, text=True)
    entries, stack = [], []
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        entry = {"cum": int(match[2]) / 1e6, "depth": len(match[3]),
                 "package": match[4].partition(".")[0], "parent": None}
        # -X importtime prints children before their parent, one level deeper
        while stack and stack[-1]["depth"] > entry["depth"]:
            stack.pop()["parent"] = entry
        stack.append(entry)
        entries.append(entry)

    def package_time(package: str, inside: tuple[str, ...]) -> float:
        total = 0.0
        for entry in entries:
            parent = entry["parent"]
            while parent is not None and parent["package"] not in inside:
                parent = parent["parent"]
            if entry["package"] == package and parent is None:
                total += entry["cum"]
        return total

    return {"import.mvskew_s": package_time("mvskew", ("mvskew",)),
            "import.scipy_s": package_time("scipy", ("scipy",)),
            "import.numpy_s": package_time("numpy", ("numpy", "scipy"))}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "nproc": NPROC,
        "blas_threads": PINNED_THREADS,
    }


def _number(value: float) -> float | int:
    """Counts print as integers; everything else with all its digits."""
    return int(value) if float(value).is_integer() else float(value)


def _median(values) -> float:
    return float(statistics.median(values))


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (1 - pct / 100) >= 10:
            value = float(np.percentile(samples, pct))
            return f"p{pct:g}={value:.6g}"
    return "no percentile has ten samples beyond it"


def more_passes(elapsed: list[float], seconds: float, min_passes: int) -> bool:
    """Whether another pass fits in the measuring time, by the mean pass so far."""
    if len(elapsed) < min_passes:
        return True
    return sum(elapsed) + statistics.fmean(elapsed) <= seconds


def measure(wl: Workload, csv: Path, work: Path, seed: int, seconds: float,
            tally: Tally, quick: bool) -> tuple[dict, list[str]]:
    """End-to-end metrics with tracing off.

    Each timing is scaled to reference speed by the mean of the reference
    task times just before and just after it; a metric is the median of its
    scaled samples.
    """
    env = job_env(PINNED_THREADS)
    timed(IMPORT, env)  # warm-up: writes the bytecode caches
    names = ["setup_s", "wall_s", *(f"{kind}_s" for kind in JOB_KINDS)]
    scaled = {name: [] for name in names}
    unscaled = {name: [] for name in names}
    elapsed, references = [], []
    while more_passes(elapsed, seconds, 1 if quick else MIN_PASSES):
        start = time.perf_counter()
        before = timed(REFERENCE, env)
        setup = timed(IMPORT, env)
        passdir = work / f"pass{len(elapsed)}"
        runs, refs = run_pass(wl.jobs, csv, passdir, seed, env, reference=True)
        elapsed.append(time.perf_counter() - start)
        refs = [before, *refs]
        references += refs
        times = [("setup_s", setup)] + [(f"{run.job.kind}_s", run.latency) for run in runs]
        for i, (name, value) in enumerate(times):
            unscaled[name].append(value)
            scaled[name].append(value * REFERENCE_SECONDS / statistics.fmean(refs[i:i + 2]))
        unscaled["wall_s"].append(sum(run.latency for run in runs))
        scaled["wall_s"].append(sum(scaled[name][-1] for name, _ in times[1:]))
        tally.check(runs)
        shutil.rmtree(passdir)
    metrics = {name: _median(values) for name, values in scaled.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    notes = [f"reference task: n={len(references)}, median {_median(references):.6g} s, "
             f"least {min(references):.6g} s (timings are scaled to "
             f"{REFERENCE_SECONDS:g} s for it)"]
    notes += [f"{name}: median of n={len(scaled[name])} scaled samples, unscaled median "
              f"{_median(unscaled[name]):.6g} s, {_tail(scaled[name])}" for name in names]
    return metrics, notes


def trace(wl: Workload, csv: Path, work: Path, seed: int, seconds: float,
          tally: Tally, quick: bool) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced passes, each job also run untraced beside
    its traced run; then one pass at nproc BLAS threads."""
    env = job_env(PINNED_THREADS)
    timed(IMPORT, env)  # warm-up: writes the bytecode caches
    imports = [import_breakdown(env) for _ in range(1 if quick else IMPORT_SAMPLES)]
    metrics = {name: _median(run[name] for run in imports) for name in imports[0]}
    elapsed, plain_s, traced_s, layers = [], 0.0, 0.0, []
    first_plain = None
    while more_passes(elapsed, seconds, 1):
        start = time.perf_counter()
        plaindir, tracedir = work / f"plain{len(elapsed)}", work / f"traced{len(elapsed)}"
        plain, traced = [], []
        # each job untraced and traced back to back, so both see the same host
        # speed, in alternating order
        for i, job in enumerate(wl.jobs):
            for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
                runs, _ = run_pass((job,), csv, tracedir if with_spans else plaindir,
                                   seed, env, traced=with_spans)
                (traced if with_spans else plain).extend(runs)
        elapsed.append(time.perf_counter() - start)
        plain_s += sum(run.latency for run in plain)
        traced_s += sum(run.latency for run in traced)
        tally.check(plain + traced)
        totals = Counter()
        for run in traced:
            totals += job_totals(read_spans(tracedir / f"{run.job.kind}.spans"))
        pass_metrics = layer_metrics(totals)
        pass_metrics["cli.bytes_out"] = sum(
            path.stat().st_size for run in traced for path in _files(run))
        layers.append(pass_metrics)
        shutil.rmtree(tracedir)
        if first_plain is None:
            first_plain = plain
        else:
            shutil.rmtree(plaindir)
    for name in layers[0]:
        metrics[name] = _median(run[name] for run in layers)

    # byte-identity of every output file between pinned and nproc BLAS threads
    runs, _ = run_pass(wl.jobs, csv, work / "nproc", seed, job_env(NPROC))
    tally.check(runs)
    identical, files, notes = 0, 0, []
    for ref, run in zip(first_plain, runs):
        same = [p.name for p in _files(ref)
                if (run.out / p.name).is_file()
                and p.read_bytes() == (run.out / p.name).read_bytes()]
        total = len(_files(ref))
        identical += len(same)
        files += total
        notes.append(f"thread-identical files, {ref.job.kind}: {len(same)} of {total}")
    metrics["cli.thread_identical_files"] = identical
    notes.append(f"cli.thread_identical_files: {identical} of {files} files "
                 f"({PINNED_THREADS} vs {NPROC} BLAS threads)")
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    notes.append(f"trace.overhead_frac: traced jobs took {traced_s:.6g} s against "
                 f"{plain_s:.6g} s untraced, over {len(elapsed)} pass(es)")
    notes.append("moments.third_moment.gflop and .mb_moved are computed "
                 "(2*n*d^3 flops and the n*d^2 pair array), not measured")
    return metrics, notes


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool,
                 quick: bool = False) -> tuple[dict, list[str]]:
    """Run one workload in a scratch directory; returns the result and report lines.

    ``quick`` allows a single pass and one -X importtime sample, for the smoke test.
    """
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch))
    try:
        csv = wl.input_file(ROOT, work, seed)
        tally = Tally(Oracle(csv, range(wl.d), iris=wl.n == 0))
        metrics, notes = (trace if traced else measure)(
            wl, csv, work, seed, seconds, tally, quick)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    notes.append(f"fail_frac: {tally.failed}/{tally.attempted} jobs = "
                 f"{tally.failed / tally.attempted:.6g} ratio")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": _number(value), "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    return result, notes


def smoke() -> int:
    """Every workload once on tiny inputs, both modes; checks metric names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in workloads(small=True).values():
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run_workload(wl, seed=1, seconds=0, traced=traced, quick=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{wl.name} {key}: printed {sorted(got.items())}, "
                                f"BENCHMARK.json lists {sorted(want.items())}")
            if not result["correct"]:
                problems.append(f"{wl.name} {key}: {result['failed']} of "
                                f"{result['attempted']} jobs failed")
            print(f"smoke {wl.name} trace={int(traced)}: "
                  f"{len(got)} metrics, {result['attempted']} jobs")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


def main() -> int:
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(table))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on tiny inputs and check "
                             "the printed metrics against BENCHMARK.json")
    args = parser.parse_args()
    missing = [p for p in (ROOT / "src" / "mvskew" / "cli.py", ROOT / "data" / "iris.csv")
               if not p.is_file()]
    if missing:
        print(f"perfbench: program files missing: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, notes = run_workload(table[args.workload], args.seed, args.seconds,
                                 bool(args.trace))
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
