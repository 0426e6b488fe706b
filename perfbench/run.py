"""possem benchmark runner: one workload, one client, closed loop.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 28 --trace 0

A single process builds the workload's seeded job list and runs it through
possem's public API, one job at a time, in whole passes: at least three, and
more while another pass fits in ``--seconds``.  Each job's latency is its
best over the passes (min-of-N).  A fixed reference kernel that calls no
possem code runs between jobs and is timed the same way; time metrics are
scaled by its time, to the reference speed, so that the shared machine's
drift in speed between runs cancels.  Every job's output is checked outside the timed region.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` the process
times half its budget untraced and half traced, runs the README's CLI
commands once, and reports the per-layer metrics.  Metric names and units
come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()

#: BLAS threads, fixed for every run: one thread is the plain baseline and
#: avoids OpenBLAS's multi-thread first-call stall.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; set-up time is the median.
SETUP_REPEATS = 3
#: Fewest timed passes per run: each job's latency is its best of N passes.
MIN_PASSES = 3
#: Seed for confirmation runs of a claimed gain (choosing-metrics 6.3).
CONFIRMATION_SEED = 9001
#: Time of one reference_kernel call at the reference speed, about what a
#: 2-core x86-64 VM measured.  Time metrics are scaled by this over the
#: run's own kernel time: the kernel runs at fixed slots of the job list,
#: and like a job it counts its best over the passes; the run's kernel time
#: is the median of these per-slot bests.
REFERENCE_KERNEL_S = 6e-3
#: Jobs between two calls of the reference kernel.
KERNEL_EVERY = 8

#: The README's command lines, run once each in the traced run.
README_COMMANDS = (
    ["catalog"],
    ["decouple", "--catalog", "ex1_3", "--grid", "32"],
    ["decouple", "--catalog", "witness_W", "--grid", "32"],
    ["positivity", "--catalog", "scalar_heat", "--grid", "16", "--times", "0.01", "0.1", "1"],
    ["check-elliptic", "--catalog", "ex5_5"],
    ["probe", "--catalog", "ex1_3", "--point", "0.5", "0.5", "--kl", "1", "2"],
    ["witness", "--catalog", "rand_coupled(3)"],
    ["assemble", "--catalog", "witness_W", "--grid", "8", "--dump-config"],
    ["analyze", "--catalog", "ex1_3"],
    ["selftest-tents"],
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fresh_possem():
    """Import possem (and its CLI) from this checkout's sources, dropping any
    copy loaded by an earlier set-up so that each set-up pays the import."""
    for name in [n for n in sys.modules if n == "possem" or n.startswith("possem.")]:
        del sys.modules[name]
    possem = importlib.import_module("possem")
    importlib.import_module("possem.cli")
    if SRC not in Path(possem.__file__).resolve().parents:
        fail(f"possem imported from {possem.__file__}, not from {SRC}")
    return possem


def env_record(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "seed": seed, "confirmation_seed": CONFIRMATION_SEED}


class Outcomes:
    """Attempted and failed jobs; a failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = []            # (job name, reason, known defect or None)

    def record(self, name, reason, known_defect=None):
        self.attempted += 1
        if reason is not None:
            self.failed.append((name, reason, known_defect))

    @property
    def correct(self):
        """True when every failure is a known defect of the code under test."""
        return all(known for _, _, known in self.failed)


def run_job(job, outcomes, tracer=None):
    """Run one job and check it; return its latency in seconds."""
    if tracer is not None:
        tracer.enabled = True
    start = time.perf_counter()
    try:
        out, error = job.run(), None
    except Exception as exc:            # a raising job is a failed job
        out, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
        tracer.fold()
    if error is None:
        try:
            error = job.check(out)
        except Exception as exc:        # an output the check cannot read is wrong
            error = f"check raised {type(exc).__name__}: {exc}"
    outcomes.record(job.name, error, job.known_defect if error else None)
    return elapsed


_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((6, 6))
_KERNEL_DENSE = np.random.default_rng(1).standard_normal((96, 96))


def reference_kernel():
    """Fixed work that calls no possem code: a pure-Python loop, small numpy
    calls and dense BLAS products, the kinds of work possem's jobs spend
    their time in.
    Its best time over a run says how fast the shared machine ran then."""
    start = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    x = np.ones(6)
    for i in range(600):
        y = _KERNEL_MATRIX @ x
        acc += float(np.abs(y).max()) + float(np.linalg.norm(_KERNEL_MATRIX[i % 6]))
    for _ in range(10):
        acc += float((_KERNEL_DENSE @ _KERNEL_DENSE)[0, 0])
    return time.perf_counter() - start


def run_passes(jobs, budget_s, outcomes, tracer=None):
    """Whole passes over the job list, at least MIN_PASSES of them and more
    while another pass, checks included, still fits the budget, with the
    reference kernel run before every KERNEL_EVERY-th job.  Returns each
    job's best latency over the passes (min-of-N, in job-list order), the
    passes' wall times (sum of job latencies, checks excluded), the kernel's
    best time over the passes at each of its slots in the list, and the
    peak resident memory in MB at the end of the first pass: later passes
    repeat the same jobs and add only heap fragmentation, which would tie
    the figure to the number of passes."""
    best, walls = [math.inf] * len(jobs), []
    kernel = [math.inf] * len(range(0, len(jobs), KERNEL_EVERY))    # best per slot
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        lat = []
        for i, job in enumerate(jobs):
            if i % KERNEL_EVERY == 0:
                slot = i // KERNEL_EVERY
                kernel[slot] = min(kernel[slot], reference_kernel())
            lat.append(run_job(job, outcomes, tracer))
        best = [min(b, x) for b, x in zip(best, lat)]
        walls.append(sum(lat))
        if len(walls) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if len(walls) >= MIN_PASSES and now - start + (now - pass_start) > budget_s:
            return best, walls, kernel, peak_mb


def setup(workload, seed):
    """Import possem, build the seeded jobs and warm up one job per kind."""
    possem = fresh_possem()
    jobs, warm_up = workloads.build(workload, possem, seed)
    scratch = Outcomes()
    for job in warm_up:
        run_job(job, scratch)
    return possem, jobs


def run_cli(possem, outcomes):
    """Each README command once, in-process; seconds per subcommand."""
    cli = importlib.import_module("possem.cli")
    seconds = {}
    out_root = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for i, argv in enumerate(README_COMMANDS):
            out = out_root / str(i)
            out.mkdir()
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv + ["--json", "--out", str(out)])
            seconds[argv[0]] = seconds.get(argv[0], 0.0) + time.perf_counter() - start
            reason = None if code == 0 else f"exit code {code}"
            report = out / "report.json"
            if reason is None and report.is_file():
                decision = json.loads(report.read_text()).get("decision")
                expected = possem.catalog.get(argv[argv.index("--catalog") + 1]).expected \
                    if "--catalog" in argv else None
                if decision is not None and decision != expected:
                    reason = f"decision {decision}, catalog expects {expected}"
            outcomes.record("cli " + " ".join(argv), reason)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    return seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["decide", "probe", "propagate", "assemble"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "possem" / "__init__.py").is_file():
        fail(f"no possem sources under {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import_s = time.perf_counter() - T0     # numpy and scipy, imported above

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        possem, jobs = setup(args.workload, args.seed)
        setups.append(time.perf_counter() - start)
    gc.collect()

    outcomes = Outcomes()
    print(f"env: {json.dumps(env_record(args.seed))}")
    if args.trace:
        declared = spec["per_layer"]
        values = traced_metrics(possem, args, jobs, outcomes)
    else:
        declared = spec["end_to_end"]
        best, walls, kernel, peak_mb = run_passes(jobs, args.seconds, outcomes)
        kernel_s = statistics.median(kernel)
        seconds = {
            "setup_s": import_s + statistics.median(setups),
            "jobs_min_s": sum(best),
            "job_min_ms.p50": 1e3 * statistics.median(best),
            "job_min_ms.p90": 1e3 * statistics.quantiles(best, n=10, method="inclusive")[8],
        }
        speed = REFERENCE_KERNEL_S / kernel_s
        values = {name: value * speed for name, value in seconds.items()}
        values["peak_rss_mb"] = peak_mb
        print(f"{args.workload}: {len(jobs)} jobs per pass, {len(walls)} passes of "
              f"{', '.join(f'{w:.3f}' for w in walls)} s, set-ups "
              f"{', '.join(f'{import_s + s:.3f}' for s in setups)} s")
        print(f"reference kernel: {1e3 * kernel_s:.3f} ms, times scaled by {speed:.4f}; "
              "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in seconds.items()))
    if set(values) != {m["name"] for m in declared}:
        fail(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
             "differ from BENCHMARK.json")

    for name, reason, known in outcomes.failed:
        print(f"FAILED {name}: {reason}" + (f" [known defect: {known}]" if known else ""))
    n_failed = len(outcomes.failed)
    print(f"failed_ratio: {n_failed / outcomes.attempted:.6g} "
          f"({n_failed} failed of {outcomes.attempted} attempted)")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": outcomes.correct, "attempted": outcomes.attempted,
                      "failed": n_failed, "metrics": metrics}))


def traced_metrics(possem, args, jobs, outcomes):
    """Per-layer calls, total and self time per pass, plus tracing overhead
    and the README commands' run times."""
    untraced, _, untraced_kernel, _ = run_passes(jobs, args.seconds / 2, outcomes)
    tracer = spans.Tracer()
    absent = spans.install(tracer)
    tracer.enabled = True
    jobs, _ = workloads.build(args.workload, possem, args.seed)     # traced set-up
    tracer.enabled = False
    setup_stats = tracer.take()
    traced, traced_walls, traced_kernel, _ = run_passes(jobs, args.seconds / 2, outcomes,
                                                          tracer)
    calls, total_s, self_s, extras = tracer.take()
    passes = len(traced_walls)
    setup_calls, setup_total, setup_self, _ = setup_stats

    values = {}
    for module, qualname, extra_keys, _ in spans.HOOKS:
        name = f"{module}.{qualname}"
        if module == "catalog":         # builds happen in set-up, once per set-up
            values[f"{name}.calls"] = float(setup_calls.get(name, 0))
            values[f"{name}.total_s"] = setup_total.get(name, 0.0)
            values[f"{name}.self_s"] = setup_self.get(name, 0.0)
        else:
            values[f"{name}.calls"] = calls.get(name, 0) / passes
            values[f"{name}.total_s"] = total_s.get(name, 0.0) / passes
            values[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
        for key in extra_keys:
            full = f"{name}.{key}"
            values[full] = extras.get(full, 0.0) / (1 if full in spans.MAX_EXTRAS else passes)
    for sub, seconds in run_cli(possem, outcomes).items():
        values[f"cli.{sub}.s"] = seconds
    values["trace.overhead_ratio"] = (
        (sum(traced) / statistics.median(traced_kernel))
        / (sum(untraced) / statistics.median(untraced_kernel)) - 1.0)
    if absent:
        print(f"absent hooks: {', '.join(absent)}")
    print(f"{args.workload}: {len(jobs)} jobs per pass, {passes} traced passes")
    return values


if __name__ == "__main__":
    main()
