#!/usr/bin/env python3
"""rqss benchmark: one workload per run, end to end or traced by layer.

    python3 perfbench/run.py --workload figures|cutoff|fidelity|all \\
        [--seed N] [--seconds S] [--trace 0|1]

`--seconds` defaults to `run_seconds` in the checkout's BENCHMARK.json.

Run from any directory of a checkout; the package is imported from the
checkout's `src/` and every file the run writes goes under `.bench_work/`.
BLAS and OpenMP are pinned to one thread and the process (with its
children) to one CPU.  Times are wall times scaled to a nominal machine
speed by a probe timed around every operation (see speed.py); the raw wall
times are reported beside them.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
the line before it records the environment and the quartiles and sample
count of every metric, and standard error carries the same as a table.

With `--trace 0` the metrics are the end-to-end ones:

    setup_s      median time for a fresh interpreter to import rqss.cli (plus,
                 on figures and fidelity, to load the fit from the warm cache)
    job_s        median time of one workload job, set-up excluded
    op_ms.p50    percentiles over the job's operations of each one's median
    op_ms.p90    latency; an operation is a fidelity_report call on fidelity
                 and a CLI job on figures and cutoff
    peak_rss_mb  peak resident memory of the measuring process

Failed operations over attempted ones (`failed_frac`) is printed with them
and carried by `failed` and `attempted`.  With `--trace 1` half the time
runs untraced and half traced, and the metrics are the per-layer ones of
tracing.METRICS: those of the traced jobs, the `setup.` cache metrics of
a traced set-up fit load, the tracing overhead (traced minus untraced
job_s) and import times from `python -X importtime`.  The last traced
job's spans are written to `.bench_work/<workload>/spans.jsonl` when the
run ends.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = ("setup_s", "job_s", "op_ms.p50", "op_ms.p90", "peak_rss_mb")

# Prints the set-up time, then the probe time right after it (the second
# probe, past the first call's one-time costs).
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import rqss.cli
if sys.argv[1]:
    from rqss.modes import get_transition
    get_transition(n_max=20, cache_dir=sys.argv[1])
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import speed
print(seconds, [speed.probe() for _ in range(2)][-1])
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["RQSS_CACHE_DIR"] = str(WORK / "default_cache")
    return env


def run_child(args: list) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def measure_setup(speed, cache_arg: str) -> tuple:
    """Import (and fit-load) times of fresh interpreters, raw and scaled.

    The scale uses the probe in this process just before the child starts
    and the probe in the child just after its set-up.  The first
    interpreter only warms the bytecode cache.
    """
    raw, scaled = [], []
    args = ["-c", SETUP_CODE, cache_arg, str(HERE)]
    run_child(args)
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        seconds, after = map(float, run_child(args).stdout.split())
        raw.append(seconds)
        scaled.append(seconds * speed.NOMINAL_PROBE_S / (0.5 * (before + after)))
    return raw, scaled


def measure_imports(tracing) -> dict:
    runs = [
        tracing.parse_importtime(run_child(["-X", "importtime", "-c", "import rqss.cli"]).stderr)
        for _ in range(IMPORTTIME_REPEATS)
    ]
    return tracing.median_metrics(runs)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(values: list, pct: int) -> float:
    """Percentile of a population (every operation of the job), by interpolation."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def environment(workload) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed_used": workload.seeded,
        "seed_note": None
        if workload.seeded
        else "paper's fixed grids: the workload takes no random input, so the seed is ignored",
    }


class Loop:
    """Runs jobs back to back and keeps per-job and per-operation results."""

    def __init__(self):
        self.job_s, self.wall_job_s = [], []
        self.op_s = defaultdict(list)
        self.attempted = self.failed = 0
        self.errors = []

    def record(self, ops: list):
        self.job_s.append(sum(op.nominal_s for op in ops))
        self.wall_job_s.append(sum(op.seconds for op in ops))
        for op in ops:
            # op_ms counts report calls on fidelity, not the one calibration per job.
            if op.label != "calibrate_decoder":
                self.op_s[op.label].append(op.nominal_s)
        self.attempted += len(ops)
        bad = [op for op in ops if op.error]
        self.failed += len(bad)
        self.errors.extend(f"{op.label}: {op.error}" for op in bad[:3])

    def op_medians_ms(self) -> list:
        """Each operation's median time over the jobs, in ms."""
        return [1e3 * statistics.median(times) for times in self.op_s.values()]

    def for_seconds(self, seconds: float, job):
        t0 = time.perf_counter()
        while not self.job_s or time.perf_counter() - t0 < seconds:
            self.record(job())


def traced_job(tracer, wl, rqss):
    """One job with the tracer installed; (ops, per-layer values of the job).

    Self times are scaled like the job's time, by its operations' mean
    probe factor, so that they add up to `job_s`.
    """
    mark = tracer.mark()
    tracer.install(rqss.gaussian.GaussianState)
    try:
        ops = wl.job()
    finally:
        tracer.remove()
    values = tracer.job_metrics(mark, sum(op.output_bytes for op in ops))
    scale = sum(op.nominal_s for op in ops) / sum(op.seconds for op in ops)
    return ops, {name: v * scale if name.endswith("self_s") else v for name, v in values.items()}


def traced_setup(tracer, wl, rqss) -> dict:
    """The `setup.` metrics of one set-up fit load with the tracer installed.

    Self times are scaled by the load's probe factor.
    """
    from tracing import SETUP_METRICS

    mark = tracer.mark()
    tracer.install(rqss.gaussian.GaussianState)
    try:
        t = wl.clock.time(wl.setup_fit)
    finally:
        tracer.remove()
    if t.error is not None:
        raise t.error
    values = tracer.job_metrics(mark, 0)
    return {
        f"setup.{name}": values[name] * t.scale if name.endswith("self_s") else values[name]
        for name in SETUP_METRICS
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import rqss
    import rqss.cli  # noqa: F401  (binds rqss.cli on the package)
    import speed
    import tracing
    import workloads

    if Path(rqss.__file__).resolve().parent != SRC / "rqss":
        print(f"error: imported rqss from {rqss.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = WORK / workload_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[workload_name](rqss, work, seed)
    wl.setup_fit()  # fills the cache of a warm-cache workload
    wl.prepare()
    wl.job()  # warm-up: lazy imports and first-call costs, not measured

    plain = Loop()
    summary = {}
    if not trace:
        wall_setup, setup = measure_setup(speed, str(wl.cache) if wl.warm_cache else "")
        plain.for_seconds(seconds, wl.job)
        op_ms = plain.op_medians_ms()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows = {  # name: (unit, q1, median, q3, sample count)
            "setup_s": ("s", *quartiles(setup), len(setup)),
            "job_s": ("s", *quartiles(plain.job_s), len(plain.job_s)),
            "op_ms.p50": ("ms", *quartiles(op_ms), len(op_ms)),
            "op_ms.p90": ("ms", None, percentile(op_ms, 90), None, len(op_ms)),
            "peak_rss_mb": ("MB", None, rss_mb, None, 1),
            "wall.setup_s": ("s", *quartiles(wall_setup), len(wall_setup)),
            "wall.job_s": ("s", *quartiles(plain.wall_job_s), len(plain.wall_job_s)),
        }
        for name, (unit, q1, med, q3, n) in rows.items():
            summary[name] = {"median": med, "q1": q1, "q3": q3, "n": n, "unit": unit}
        metrics = {name: {"value": summary[name]["median"], "unit": summary[name]["unit"]} for name in END_TO_END}
        loops = [plain]
    else:
        tracer = tracing.Tracer()
        traced = Loop()
        per_job = []

        def job():
            ops, values = traced_job(tracer, wl, rqss)
            per_job.append(values)
            return ops

        setup = tracing.median_metrics([traced_setup(tracer, wl, rqss) for _ in range(SETUP_REPEATS)])
        plain.for_seconds(seconds / 2, wl.job)
        traced.for_seconds(seconds / 2, job)
        layer = tracing.median_metrics(per_job)
        layer.update(setup)
        layer.update(measure_imports(tracing))
        layer["trace.overhead_s"] = statistics.median(traced.job_s) - statistics.median(plain.job_s)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in tracing.METRICS}
        for name, unit, _ in tracing.METRICS:
            summary[name] = {"median": layer[name], "n": len(per_job), "unit": unit}
        summary["traced_job_s"] = {"median": statistics.median(traced.job_s), "n": len(traced.job_s), "unit": "s"}
        summary["untraced_job_s"] = {"median": statistics.median(plain.job_s), "n": len(plain.job_s), "unit": "s"}
        tracer.write_spans(work / "spans.jsonl")
        loops = [plain, traced]

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    errors = [e for loop in loops for e in loop.errors]
    summary["failed_frac"] = {"median": failed / attempted, "n": attempted, "unit": "1"}
    for line in errors[:10]:
        print(f"off reference: {line}", file=sys.stderr)
    print(f"{'metric':44s} {'median':>14s} {'q1':>12s} {'q3':>12s} {'n':>6s}  unit", file=sys.stderr)
    for name, row in summary.items():
        q1, q3 = row.get("q1"), row.get("q3")
        print(
            f"{name:44s} {row['median']:14.6g} {'' if q1 is None else f'{q1:.6g}':>12s}"
            f" {'' if q3 is None else f'{q3:.6g}':>12s} {row['n']:6d}  {row['unit']}",
            file=sys.stderr,
        )
    detail = {"workload": workload_name, "seed": seed, "trace": int(trace), "environment": environment(wl)}
    detail["summary"] = summary
    print(json.dumps(detail))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, allow_nan=False))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own interpreter; a final line with every workload's result."""
    results = {}
    for name in ("figures", "cutoff", "fidelity"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(f"== {name}\n{proc.stderr}")
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["figures", "cutoff", "fidelity", "all"])
    parser.add_argument("--seed", type=int, default=0)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds, help="measuring time; default: run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rqss" / "__init__.py").is_file():
        print(f"error: no rqss source tree at {SRC / 'rqss'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    # Probe and operations must share a core for the probe to see its speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
