"""Span tracing of `rqss` from outside the package.

`Tracer.install` wraps every public function of the layer modules and
rebinds the wrapper in every `rqss` namespace that holds the function, since
`rqss`, `rqss.protocol` and `rqss.cli` import names directly and patching
only the defining module would miss their calls.  `GaussianState`
constructions are counted through the class, by wrapping its
`__post_init__`.  `Tracer.remove` puts every original back.

A span is (id, parent id, name, start, end, key).  A job's spans are kept
in memory, reduced to per-layer values when the job ends, and the last
job's spans are written out when the run ends; a span's self time is its
duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("modes", "channel", "protocol", "gaussian", "cli")
FIGURES = ("T2", "nbar", "F2_23", "F2_12_squeezed")
ROOT_SPAN = 0

# (name, unit, better) of every per-layer value of one traced job, in report order.
JOB_METRICS = [
    ("modes.self_s", "s", "lower"),
    ("modes.fit_transition.calls", "count", "lower"),
    ("modes.bogoliubov_exact.self_s", "s", "lower"),
    ("modes.bogoliubov_exact.flops_computed", "flop", "lower"),
    ("modes.get_transition.calls", "count", "lower"),
    ("modes.cache.hit_ratio", "ratio", "higher"),
    ("modes.save_transition.self_s", "s", "lower"),
    ("modes.load_transition.self_s", "s", "lower"),
    ("modes.cache.bytes_written", "B", "lower"),
    ("modes.cache.bytes_read", "B", "lower"),
    ("modes.segment_bogoliubov.calls", "count", "lower"),
    ("modes.segment_bogoliubov.self_s", "s", "lower"),
    ("modes.segment_bogoliubov.distinct_ratio", "ratio", "higher"),
    ("modes.mode_sums.self_s", "s", "lower"),
    ("channel.self_s", "s", "lower"),
    ("channel.segment_channel.calls", "count", "lower"),
    ("channel.segment_channel.self_s", "s", "lower"),
    ("channel.segment_channel.distinct_ratio", "ratio", "higher"),
    ("channel.compose.calls", "count", "lower"),
    ("channel.channel_invariants.self_s", "s", "lower"),
    ("channel.cp_residual.self_s", "s", "lower"),
    ("channel.apply_channel.calls", "count", "lower"),
    ("protocol.self_s", "s", "lower"),
    ("protocol.fidelity_report.calls", "count", "lower"),
    ("protocol.simulate_fidelity.calls", "count", "lower"),
    ("protocol.transit_channel.calls", "count", "lower"),
    ("protocol.round_trip_channel.calls", "count", "lower"),
    ("protocol.channel_builds_per_report", "builds/report", "lower"),
    *[(f"protocol.figure_data.{name}.self_s", "s", "lower") for name in FIGURES],
    ("protocol.calibrate_decoder.self_s", "s", "lower"),
    ("gaussian.self_s", "s", "lower"),
    ("gaussian.GaussianState.constructions", "count", "lower"),
    ("gaussian.GaussianState.self_s", "s", "lower"),
    ("gaussian.apply_symplectic.calls", "count", "lower"),
    ("gaussian.homodyne_feedforward.self_s", "s", "lower"),
    ("gaussian.partial_trace.self_s", "s", "lower"),
    ("gaussian.fidelity_pure_mixed.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.output_bytes", "B", "lower"),
]
# The cache metrics again, of the fit load that set-up does in the traced
# process (`Workload.setup_fit`); they read 0 on a workload without one.
SETUP_METRICS = ("modes.get_transition.calls", "modes.cache.hit_ratio", "modes.load_transition.self_s",
                 "modes.cache.bytes_read")
METRICS = [
    *JOB_METRICS,
    *[(f"setup.{name}", unit, better) for name, unit, better in JOB_METRICS if name in SETUP_METRICS],
    ("import.rqss_s", "s", "lower"),
    ("import.scipy_integrate_s", "s", "lower"),
    ("import.scipy_optimize_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _bogoliubov_flops(bound) -> int:
    """Flops of the two dense overlap products, at both quadrature rules.

    Each rule of `panels * order` nodes forms two (N x Q) @ (Q x N)
    products, 2 N^2 Q flops each; the rule is evaluated at `panels` and at
    `2 * panels`.  Computed from the arguments, not counted by hardware.
    """
    n = bound.arguments["geometry"].n_max
    panels = bound.arguments["panels"] or max(16, 2 * n)
    order = bound.arguments["order"]
    return sum(2 * 2 * n * n * p * order for p in (panels, 2 * panels))


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = [ROOT_SPAN]
        self._ids = itertools.count(1)
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        spans, stack, ids, counters = self.spans, self._stack, self._ids, self.counters
        bind = name in (
            "modes.bogoliubov_exact",
            "modes.segment_bogoliubov",
            "modes.load_transition",
            "channel.segment_channel",
            "protocol.figure_data",
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name, key = name, None
            if bind:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if name == "modes.bogoliubov_exact":
                    counters["modes.bogoliubov_exact.flops_computed"] += _bogoliubov_flops(bound)
                elif name == "modes.segment_bogoliubov":
                    key = (a["fit"].n_max, float(a["u"]))
                elif name == "modes.load_transition":
                    counters["modes.cache.bytes_read"] += Path(a["path"]).stat().st_size
                elif name == "channel.segment_channel":
                    key = (a["bogo"].n_max, a["bogo"].u, a["k"])
                else:
                    span_name = f"protocol.figure_data.{a['name']}"
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, span_name, t0, t1, key))
            if name == "modes.save_transition":
                counters["modes.cache.bytes_written"] += Path(result).stat().st_size
            return result

        return wrapper

    def install(self, gaussian_state_cls):
        """Wrap the public functions of every layer in every `rqss` namespace."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"rqss.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [m for n, m in sys.modules.items() if n == "rqss" or n.startswith("rqss.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))
        original = gaussian_state_cls.__post_init__
        setattr(gaussian_state_cls, "__post_init__", self._wrap("gaussian.GaussianState", original))
        self._patches.append((gaussian_state_cls, "__post_init__", original))

    def remove(self):
        for target, attr, obj in reversed(self._patches):
            setattr(target, attr, obj)
        self._patches.clear()

    # -- per-job bookkeeping --------------------------------------------

    def mark(self):
        """Start of a job: drop the previous job's spans, snapshot the counters."""
        self.spans.clear()
        return Counter(self.counters)

    def job_metrics(self, mark, output_bytes: int) -> dict:
        """Per-layer values of the spans and counters recorded since `mark`."""
        spans = self.spans
        counters = self.counters - mark
        child_time = defaultdict(float)
        for sid, parent, name, t0, t1, key in spans:
            child_time[parent] += t1 - t0
        calls, self_s, keys = Counter(), defaultdict(float), defaultdict(set)
        parent_of, name_of = {}, {}
        for sid, parent, name, t0, t1, key in spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[sid]
            if key is not None:
                keys[name].add(key)
            parent_of[sid], name_of[sid] = parent, name

        def ratio(num, den):
            return num / den if den else 0.0

        def inside_report(sid):
            while sid != ROOT_SPAN:
                sid = parent_of.get(sid, ROOT_SPAN)
                if name_of.get(sid) == "protocol.fidelity_report":
                    return True
            return False

        loaded_in = {parent for sid, parent, name, *_ in spans if name == "modes.load_transition"}
        hits = sum(1 for sid, _, name, *_ in spans if name == "modes.get_transition" and sid in loaded_in)
        builds = sum(
            1
            for sid, _, name, *_ in spans
            if name in ("protocol.transit_channel", "protocol.round_trip_channel") and inside_report(sid)
        )
        out = {}
        for metric, _, _ in JOB_METRICS:
            layer, _, rest = metric.partition(".")
            if rest == "self_s":
                out[metric] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            elif rest.endswith(".calls"):
                out[metric] = calls[f"{layer}.{rest[: -len('.calls')]}"]
            elif rest.endswith(".self_s"):
                out[metric] = self_s[f"{layer}.{rest[: -len('.self_s')]}"]
            elif rest.endswith(".distinct_ratio"):
                fn = f"{layer}.{rest[: -len('.distinct_ratio')]}"
                out[metric] = ratio(len(keys[fn]), calls[fn])
        out["modes.cache.hit_ratio"] = ratio(hits, calls["modes.get_transition"])
        out["modes.bogoliubov_exact.flops_computed"] = counters["modes.bogoliubov_exact.flops_computed"]
        out["modes.cache.bytes_written"] = counters["modes.cache.bytes_written"]
        out["modes.cache.bytes_read"] = counters["modes.cache.bytes_read"]
        out["protocol.channel_builds_per_report"] = ratio(builds, calls["protocol.fidelity_report"])
        out["gaussian.GaussianState.constructions"] = calls["gaussian.GaussianState"]
        out["cli.output_bytes"] = output_bytes
        return out

    def write_spans(self, path: Path):
        """Write every span as one JSON array per line: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, _ in self.spans:
                fh.write(json.dumps([sid, parent, name, round(t0, 9), round(t1, 9)]) + "\n")


def median_metrics(per_job: list) -> dict:
    """Median over jobs of each per-job value; counts repeat, so their median is the count."""
    return {name: statistics.median(job[name] for job in per_job) for name in per_job[0]}


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds from `python -X importtime -c 'import rqss.cli'`.

    `import.rqss_s` sums the top-level `rqss*` entries (the package and then
    `rqss.cli`); a module that is never imported reads 0.
    """
    out = {"import.rqss_s": 0.0, "import.scipy_integrate_s": 0.0, "import.scipy_optimize_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:") :].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1]) * 1e-6
        package = parts[2].rstrip()
        name = package.strip()
        if name.startswith("rqss") and package == " " + name:
            out["import.rqss_s"] += cumulative
        elif name == "scipy.integrate":
            out["import.scipy_integrate_s"] = cumulative
        elif name == "scipy.optimize":
            out["import.scipy_optimize_s"] = cumulative
    return out
