"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They run real workload jobs (about 30 s in all, most of it in `cutoff`).
"""

import hashlib
import inspect
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import rqss  # noqa: E402
import rqss.cli  # noqa: E402,F401

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXACT = (".calls", ".distinct_ratio", ".hit_ratio", ".constructions", ".flops_computed", ".bytes_written",
         ".bytes_read", "channel_builds_per_report", ".output_bytes")


def make(name, tmp_path, seed=7):
    wl = workloads.WORKLOADS[name](rqss, tmp_path / name, seed)
    wl.setup_fit()
    wl.prepare()
    return wl


def outputs(wl, ops):
    """What a job produced: every file under the output directory, or the call results."""
    if isinstance(wl, workloads.CliWorkload):
        return {str(p.relative_to(wl.out)): p.read_bytes() for p in sorted(wl.out.rglob("*")) if p.is_file()}
    return [json.dumps(op.result, sort_keys=True) for op in ops]


def exact_counts(metrics):
    return {k: v for k, v in metrics.items() if k.endswith(EXACT)}


@pytest.mark.parametrize("name", ["figures", "fidelity", "cutoff"])
def test_traced_and_untraced_jobs_agree(name, tmp_path):
    wl = make(name, tmp_path)
    plain_ops = wl.job()
    plain = outputs(wl, plain_ops)
    tracer = tracing.Tracer()
    first_ops, first = run.traced_job(tracer, wl, rqss)
    assert outputs(wl, first_ops) == plain
    _, second = run.traced_job(tracer, wl, rqss)
    assert all(op.error is None for op in plain_ops + first_ops), [op.error for op in plain_ops if op.error]
    assert exact_counts(first) == exact_counts(second)
    assert first["modes.cache.hit_ratio"] == {"figures": 1.0, "fidelity": 0.0, "cutoff": 0.5}[name]


@pytest.mark.parametrize("name", ["figures", "fidelity", "cutoff"])
def test_traced_setup_sees_the_fit_load(name, tmp_path):
    wl = workloads.WORKLOADS[name](rqss, tmp_path / name, seed=7)
    wl.setup_fit()
    got = run.traced_setup(tracing.Tracer(), wl, rqss)
    assert set(got) == {f"setup.{m}" for m in tracing.SETUP_METRICS}
    if wl.warm_cache:
        assert got["setup.modes.get_transition.calls"] == 1
        assert got["setup.modes.cache.hit_ratio"] == 1.0
        assert got["setup.modes.load_transition.self_s"] > 0
        assert got["setup.modes.cache.bytes_read"] > 0
    else:  # cutoff loads no fit in set-up
        assert all(v == 0 for v in got.values())


def test_tracer_restores_every_binding(tmp_path):
    namespaces = [m for n, m in sys.modules.items() if n == "rqss" or n.startswith("rqss.")]
    before = [(m, dict(vars(m))) for m in namespaces]
    before_by_name = {m.__name__: names for m, names in before}
    post_init = rqss.gaussian.GaussianState.__post_init__
    tracer = tracing.Tracer()
    tracer.install(rqss.gaussian.GaussianState)
    # Names imported into other namespaces get the same wrapper as the defining module.
    assert rqss.protocol.segment_channel is rqss.channel.segment_channel is rqss.segment_channel
    assert rqss.cli.fidelity_report.__wrapped__ is before_by_name["rqss.protocol"]["fidelity_report"]
    tracer.remove()
    for module, names in before:
        for attr, obj in names.items():
            if inspect.isfunction(obj):
                assert getattr(module, attr) is obj, f"{module.__name__}.{attr} not restored"
    assert rqss.gaussian.GaussianState.__post_init__ is post_init


def test_off_reference_output_fails(tmp_path):
    wl = make("figures", tmp_path)
    ref = wl.reference["ops"]["invariants"]["files"]["invariants.csv"]
    ref["T2"] = [v * (1 + 1e-6) for v in ref["T2"]]
    ref["added_later"] = ref["T2"]
    got = {op.label: op.error for op in wl.job()}
    assert got["invariants"].startswith("invariants.csv column T2")
    assert got["fidelity 12"] is None


def test_dropped_displacement_fails(tmp_path):
    wl = make("fidelity", tmp_path)
    label, scenario, cfg, index = next(c for c in wl.configs() if c[3] == 1)
    entry = wl.reference["reports"][workloads.fidelity_key(scenario, cfg.s, cfg.u)]
    q, p = cfg.secret_params
    honest = rqss.protocol.fidelity_report(scenario, cfg, wl.fit).to_json_dict()
    assert check.displaced_report(honest, entry["vacuum"], entry["basis"], q, p) is None
    # A pipeline that ignored the secret's mean: the vacuum report under the displaced label.
    dropped = rqss.protocol.fidelity_report(scenario, replace(cfg, secret_params=(0.0, 0.0)), wl.fit).to_json_dict()
    dropped["secret"] = honest["secret"]
    assert check.displaced_report(dropped, entry["vacuum"], entry["basis"], q, p).startswith("f_sim")


def test_added_column_is_not_a_failure(tmp_path):
    wl = make("figures", tmp_path)
    label, argv, out_dir = next(job for job in wl.jobs() if job[0] == "invariants")
    assert wl.cli(label, argv, out_dir).error is None
    path = out_dir / "invariants.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0] + ",bound"] + [line + ",0.0" for line in lines[1:]]) + "\n")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    manifest["outputs"]["invariants.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    assert check.cli_outputs(out_dir, wl.reference["ops"][label]) is None


def test_importtime_parser():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        400 |     scipy.optimize",
            "import time:       200 |        700 |   scipy.integrate",
            "import time:       300 |       1000 | rqss",
            "import time:        50 |         60 | rqss.cli",
        ]
    )
    got = tracing.parse_importtime(stderr)
    assert got == pytest.approx(
        {"import.rqss_s": 1060e-6, "import.scipy_integrate_s": 700e-6, "import.scipy_optimize_s": 400e-6}
    )


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "figures", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == tracing.METRICS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
