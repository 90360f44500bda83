#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs one job of each workload with output checks off and writes
`perfbench/reference/<workload>.json`.  The committed files were recorded
at the commit that introduced the benchmark; regenerating them after a
change to `rqss` would hide exactly the regressions they exist to catch,
so do so only for a deliberate, reviewed change of results.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import rqss  # noqa: E402
import rqss.cli  # noqa: E402,F401

import check  # noqa: E402
import workloads  # noqa: E402

# Displacements that fix the quadratic form of ln F for coherent secrets.
BASIS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


def cli_reference(wl) -> dict:
    ops = {}
    for label, argv, out_dir in wl.jobs():
        op = wl.cli(label, argv, out_dir)
        if op.error:
            raise SystemExit(f"{label}: {op.error}")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        files = {name: check.read_csv_columns(out_dir / name) for name in manifest["outputs"]}
        ops[label] = {"command": manifest["command"], "parameters": manifest["parameters"], "files": files}
    return {"ops": ops}


def fidelity_reference(wl) -> dict:
    protocol = rqss.protocol
    wl.prepare()
    reports = {}
    for label, scenario, cfg, index in wl.configs():
        if index == 1:
            continue
        entry = reports.setdefault(workloads.fidelity_key(scenario, cfg.s, cfg.u), {})
        rep = protocol.fidelity_report(scenario, cfg, wl.fit).to_json_dict()
        if index == 0:
            entry["vacuum"] = rep
            entry["basis"] = [
                protocol.simulate_fidelity(scenario, replace(cfg, secret_params=d), wl.fit) for d in BASIS
            ]
        else:
            entry["squeezed"] = rep
    return {"reports": reports, "calibration": protocol.calibrate_decoder().to_json_dict()}


def main() -> int:
    work = ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(rqss, work / name, seed=0, check_outputs=False)
        if name == "cutoff":
            shutil.rmtree(wl.cache, ignore_errors=True)
        doc = fidelity_reference(wl) if name == "fidelity" else cli_reference(wl)
        (out / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out / name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
