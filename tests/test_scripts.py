"""The reproduction script: one output subdirectory and one manifest per job."""

import hashlib
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_csv_is_listed_in_its_directory_manifest(cache_dir, fit20, tmp_path, capsys):
    out = tmp_path / "figures"
    argv = ["--out", str(out), "--nmax", "20", "--cache-dir", str(cache_dir), "--grid", "0.25:0.75:0.25"]
    assert _load_script().main(argv) == 0
    csvs = sorted(out.rglob("*.csv"))
    assert len(csvs) == 7
    for path in csvs:
        listed = json.loads((path.parent / "manifest.json").read_text())["outputs"]
        assert listed[path.name] == hashlib.sha256(path.read_bytes()).hexdigest(), path
