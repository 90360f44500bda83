"""Output checks against reference values recorded at the benchmark's seed commit.

Outputs are compared by column or field name, never byte for byte, so a
column or field added later is ignored rather than counted as a failure.
A column or field that the reference has and the output lacks is a failure.

Tolerances (|got - ref| <= rtol * |ref| + atol, and NaN matches only NaN):

* every number: rtol 1e-9, atol 1e-12, which leaves room for a different
  summation order but not for a different result;
* numbers read off the three-point h-ladder extrapolation (`f2_extrapolated`,
  and `f2` where it is taken from that fit): rtol 1e-5.  The fit divides
  fidelity differences of order 1e-9 by h^2, so one rounding step in a
  fidelity moves it by up to ~5e-7 relative;
* `rel_gap`, the relative distance of that fit from the closed form: atol
  1e-5, for the same reason;
* `f_sim` of a displaced coherent secret: its displacement term
  ln F(0) - ln f_sim is compared with d^T Q d (see `displacement_term`) at
  rtol 1e-5, atol 1e-15.  The term is only 1e-13 to 5e-10 for |q|, |p| <= 1,
  far inside the rtol of f_sim itself, so it is checked on its own; each ln
  is exact to about one ulp (2e-16), which the atol covers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RTOL, ATOL = 1e-9, 1e-12
TOLERANCES = {"f2_extrapolated": (1e-5, ATOL), "rel_gap": (0.0, 1e-5)}
DISPLACEMENT_TOL = (1e-5, 1e-15)


def close(got, ref, rtol=RTOL, atol=ATOL) -> bool:
    got, ref = float(got), float(ref)
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    return abs(got - ref) <= rtol * abs(ref) + atol


def same(got, ref, tol=(RTOL, ATOL)) -> bool:
    """Numbers within `tol`, strings and booleans equal, containers elementwise."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(k in got and same(got[k], v, tol) for k, v in ref.items())
    if isinstance(ref, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(ref)
            and all(same(g, r, tol) for g, r in zip(got, ref))
        )
    if isinstance(ref, (bool, str)) or ref is None:
        return got == ref
    if isinstance(got, (bool, str)) or got is None:
        return False
    return close(got, ref, *tol)


def first_mismatch(got: dict, ref: dict, tolerances: dict = TOLERANCES) -> str | None:
    """The first reference field that `got` lacks or misses, else None."""
    for key, value in ref.items():
        if key not in got:
            return f"{key}: missing"
        tol = tolerances.get(key, (RTOL, ATOL))
        if same(got[key], value, tol):
            continue
        if isinstance(value, list) and isinstance(got[key], list) and len(got[key]) == len(value):
            i = next(i for i, (g, r) in enumerate(zip(got[key], value)) if not same(g, r, tol))
            return f"{key}[{i}]: got {got[key][i]!r}, reference {value[i]!r}"
        return f"{key}: got {got[key]!r}, reference {value!r}"
    return None


def read_csv_columns(path: Path) -> dict:
    """{column name: [float, ...]} of a CSV the CLI wrote."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}


def cli_outputs(out_dir: Path, ref: dict) -> str | None:
    """Check one CLI job's output directory against its reference entry.

    The manifest must name the job's command, carry the reference
    parameters and list every reference file with the file's actual hash;
    each file's columns must match the reference columns.
    """
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return "no manifest.json written"
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("command") != ref["command"]:
        return f"manifest command {manifest.get('command')!r}, reference {ref['command']!r}"
    bad = first_mismatch(manifest.get("parameters", {}), ref["parameters"])
    if bad:
        return f"manifest parameters {bad}"
    listed = manifest.get("outputs", {})
    for name, columns in ref["files"].items():
        path = out_dir / name
        if name not in listed:
            return f"{name} missing from manifest"
        if hashlib.sha256(path.read_bytes()).hexdigest() != listed[name]:
            return f"{name} does not match its manifest hash"
        got = read_csv_columns(path)
        bad = first_mismatch(got, columns)
        if bad:
            return f"{name} column {bad}"
    return None


def output_bytes(out_dir: Path) -> int:
    """Bytes of the files a CLI job wrote: its manifest and the files it lists."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return 0
    listed = json.loads(manifest_path.read_text()).get("outputs", {})
    return manifest_path.stat().st_size + sum((out_dir / name).stat().st_size for name in listed)


def displacement_term(basis: list, q: float, p: float) -> float:
    """d^T Q d for a coherent secret at d = (q, p), from four reference fidelities.

    Every step of the pipeline is affine in the secret's mean and leaves the
    covariance alone, so ln F(d) = ln F(0) - d^T Q d exactly.  `basis` holds
    F at d = (0,0), (1,0), (0,1), (1,1), which fixes Q.
    """
    f00, f10, f01, f11 = basis
    q11 = math.log(f00) - math.log(f10)
    q22 = math.log(f00) - math.log(f01)
    q12 = 0.5 * (math.log(f00) - math.log(f11) - q11 - q22)
    return q11 * q * q + 2.0 * q12 * q * p + q22 * p * p


def report(got: dict, ref: dict) -> str | None:
    """Check one fidelity report's fields against the reference report."""
    tolerances = TOLERANCES
    if ref["f2"] == ref["f2_extrapolated"]:  # f2 read off the ladder fit
        tolerances = {**TOLERANCES, "f2": TOLERANCES["f2_extrapolated"]}
    return first_mismatch(got, ref, tolerances)


def displaced_report(got: dict, vacuum_ref: dict, basis: list, q: float, p: float) -> str | None:
    """Check a report for the coherent secret at (q, p).

    Displacement-independent fields must match the vacuum-secret reference;
    the displacement term of `f_sim` must match `displacement_term`.  The
    ladder fit moves with the displacement only at order h^6 |d|^2, far
    inside its tolerance.
    """
    expected = {key: value for key, value in vacuum_ref.items() if key != "f_sim"}
    expected["secret"] = f"coherent{(q, p)}"
    bad = report(got, expected)
    if bad:
        return bad
    f_sim = got.get("f_sim")
    if not isinstance(f_sim, (int, float)) or not f_sim > 0:
        return f"f_sim: got {f_sim!r}"
    term = math.log(basis[0]) - math.log(f_sim)
    want = displacement_term(basis, q, p)
    if not close(term, want, *DISPLACEMENT_TOL):
        return f"f_sim: displacement term ln F(0) - ln f_sim = {term!r}, d^T Q d = {want!r}"
    return None
