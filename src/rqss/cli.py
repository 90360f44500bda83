"""Command-line interface.

Subcommands::

    rqss bogo-check    residuals of the mode-map identities for the fitted coefficients
    rqss invariants    channel invariants (T2, nbar, rank) on a u-grid, CSV
    rqss fidelity      closed-form vs simulated fidelity for one scenario, CSV
    rqss calibrate     h = 0 decoder calibration, JSON
    rqss figure-data   CSV data behind the summary figures

Exit codes: 0 success, 1 usage or configuration error, 2 scientific breach
(tolerance violation, a negative occupation in the invariants or the nbar
figure, corrupted coefficient cache, a transition fit that fails its held-out
validation, failed calibration, a pipeline state that is not finite or
violates the uncertainty bound).  Table builders check the config and --grid
before any coefficient is fitted or loaded; only bogo-check loads a fit here.
Outputs are written without timestamps so repeated runs are byte-identical;
every output directory gets a manifest listing parameters and content hashes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .gaussian import UnphysicalStateError
from .modes import CorruptCacheError, FitValidationError, quadrature_error, segment_maps
from .protocol import (
    CalibrationError,
    FIGURES,
    ProtocolConfig,
    calibrate_decoder,
    fidelity_grid,
    fidelity_report,
    fidelity_table,
    figure_tables,
    invariant_table,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; this package reserves 2 for
    # scientific breaches, so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_outputs(out, args, argv, parameters: dict, files: dict) -> Path:
    """Write each {name: text} of `files` into the directory `out`, then its manifest; return the directory.

    The manifest lists the command, its argv and parameters, the sha256 of
    every file written and the versions that wrote them.
    """
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for name, text in files.items():
        data = text.encode()
        (out_dir / name).write_bytes(data)
        outputs[name] = hashlib.sha256(data).hexdigest()
    doc = {
        "command": args.command,
        "argv": list(argv),
        "parameters": parameters,
        "outputs": outputs,
        "versions": {
            "rqss": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    (out_dir / "manifest.json").write_bytes(_json_text(doc).encode())
    return out_dir


def _emit_table(args, argv, name: str, header, rows, parameters: dict, note: str = ""):
    """Write a CSV and its manifest under --out, or print the CSV to stdout."""
    if args.out is None:
        print(_csv_text(header, rows), end="")
        return
    out_dir = _write_outputs(args.out, args, argv, parameters, {name: _csv_text(header, rows)})
    print(f"wrote {out_dir / name} ({len(rows)} rows){note}")


# The most points a --grid may hold; it is checked before the grid is built.
_GRID_POINTS_MAX = 10**6


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not np.all(np.isfinite([start, stop, step])) or step <= 0 or stop < start:
        raise ValueError(f"bad grid {text!r}")
    steps = (stop - start) / step
    if not np.isfinite(steps):
        raise ValueError(f"bad grid {text!r}: the point count is not finite")
    count = round(steps) + 1
    if count > _GRID_POINTS_MAX:
        raise ValueError(f"bad grid {text!r}: {count} points, more than {_GRID_POINTS_MAX}")
    grid = np.round(start + np.arange(count) * step, 12)
    grid = grid[grid <= stop + 1e-12]
    if np.any(np.diff(grid) <= 0):
        raise ValueError(f"bad grid {text!r}: its points round to the same u at the grid's 1e-12 resolution")
    return grid.tolist()


def _out_dir(text: str) -> str:
    """An --out value: a directory name, not empty (an empty name would mean the working directory)."""
    if not text:
        raise argparse.ArgumentTypeError("output directory must not be empty")
    return text


def _tolerance(text: str) -> float:
    """A --tol value: a finite number, at least 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return tol


def _parse_secret(text: str):
    """Split `kind:p1,p2` into (kind, params); ProtocolConfig checks both."""
    kind, _, rest = text.partition(":")
    return kind, (tuple(float(x) for x in rest.split(",")) if rest else ())


def _load_config(args) -> ProtocolConfig:
    # File and flags are merged before construction, so validation sees the
    # final values (a file's k = 25 stands with --nmax 40).
    data = {}
    if args.config is not None:
        with open(args.config) as fh:
            data = json.load(fh)
    flags = (("nmax", "n_max"), ("s", "s"), ("k", "k"), ("h", "h"), ("u", "u"), ("cache_dir", "cache_dir"))
    overrides = {name: getattr(args, attr) for attr, name in flags if getattr(args, attr, None) is not None}
    if getattr(args, "secret", None) is not None:
        kind, params = _parse_secret(args.secret)
        overrides["secret"] = kind
        overrides["secret_params"] = params
    # The subcommand's own defaults sit below the file's values; a file that
    # is not a JSON object goes to from_dict as it is, to be rejected.
    defaults = getattr(args, "config_defaults", {})
    return ProtocolConfig.from_dict({**defaults, **data, **overrides} if isinstance(data, dict) else data)


# ---------------------------------------------------------------------------
# subcommands


# The largest |a1| or |b1| entry that bogo-check accepts where the parity
# rule says the entry vanishes (an even mode-number sum); --tol does not set it.
_PARITY_TOL = 1e-8


def _cmd_bogo_check(args, config: ProtocolConfig, argv) -> int:
    fit = config.transition()
    bogo = segment_maps(fit, config.u, range(1, config.n_max + 1))
    j_top = min(5, config.n_max)

    idx = np.arange(config.n_max)
    even = (idx[:, None] + idx[None, :]) % 2 == 0  # even mode-number sum
    parity = max(float(np.max(np.abs(fit.a1[even]))), float(np.max(np.abs(fit.b1[even]))))
    order2 = float(np.max(bogo.identity_residuals_order2()[:j_top]))
    evaluated = float(np.max(bogo.identity_residuals_at(config.h)[:j_top]))

    report = {
        "n_max": config.n_max,
        "u": bogo.u,
        "h": config.h,
        "modes_checked": j_top,
        "first_order_parity_max": parity,
        "identity_order2_max": order2,
        "identity_at_h_max": evaluated,
        "fit_validation": fit.validation,
        "quadrature_error": quadrature_error(config.n_max),
        "tolerance": args.tol,
        "parity_tolerance": _PARITY_TOL,
    }
    ok = order2 <= args.tol and evaluated <= args.tol and parity <= _PARITY_TOL
    report["pass"] = bool(ok)

    print(f"first-order parity residual : {parity:.3e}  (tol {_PARITY_TOL:.1e})")
    print(f"identity residual, order h^2: {order2:.3e}  (tol {args.tol:.1e})")
    print(f"identity residual at h={config.h:g}: {evaluated:.3e}  (tol {args.tol:.1e})")
    print(f"fit validation rel err      : {fit.validation['max_rel_err']:.3e}")
    print("PASS" if ok else "FAIL")

    if args.out is not None:
        parameters = {"n_max": config.n_max, "h": config.h}
        _write_outputs(args.out, args, argv, parameters, {"bogo_check.json": _json_text(report)})
    return 0 if ok else 2


def _physical(values) -> int:
    """Exit code of occupations and CP residuals: 2, with a FAIL line, if one lies below -1e-10 (a nan does not), else 0."""
    if any(value < -1e-10 for value in values):
        print("FAIL: negative occupation or CP violation detected", file=sys.stderr)
        return 2
    return 0


def _cmd_invariants(args, config: ProtocolConfig, argv) -> int:
    header, rows, worst_cp = invariant_table(config, _parse_grid(args.grid))
    parameters = {"grid": args.grid, "n_max": config.n_max, "h": config.h}
    _emit_table(args, argv, "invariants.csv", header, rows, parameters, f", min CP residual {worst_cp:.3e}")
    nbar = header.index("nbar")
    return _physical([worst_cp, *(row[nbar] for row in rows)])


def _cmd_fidelity(args, config: ProtocolConfig, argv) -> int:
    """One scenario's fidelity table, one row per u: the --grid in one `fidelity_grid` call, or the single --u."""
    if args.grid is not None:
        reports = fidelity_grid(args.scenario, config, _parse_grid(args.grid))
    else:
        reports = [fidelity_report(args.scenario, config)]
    header, rows = fidelity_table(reports)
    breach = any(gap > args.tol for *_, gap in rows)

    parameters = {
        "scenario": args.scenario,
        "s": config.s,
        "k": config.k,
        "h": config.h,
        "secret": config.secret,
        "secret_params": list(config.secret_params),
        "tol": args.tol,
    }
    _emit_table(args, argv, f"fidelity_{args.scenario}.csv", header, rows, parameters)
    if breach:
        print(f"FAIL: extrapolated f2 disagrees with closed form beyond rel {args.tol}", file=sys.stderr)
        return 2
    return 0


def _cmd_calibrate(args, config: ProtocolConfig, argv) -> int:
    cal = calibrate_decoder()
    print(f"gain    : {cal.gain:.12f}")
    print(f"squeeze : {cal.squeeze:.12f}")
    print(f"max |F - 1/(1+e^-s)| : {cal.max_deviation:.3e}")
    if args.out is not None:
        _write_outputs(args.out, args, argv, {}, {"calibration.json": _json_text(cal.to_json_dict())})
    return 0


def _cmd_figure_data(args, config: ProtocolConfig, argv) -> int:
    names = list(FIGURES) if args.figure == "all" else [args.figure]
    tables = figure_tables(names, config, _parse_grid(args.grid))
    files = {f"figure_{name}.csv": _csv_text(*table) for name, table in zip(names, tables)}
    parameters = {"figures": names, "grid": args.grid, "s": config.s, "k": config.k, "n_max": config.n_max}
    out_dir = _write_outputs(Path.cwd() if args.out is None else args.out, args, argv, parameters, files)
    print(f"wrote {len(files)} figure file(s) to {out_dir}")
    nbar_rows = tables[names.index("nbar")][1] if "nbar" in names else []
    return _physical([value for row in nbar_rows for value in row[1:]])


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON file with ProtocolConfig fields")
    sub.add_argument("--nmax", type=int, default=None, help="mode cutoff")
    sub.add_argument("--cache-dir", dest="cache_dir", default=None, help="coefficient cache directory")
    sub.add_argument("--out", type=_out_dir, default=None, help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `rqss` parser, built on the first call and shared by later ones; do not modify it."""
    parser = _Parser(prog="rqss", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"rqss {__version__}")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = subs.add_parser("bogo-check", help="mode-map identity residuals of the fitted coefficients")
    _add_common(p)
    p.add_argument("--h", type=float, default=None, help="acceleration for the evaluated identity (default 1e-3)")
    p.add_argument("--u", type=float, default=None, help="segment phase parameter (default 0.3)")
    tol_help = f"identity residual tolerance; the parity check keeps its fixed {_PARITY_TOL:g}"
    p.add_argument("--tol", type=_tolerance, default=1e-6, help=tol_help)
    p.set_defaults(handler=_cmd_bogo_check, config_defaults={"h": 1e-3, "u": 0.3})

    p = subs.add_parser("invariants", help="channel invariants on a u-grid (CSV: u,k,T2,nbar,r)")
    _add_common(p)
    p.add_argument("--grid", default="0.05:0.95:0.05", help="u-grid start:stop:step")
    p.add_argument("--h", type=float, default=None, help="acceleration for rank/CP checks")
    p.set_defaults(handler=_cmd_invariants)

    p = subs.add_parser("fidelity", help="closed-form vs simulated fidelity for one scenario")
    _add_common(p)
    p.add_argument("--scenario", required=True, choices=["12", "23", "13"])
    at = p.add_mutually_exclusive_group()
    at.add_argument("--grid", default=None, help="u-grid start:stop:step (default: single --u)")
    at.add_argument("--u", type=float, default=None)
    p.add_argument("--s", type=float, default=None, help="dealer squeezing")
    p.add_argument("--k", type=int, default=None, help="monitored mode")
    p.add_argument("--h", type=float, default=None, help="acceleration for the simulated point")
    p.add_argument("--secret", default=None, help="coherent:q,p or squeezed:r")
    p.add_argument("--tol", type=_tolerance, default=1e-3, help="closed-form vs extrapolation rel tolerance")
    p.set_defaults(handler=_cmd_fidelity)

    p = subs.add_parser("calibrate", help="h = 0 decoder calibration")
    _add_common(p)
    p.set_defaults(handler=_cmd_calibrate)

    p = subs.add_parser("figure-data", help="CSV data behind the summary figures")
    _add_common(p)
    p.add_argument("--figure", default="all", choices=list(FIGURES) + ["all"])
    p.add_argument("--grid", default="0.015625:0.984375:0.015625", help="u-grid start:stop:step")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(handler=_cmd_figure_data)

    return parser


def main(argv=None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(raw_argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    try:
        config = _load_config(args)
        return args.handler(args, config, raw_argv)
    except (CorruptCacheError, FitValidationError, CalibrationError, UnphysicalStateError) as exc:
        print(f"scientific breach: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
