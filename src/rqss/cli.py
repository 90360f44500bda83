"""Command-line interface.

Subcommands::

    rqss bogo-check    residuals of the mode-map identities for the fitted coefficients
    rqss invariants    channel invariants (T2, nbar, rank) on a u-grid, CSV
    rqss fidelity      closed-form vs simulated fidelity for one scenario, CSV
    rqss calibrate     h = 0 decoder calibration, JSON
    rqss figure-data   CSV data behind the summary figures

Exit codes: 0 success, 1 usage or configuration error, 2 scientific breach
(tolerance violation, corrupted coefficient cache, failed calibration).
Outputs are written without timestamps so repeated runs are byte-identical;
every output directory gets a manifest listing parameters and content hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .modes import CorruptCacheError, segment_bogoliubov
from .channel import channel_invariants, cp_residual, grid_channels
from .protocol import (
    CalibrationError,
    FIGURES,
    ProtocolConfig,
    calibrate_decoder,
    fidelity_report,
    figure_data,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; this package reserves 2 for
    # scientific breaches, so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(float(value))


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _output_dir(out) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", newline="\n")


def _write_manifest(out_dir: Path, command: str, argv, parameters: dict, outputs):
    doc = {
        "command": command,
        "argv": list(argv),
        "parameters": parameters,
        "outputs": {p.name: _sha256(p) for p in outputs},
        "versions": {
            "rqss": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    _write_json(out_dir / "manifest.json", doc)


def _emit_table(args, argv, name: str, header, rows, parameters: dict, note: str = ""):
    """Write a CSV and its manifest under --out, or print the CSV to stdout."""
    if not args.out:
        print(_csv_text(header, rows), end="")
        return
    out_dir = _output_dir(args.out)
    path = out_dir / name
    path.write_text(_csv_text(header, rows), newline="\n")
    _write_manifest(out_dir, args.command, argv, parameters, [path])
    print(f"wrote {path} ({len(rows)} rows){note}")


def _emit_json(args, argv, name: str, doc: dict, parameters: dict):
    """Write a JSON report and its manifest under --out, if given."""
    if args.out:
        out_dir = _output_dir(args.out)
        path = out_dir / name
        _write_json(path, doc)
        _write_manifest(out_dir, args.command, argv, parameters, [path])


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not np.all(np.isfinite([start, stop, step])) or step <= 0 or stop < start:
        raise ValueError(f"bad grid {text!r}")
    count = int(round((stop - start) / step))
    grid = [float(np.round(start + i * step, 12)) for i in range(count + 1)]
    return [u for u in grid if u <= stop + 1e-12]


def _parse_secret(text: str):
    """Split `kind:p1,p2` into (kind, params); ProtocolConfig checks both."""
    kind, _, rest = text.partition(":")
    return kind, (tuple(float(x) for x in rest.split(",")) if rest else ())


def _load_config(args) -> ProtocolConfig:
    # File and flags are merged before construction, so validation sees the
    # final values (a file's k = 25 stands with --nmax 40).
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    overrides = {}
    for attr, field_name in (
        ("nmax", "n_max"),
        ("length", "length"),
        ("s", "s"),
        ("k", "k"),
        ("h", "h"),
        ("u", "u"),
        ("cache_dir", "cache_dir"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[field_name] = value
    if getattr(args, "no_cache", False):
        overrides["use_cache"] = False
    if getattr(args, "secret", None):
        kind, params = _parse_secret(args.secret)
        overrides["secret"] = kind
        overrides["secret_params"] = params
    # A file that is not a JSON object goes to from_dict as it is, to be rejected.
    return ProtocolConfig.from_dict({**data, **overrides} if isinstance(data, dict) else data)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bogo_check(args, config: ProtocolConfig, argv) -> int:
    fit = config.transition()
    bogo = segment_bogoliubov(fit, args.u if args.u is not None else 0.3)
    j_top = min(5, config.n_max)

    idx = np.arange(config.n_max)
    even = (idx[:, None] + idx[None, :]) % 2 == 0  # even mode-number sum
    parity = max(float(np.max(np.abs(fit.a1[even]))), float(np.max(np.abs(fit.b1[even]))))
    order2 = float(np.max(bogo.identity_residuals_order2()[:j_top]))
    evaluated = float(np.max(bogo.identity_residuals_at(args.h)[:j_top]))

    report = {
        "n_max": config.n_max,
        "u": bogo.u,
        "h": args.h,
        "modes_checked": j_top,
        "first_order_parity_max": parity,
        "identity_order2_max": order2,
        "identity_at_h_max": evaluated,
        "fit_validation": fit.validation,
        "quadrature_error": fit.quadrature_error,
        "tolerance": args.tol,
        "parity_tolerance": 1e-8,
    }
    ok = order2 <= args.tol and evaluated <= args.tol and parity <= 1e-8
    report["pass"] = bool(ok)

    print(f"first-order parity residual : {parity:.3e}  (tol 1.0e-08)")
    print(f"identity residual, order h^2: {order2:.3e}  (tol {args.tol:.1e})")
    print(f"identity residual at h={args.h:g}: {evaluated:.3e}  (tol {args.tol:.1e})")
    print(f"fit validation rel err      : {fit.validation['max_rel_err']:.3e}")
    print("PASS" if ok else "FAIL")

    _emit_json(args, argv, "bogo_check.json", report, {"n_max": config.n_max, "h": args.h})
    return 0 if ok else 2


def _invariant_rows(fit, grid, h: float):
    """Rows (u, k, T2, nbar, rank) over the grid and modes 1..3, and the least CP residual at h."""
    modes = (1, 2, 3)
    chans = grid_channels(fit, grid, modes)  # a (u, k) stack
    inv = channel_invariants(chans)
    t2, nbar, rank = inv.t2.tolist(), inv.nbar.tolist(), inv.rank.tolist()
    rows = [[u, k, t2[i][j], nbar[i][j], rank[i][j]] for i, u in enumerate(grid) for j, k in enumerate(modes)]
    return rows, min([np.inf, *cp_residual(*chans.evaluate(h)).ravel().tolist()])


def _cmd_invariants(args, config: ProtocolConfig, argv) -> int:
    fit = config.transition()
    grid = _parse_grid(args.grid)
    header = ["u", "k", "T2", "nbar", "r"]
    rows, worst_cp = _invariant_rows(fit, grid, config.h)
    valid_nbar = [row[3] for row in rows if not np.isnan(row[3])]
    breach = (valid_nbar and min(valid_nbar) < -1e-10) or worst_cp < -1e-10

    parameters = {"grid": args.grid, "n_max": config.n_max, "h": config.h}
    _emit_table(args, argv, "invariants.csv", header, rows, parameters, f", min CP residual {worst_cp:.3e}")
    if breach:
        print("FAIL: negative occupation or CP violation detected", file=sys.stderr)
        return 2
    return 0


def _cmd_fidelity(args, config: ProtocolConfig, argv) -> int:
    fit = config.transition()
    grid = _parse_grid(args.grid) if args.grid else [config.u]
    header = ["u", "f0", "f2", "f2_extrapolated", "f_sim", "rel_gap"]
    rows = []
    breach = False
    for u in grid:
        cfg = replace(config, u=u)
        rep = fidelity_report(args.scenario, cfg, fit)
        have_both = not np.isnan(rep.f2_closed) and not np.isnan(rep.f2_extrapolated)
        if have_both and abs(rep.f2_closed) > 1e-9:
            gap = abs(rep.f2_extrapolated - rep.f2_closed) / abs(rep.f2_closed)
            if gap > args.tol:
                breach = True
        else:
            gap = float("nan")
        rows.append([u, rep.f0, rep.f2, rep.f2_extrapolated, rep.f_sim, gap])

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
    _emit_json(args, argv, "calibration.json", cal.to_json_dict(), {})
    return 0


def _cmd_figure_data(args, config: ProtocolConfig, argv) -> int:
    fit = config.transition()
    grid = _parse_grid(args.grid)
    names = list(FIGURES) if args.figure == "all" else [args.figure]
    out_dir = _output_dir(args.out or Path.cwd())
    paths = []
    for name in names:
        path = out_dir / f"figure_{name}.csv"
        path.write_text(_csv_text(*figure_data(name, fit, grid, config)), newline="\n")
        paths.append(path)
    _write_manifest(
        out_dir,
        args.command,
        argv,
        {"figures": names, "grid": args.grid, "s": config.s, "k": config.k, "n_max": config.n_max},
        paths,
    )
    print(f"wrote {len(paths)} figure file(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON file with ProtocolConfig fields")
    sub.add_argument("--nmax", type=int, default=None, help="mode cutoff")
    sub.add_argument("--length", type=float, default=None, help="cavity length")
    sub.add_argument("--cache-dir", dest="cache_dir", default=None, help="coefficient cache directory")
    sub.add_argument("--no-cache", dest="no_cache", action="store_true", help="recompute coefficients")
    sub.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rqss", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"rqss {__version__}")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = subs.add_parser("bogo-check", help="mode-map identity residuals of the fitted coefficients")
    _add_common(p)
    p.add_argument("--h", type=float, default=1e-3, help="acceleration for the evaluated identity")
    p.add_argument("--u", type=float, default=None, help="segment phase parameter (default 0.3)")
    p.add_argument("--tol", type=float, default=1e-6, help="identity residual tolerance")
    p.set_defaults(handler=_cmd_bogo_check)

    p = subs.add_parser("invariants", help="channel invariants on a u-grid (CSV: u,k,T2,nbar,r)")
    _add_common(p)
    p.add_argument("--grid", default="0.05:0.95:0.05", help="u-grid start:stop:step")
    p.add_argument("--h", type=float, default=None, help="acceleration for rank/CP checks")
    p.set_defaults(handler=_cmd_invariants)

    p = subs.add_parser("fidelity", help="closed-form vs simulated fidelity for one scenario")
    _add_common(p)
    p.add_argument("--scenario", required=True, choices=["12", "23", "13"])
    p.add_argument("--grid", default=None, help="u-grid start:stop:step (default: single --u)")
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--s", type=float, default=None, help="dealer squeezing")
    p.add_argument("--k", type=int, default=None, help="monitored mode")
    p.add_argument("--h", type=float, default=None, help="acceleration for the simulated point")
    p.add_argument("--secret", default=None, help="coherent:q,p or squeezed:r")
    p.add_argument("--tol", type=float, default=1e-3, help="closed-form vs extrapolation rel tolerance")
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
    except (CorruptCacheError, CalibrationError) as exc:
        print(f"scientific breach: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
