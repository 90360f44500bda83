#!/usr/bin/env python3
"""Regenerate the CSV data behind all summary figures.

Thin wrapper over the `rqss` CLI: runs `figure-data --figure all` on the
standard 63-point grid (u = 1/64 to 63/64), then the invariants sweep and
both fidelity cross-check tables. Each job writes into its own subdirectory
of --out (`figure-data/`, `invariants/`, `fidelity-12/`, `fidelity-23/`), so
each subdirectory's `manifest.json` lists the hash of every CSV in it.
Outputs are deterministic; rerunning produces byte-identical files.
"""

import argparse
import sys
from pathlib import Path

from rqss.cli import main as rqss_main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figures", help="output directory (default: figures)")
    parser.add_argument("--nmax", type=int, default=20, help="mode cutoff (default: 20)")
    parser.add_argument("--cache-dir", default=None, help="coefficient cache directory")
    parser.add_argument("--grid", default="0.015625:0.984375:0.015625", help="u-grid start:stop:step")
    args = parser.parse_args(argv)

    cache = ["--cache-dir", args.cache_dir] if args.cache_dir else []
    jobs = {
        "figure-data": ["figure-data", "--figure", "all", "--grid", args.grid],
        "invariants": ["invariants", "--grid", "0.1:0.9:0.1"],
        "fidelity-12": ["fidelity", "--scenario", "12", "--grid", "0.1:0.9:0.1"],
        "fidelity-23": ["fidelity", "--scenario", "23", "--grid", "0.1:0.9:0.1"],
    }
    for subdir, job in jobs.items():
        job = job + ["--nmax", str(args.nmax), "--out", str(Path(args.out) / subdir)] + cache
        rc = rqss_main(job)
        if rc != 0:
            print(f"step failed with exit code {rc}: {' '.join(job)}", file=sys.stderr)
            return rc
    print(f"figure data written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
