#!/usr/bin/env python3
"""Regenerate the CSV data behind all summary figures into one directory.

Thin wrapper over the `rqss` CLI: runs `figure-data --figure all` on the
standard 63-point grid (u = 1/64 to 63/64), then the invariants sweep and
both fidelity cross-check tables. Outputs are deterministic; rerunning
produces byte-identical files.
"""

import argparse
import sys

from rqss.cli import main as rqss_main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figures", help="output directory (default: figures)")
    parser.add_argument("--nmax", type=int, default=20, help="mode cutoff (default: 20)")
    parser.add_argument("--cache-dir", default=None, help="coefficient cache directory")
    parser.add_argument("--grid", default="0.015625:0.984375:0.015625", help="u-grid start:stop:step")
    args = parser.parse_args(argv)

    common = ["--nmax", str(args.nmax), "--out", args.out]
    if args.cache_dir:
        common += ["--cache-dir", args.cache_dir]

    jobs = [
        ["figure-data", "--figure", "all", "--grid", args.grid] + common,
        ["invariants", "--grid", "0.1:0.9:0.1"] + common,
        ["fidelity", "--scenario", "12", "--grid", "0.1:0.9:0.1"] + common,
        ["fidelity", "--scenario", "23", "--grid", "0.1:0.9:0.1"] + common,
    ]
    for job in jobs:
        rc = rqss_main(job)
        if rc != 0:
            print(f"step failed with exit code {rc}: {' '.join(job)}", file=sys.stderr)
            return rc
    print(f"figure data written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
