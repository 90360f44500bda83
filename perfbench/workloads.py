"""The three benchmark workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  An operation is one CLI job (`rqss.cli.main`)
or one public call, and it fails on an exception, a nonzero exit code or
output that is off the reference.  Only the operation itself is timed, by
the workload's `speed.Clock`; the output check that follows it is not.

The workloads reach `rqss` through module attributes at call time
(`rqss.cli.main`, `rqss.protocol.fidelity_report`), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import speed

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The paper's fixed grids.  `figures` and `cutoff` take no random input, so
# they ignore the seed: their job is to reproduce fixed published outputs.
FIGURE_GRID = "0.015625:0.984375:0.015625"  # 63 points, scripts/reproduce_figures.py
TABLE_GRID = "0.1:0.9:0.1"  # 9 points, the invariants and fidelity tables
CUTOFF_GRID = "0.03125:0.96875:0.03125"  # 31 points
CUTOFF_NMAX = (20, 40, 80, 160)
N_MAX = 20

SCENARIOS = ("12", "23", "13")
SQUEEZINGS = (0.5, 1.0, 2.0)
U_POINTS = tuple(round(0.1 * i, 12) for i in range(1, 10))
SQUEEZED_SECRET = ("squeezed", (0.25,))
# Displacements stay within |q|, |p| <= 1 so that the h-ladder fit of every
# report stays inside its perturbative window (no `nan` extrapolations).
DISPLACEMENT_RANGE = 1.0


@dataclass
class Op:
    label: str
    seconds: float  # wall time
    scale: float  # speed.NOMINAL_PROBE_S over the probe time around the call
    error: str | None = None
    output_bytes: int = 0
    result: object = None

    @property
    def nominal_s(self) -> float:
        return self.seconds * self.scale


def fidelity_key(scenario: str, s: float, u: float) -> str:
    return f"{scenario}|{s!r}|{u!r}"


class Workload:
    """Common state: the `rqss` package, a work directory and the reference."""

    name = ""
    seeded = False
    warm_cache = True

    def __init__(self, rqss, work: Path, seed: int, check_outputs: bool = True):
        self.rqss = rqss
        self.work = work
        self.cache = work / "cache"
        self.out = work / "out"
        self.reference = self.load_reference() if check_outputs else None
        self.clock = speed.Clock()

    @classmethod
    def load_reference(cls) -> dict:
        return json.loads((REFERENCE_DIR / f"{cls.name}.json").read_text())

    def setup_fit(self):
        """The fit that set-up loads from the filled cache, or None without a warm cache.

        The first call fills the cache: it fits and saves.
        """
        if self.warm_cache:
            return self.rqss.modes.get_transition(n_max=N_MAX, cache_dir=self.cache)
        return None

    def prepare(self):
        """Untimed set-up inside the measuring process."""


class CliWorkload(Workload):
    """A workload made of in-process CLI jobs, each checked after it returns."""

    def cli(self, label: str, argv: list, out_dir: Path) -> Op:
        manifest = out_dir / "manifest.json"
        if manifest.exists():
            manifest.unlink()
        stdout = io.StringIO()

        def call():
            with contextlib.redirect_stdout(stdout):
                return self.rqss.cli.main(argv)

        t = self.clock.time(call)
        if t.error is not None:
            return Op(label, t.seconds, t.scale, f"raised {t.error!r}")
        nbytes = len(stdout.getvalue().encode()) + check.output_bytes(out_dir)
        if t.value != 0:
            return Op(label, t.seconds, t.scale, f"exit code {t.value}", nbytes)
        error = None
        if self.reference is not None:
            error = check.cli_outputs(out_dir, self.reference["ops"][label])
        return Op(label, t.seconds, t.scale, error, nbytes)

    def jobs(self):
        """(label, argv, out_dir) of one job's CLI calls, in order."""
        raise NotImplementedError

    def job(self) -> list:
        return [self.cli(label, argv, out_dir) for label, argv, out_dir in self.jobs()]


class Figures(CliWorkload):
    """The four jobs of scripts/reproduce_figures.py at n_max 20, warm cache."""

    name = "figures"

    def jobs(self):
        common = ["--nmax", str(N_MAX), "--out", str(self.out), "--cache-dir", str(self.cache)]
        return [
            ("figure-data all", ["figure-data", "--figure", "all", "--grid", FIGURE_GRID] + common, self.out),
            ("invariants", ["invariants", "--grid", TABLE_GRID] + common, self.out),
            ("fidelity 12", ["fidelity", "--scenario", "12", "--grid", TABLE_GRID] + common, self.out),
            ("fidelity 23", ["fidelity", "--scenario", "23", "--grid", TABLE_GRID] + common, self.out),
        ]


class Cutoff(CliWorkload):
    """Convergence in the mode cutoff: every n_max misses the cache once, then hits it."""

    name = "cutoff"
    warm_cache = False

    def jobs(self):
        out = []
        for n in CUTOFF_NMAX:
            out_dir = self.out / f"n{n}"
            common = ["--nmax", str(n), "--out", str(out_dir), "--cache-dir", str(self.cache)]
            out.append((f"n{n} invariants", ["invariants", "--grid", CUTOFF_GRID] + common, out_dir))
            out.append(
                (f"n{n} figure-data nbar", ["figure-data", "--figure", "nbar", "--grid", CUTOFF_GRID] + common, out_dir)
            )
        return out

    def job(self) -> list:
        # Every repetition starts from an empty coefficient cache.
        shutil.rmtree(self.cache, ignore_errors=True)
        return super().job()


class Fidelity(Workload):
    """Protocol sweep: 243 fidelity reports at n_max 20, then one decoder calibration.

    For each scenario and dealer squeezing s there are three secrets: the
    vacuum coherent state, a coherent state at a displacement drawn from the
    seed (one per s), and squeezed vacuum r = 0.25; each runs over 9 u-points.
    The transition fit is loaded from the warm cache during set-up.
    """

    name = "fidelity"
    seeded = True

    def __init__(self, rqss, work: Path, seed: int, check_outputs: bool = True):
        super().__init__(rqss, work, seed, check_outputs)
        rng = np.random.default_rng(seed)
        self.displacements = {
            s: tuple(float(x) for x in rng.uniform(-DISPLACEMENT_RANGE, DISPLACEMENT_RANGE, 2))
            for s in SQUEEZINGS
        }
        self.fit = None

    def prepare(self):
        self.fit = self.setup_fit()

    def secrets(self, s: float):
        return [("coherent", (0.0, 0.0)), ("coherent", self.displacements[s]), SQUEEZED_SECRET]

    def configs(self):
        """(label, scenario, config, secret index) of every report, in order."""
        make = self.rqss.protocol.ProtocolConfig
        out = []
        for scenario in SCENARIOS:
            for s in SQUEEZINGS:
                for index, (kind, params) in enumerate(self.secrets(s)):
                    for u in U_POINTS:
                        cfg = make(s=s, secret=kind, secret_params=params, u=u, n_max=N_MAX, cache_dir=str(self.cache))
                        out.append((f"report {scenario} s={s} {kind}{params} u={u}", scenario, cfg, index))
        return out

    def _check_report(self, scenario: str, cfg, index: int, got: dict) -> str | None:
        if self.reference is None:
            return None
        ref = self.reference["reports"][fidelity_key(scenario, cfg.s, cfg.u)]
        if index == 0:
            return check.report(got, ref["vacuum"])
        if index == 2:
            return check.report(got, ref["squeezed"])
        q, p = cfg.secret_params
        return check.displaced_report(got, ref["vacuum"], ref["basis"], q, p)

    def job(self) -> list:
        protocol = self.rqss.protocol
        ops = []
        for label, scenario, cfg, index in self.configs():
            t = self.clock.time(lambda: protocol.fidelity_report(scenario, cfg, self.fit))
            if t.error is not None:
                ops.append(Op(label, t.seconds, t.scale, f"raised {t.error!r}"))
                continue
            got = t.value.to_json_dict()
            ops.append(Op(label, t.seconds, t.scale, self._check_report(scenario, cfg, index, got), result=got))
        t = self.clock.time(protocol.calibrate_decoder)
        if t.error is not None:
            ops.append(Op("calibrate_decoder", t.seconds, t.scale, f"raised {t.error!r}"))
            return ops
        got = t.value.to_json_dict()
        error = None
        if self.reference is not None:
            bad = check.first_mismatch(got, self.reference["calibration"])
            error = f"calibration {bad}" if bad else None
        ops.append(Op("calibrate_decoder", t.seconds, t.scale, error, result=got))
        return ops


WORKLOADS = {w.name: w for w in (Figures, Cutoff, Fidelity)}
