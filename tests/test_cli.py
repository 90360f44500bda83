"""Command line interface: outputs, manifests, exit codes."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rqss import cli, modes, protocol
from rqss.channel import PerturbativeChannel
from rqss.gaussian import GaussianState
from rqss.cli import _parse_grid, build_parser, main
from rqss.modes import cache_path, get_transition
from rqss.protocol import ProtocolConfig

from cachefiles import tamper_coefficient
from oracles import csv_text_by_type, full_maps, grid_point_by_point


def _args(cache_dir, *rest, nmax=20):
    return [*rest, "--nmax", str(nmax), "--cache-dir", str(cache_dir)]


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_version_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as info:
        main(["fidelity"])  # missing required --scenario
    assert info.value.code == 1


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1


def test_bogo_check_pass(cache_dir, fit20, tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(["bogo-check", "--out", str(out), *_args(cache_dir)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((out / "bogo_check.json").read_text())
    assert report["pass"] is True
    assert report["first_order_parity_max"] < 1e-8
    assert report["identity_order2_max"] < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]["bogo_check.json"] == _sha(out / "bogo_check.json")


def test_bogo_check_breach_exits_two(cache_dir, fit10, capsys):
    # The halved cutoff leaves a truncation tail above the default tolerance.
    rc = main(["bogo-check", *_args(cache_dir, nmax=10)])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["invariants", "--grid", "0.2:0.8:0.2"], ["bogo-check"]])
def test_a_fit_that_fails_validation_is_a_scientific_breach(tmp_path, monkeypatch, capsys, command):
    # The held-out gate below any error: the fit is rejected, the run exits
    # 2 as a tolerance breach and saves nothing to the empty cache.
    monkeypatch.setattr(modes, "_FIT_REL_GATE", -1.0)
    cache, out = tmp_path / "cache", tmp_path / "out"
    assert main([*command, "--out", str(out), *_args(cache, nmax=4)]) == 2
    assert capsys.readouterr().err.startswith("scientific breach: transition fit failed validation: rel err")
    assert not cache.exists() or not any(cache.iterdir())
    assert not out.exists()


def test_bogo_check_parity_tolerance_is_one_constant(cache_dir, fit20, tmp_path, monkeypatch, capsys):
    # The check, the JSON field and the printed line all read `_PARITY_TOL`,
    # and --tol does not loosen it: below any residual, the run fails.
    monkeypatch.setattr(cli, "_PARITY_TOL", -1.0)
    out = tmp_path / "report"
    assert main(["bogo-check", "--tol", "1", "--out", str(out), *_args(cache_dir)]) == 2
    printed = capsys.readouterr().out
    assert "(tol -1.0e+00)" in printed and "FAIL" in printed
    report = json.loads((out / "bogo_check.json").read_text())
    assert report["parity_tolerance"] == -1.0
    assert report["pass"] is False


def test_bogo_check_takes_h_and_u_from_a_config_file_below_its_flags(cache_dir, fit20, tmp_path):
    # bogo-check's own defaults (h 1e-3, u 0.3) sit below a config file's
    # values, and the flags sit above both.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"h": 0.005, "u": 0.7}))
    runs = {
        "defaults": ([], (1e-3, 0.3)),
        "file": (["--config", str(config)], (0.005, 0.7)),
        "flags": (["--config", str(config), "--h", "0.002", "--u", "0.4"], (0.002, 0.4)),
    }
    for name, (extra, (h, u)) in runs.items():
        out = tmp_path / name
        assert main(["bogo-check", *extra, "--out", str(out), *_args(cache_dir)]) == 0
        report = json.loads((out / "bogo_check.json").read_text())
        assert (report["h"], report["u"]) == (h, u), name
        assert report["identity_at_h_max"] == float(np.max(full_maps(fit20, u).identity_residuals_at(h)[:5]))
        assert json.loads((out / "manifest.json").read_text())["parameters"] == {"n_max": 20, "h": h}


def test_invariants_csv(cache_dir, fit20, tmp_path):
    out = tmp_path / "inv"
    argv = ["invariants", "--grid", "0.2:0.8:0.2", "--out", str(out), *_args(cache_dir)]
    assert main(argv) == 0
    lines = (out / "invariants.csv").read_text().splitlines()
    assert lines[0] == "u,k,T2,nbar,r"
    assert len(lines) == 1 + 4 * 3
    for line in lines[1:]:
        u, k, t2, nbar, rank = line.split(",")
        assert float(t2) > 0.0
        assert float(nbar) >= 0.0
        assert rank == "2"


def test_invariants_reruns_are_byte_identical(cache_dir, fit20, tmp_path):
    out = tmp_path / "inv"
    argv = ["invariants", "--grid", "0.25:0.75:0.25", "--out", str(out), *_args(cache_dir)]
    assert main(argv) == 0
    first_csv = _sha(out / "invariants.csv")
    first_manifest = _sha(out / "manifest.json")
    assert main(argv) == 0
    assert _sha(out / "invariants.csv") == first_csv
    assert _sha(out / "manifest.json") == first_manifest


def test_fidelity_csv_and_tolerance(cache_dir, fit20, tmp_path, capsys):
    out = tmp_path / "fid"
    base = ["fidelity", "--scenario", "23", "--u", "0.3", "--out", str(out), *_args(cache_dir)]
    assert main(base) == 0
    lines = (out / "fidelity_23.csv").read_text().splitlines()
    assert lines[0] == "u,f0,f2,f2_extrapolated,f_sim,rel_gap"
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-9)
    assert float(row[5]) < 1e-3
    capsys.readouterr()
    assert main([*base, "--tol", "1e-12"]) == 2
    assert "FAIL: extrapolated f2 disagrees with closed form beyond rel 1e-12" in capsys.readouterr().err


def test_fidelity_stdout_mode(cache_dir, fit20, capsys):
    rc = main(["fidelity", "--scenario", "12", "--u", "0.25", *_args(cache_dir)])
    assert rc == 0
    outtext = capsys.readouterr().out
    assert outtext.splitlines()[0] == "u,f0,f2,f2_extrapolated,f_sim,rel_gap"


def test_fidelity_secret_override(cache_dir, fit20, capsys):
    rc = main(
        ["fidelity", "--scenario", "23", "--u", "0.3", "--secret", "squeezed:0.25", *_args(cache_dir)]
    )
    assert rc == 0
    assert main(["fidelity", "--scenario", "23", "--secret", "cat:1", *_args(cache_dir)]) == 1


def test_mode_beyond_cutoff_exits_one(capsys):
    rc = main(["fidelity", "--scenario", "23", "--k", "25", "--nmax", "20"])
    assert rc == 1
    assert "outside 1..20" in capsys.readouterr().err


_RUN_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
from rqss.cli import main
out, cache = sys.argv[1:]
jobs = [
    ["calibrate"],
    ["bogo-check", "--tol", "1e-4"],  # n_max 10 truncates above the default 1e-6
    ["invariants", "--grid", "0.25:0.75:0.25"],
    ["fidelity", "--scenario", "23", "--u", "0.3"],
    ["figure-data", "--grid", "0.25:0.75:0.25"],
]
codes = [main([*job, "--nmax", "10", "--cache-dir", cache, "--out", f"{out}/{job[0]}"]) for job in jobs]
print(codes, sorted(m for m in sys.modules if m.startswith("scipy") and sys.modules[m] is not None))
"""


def test_cli_runs_without_scipy(tmp_path, child_env):
    # The runtime needs numpy only: every subcommand works, on a fresh cache,
    # in an interpreter where scipy cannot be imported.
    argv = [sys.executable, "-c", _RUN_WITHOUT_SCIPY, str(tmp_path / "out"), str(tmp_path / "cache")]
    out = subprocess.run(argv, env=child_env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


def test_calibrate_writes_constants(tmp_path, capsys):
    out = tmp_path / "cal"
    assert main(["calibrate", "--out", str(out)]) == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert payload["gain"] == pytest.approx(-2.0 * np.sqrt(2.0), abs=1e-6)
    assert payload["squeeze"] == pytest.approx(0.5 * np.log(3.0), abs=1e-6)
    assert payload["max_deviation"] < 1e-9


def test_figure_data(cache_dir, fit20, tmp_path):
    out = tmp_path / "fig"
    argv = [
        "figure-data",
        "--figure",
        "T2",
        "--grid",
        "0.25:0.75:0.25",
        "--out",
        str(out),
        *_args(cache_dir),
    ]
    assert main(argv) == 0
    lines = (out / "figure_T2.csv").read_text().splitlines()
    assert lines[0] == "u,T2_k1,T2_k2,T2_k3"
    assert len(lines) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert "figure_T2.csv" in manifest["outputs"]


def test_corrupted_cache_exits_two(tmp_path, capsys):
    cache = tmp_path / "cache"
    fit = get_transition(n_max=4, cache_dir=cache)
    path = cache_path(cache, fit.n_max)
    tamper_coefficient(path, (0, 1, 0), 0.5)
    rc = main(["bogo-check", "--nmax", "4", "--cache-dir", str(cache)])
    assert rc == 2
    assert "breach" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_unphysical_pipeline_state_exits_two(cache_dir, tmp_path, monkeypatch, capsys, scenario):
    # A channel whose noise block is negative is not completely positive:
    # on the journeys, `fidelity` meets a pipeline state below the
    # uncertainty bound, in every scenario and through its decoder; on the
    # segments, `invariants` flags the CP violation.  Both are the same
    # scientific breach, and both runs are at the default cutoff.
    grid = ["--grid", "0.1:0.9:0.1"]
    journeys, reduced = protocol._journeys, protocol.reduced_channel

    def noisy(chan):
        return PerturbativeChannel(chan.m0, chan.m2, chan.n2 - 1e4 * np.eye(2))

    def noisy_journeys(*args):
        journey = journeys(*args)
        return protocol._Journey(noisy(journey.channel), journey.sums, journey.travelling)

    monkeypatch.setattr(protocol, "_journeys", noisy_journeys)
    argv = ["fidelity", "--scenario", scenario, *grid, "--out", str(tmp_path), *_args(cache_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("scientific breach: state violates the uncertainty bound")
    invariants = ["invariants", *grid, "--h", "0.01", *_args(cache_dir)]
    assert main(invariants) == 0
    capsys.readouterr()
    monkeypatch.setattr(protocol, "reduced_channel", lambda sums: noisy(reduced(sums)))
    assert main(invariants) == 2
    assert "CP violation" in capsys.readouterr().err


def test_a_strongly_squeezed_secret_decodes_with_every_state_checked(cache_dir, tmp_path, monkeypatch):
    # A secret squeezed by r = 40 gives the measured port a q-variance below
    # 1e-12 of its p-variance.  The decoder is one linear map, with no
    # division by that variance, so the run decodes and checks each of a
    # cold scenario-23 report's seven states.
    count = []
    check = GaussianState.__post_init__
    monkeypatch.setattr(GaussianState, "__post_init__", lambda state: count.append(1) or check(state))
    protocol._dealt.cache_clear()
    argv = ["fidelity", "--scenario", "23", "--secret", "squeezed:40", "--u", "0.3", "--out", str(tmp_path)]
    assert main([*argv, *_args(cache_dir)]) == 0
    assert len(count) == 7
    (row,) = [line.split(",") for line in (tmp_path / "fidelity_23.csv").read_text().splitlines()[1:]]
    assert 0.0 <= float(row[4]) <= 1.0


# The grid on which a cutoff of 20 gives negative occupations (ROADMAP, M1).
_NEGATIVE_NBAR_GRID = "0.0009765625:0.9990234375:0.0009765625"


def _negative_cells(invariants_csv, figure_csv):
    """The (u, k) cells with nbar < -1e-10 of an invariants CSV and of an nbar figure CSV."""
    table = [line.split(",") for line in invariants_csv.read_text().splitlines()[1:]]
    figure = [line.split(",") for line in figure_csv.read_text().splitlines()[1:]]
    return (
        {(u, k) for u, k, _, nbar, _ in table if float(nbar) < -1e-10},
        {(row[0], str(k)) for row in figure for k, nbar in enumerate(row[1:], 1) if float(nbar) < -1e-10},
    )


def test_figure_data_and_invariants_flag_the_same_negative_occupations(cache_dir, tmp_path, capsys):
    grid = ["--grid", _NEGATIVE_NBAR_GRID]
    codes = [
        main(["invariants", *grid, "--out", str(tmp_path / "table"), *_args(cache_dir)]),
        main(["figure-data", "--figure", "nbar", *grid, "--out", str(tmp_path / "figure"), *_args(cache_dir)]),
    ]
    err = capsys.readouterr().err
    table, figure = _negative_cells(tmp_path / "table" / "invariants.csv", tmp_path / "figure" / "figure_nbar.csv")
    assert table == figure
    assert codes == ([2, 2] if table else [0, 0])
    assert err.count("FAIL: negative occupation or CP violation detected") == (2 if table else 0)


@pytest.mark.parametrize("figure", ["nbar", "all", "T2"])
def test_figure_data_writes_its_files_and_exits_two_on_a_negative_nbar(cache_dir, tmp_path, monkeypatch, capsys, figure):
    # Only a negative nbar cell is a breach; a nan one is none.
    tables = cli.figure_tables

    def negative(names, *args):
        return [
            (header, [[rows[0][0], -1e-9, math.nan, *rows[0][3:]], *rows[1:]]) if name in ("nbar", "T2") else (header, rows)
            for name, (header, rows) in zip(names, tables(names, *args))
        ]

    monkeypatch.setattr(cli, "figure_tables", negative)
    rc = main(["figure-data", "--figure", figure, "--grid", "0.25:0.75:0.25", "--out", str(tmp_path), *_args(cache_dir)])
    out, err = capsys.readouterr()
    names = ["T2", "nbar", "F2_23", "F2_12_squeezed"] if figure == "all" else [figure]
    listed = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
    assert sorted(listed) == sorted(f"figure_{name}.csv" for name in names)
    assert all(_sha(tmp_path / name) == digest for name, digest in listed.items())
    assert f"wrote {len(names)} figure file(s)" in out
    if figure == "T2":
        assert (rc, err) == (0, "")
    else:
        assert (rc, err) == (2, "FAIL: negative occupation or CP violation detected\n")


def test_figure_csv_same_on_cache_miss_and_hit(tmp_path):
    cache = tmp_path / "cache"
    argv = ["figure-data", "--figure", "nbar", "--nmax", "20", "--cache-dir", str(cache)]
    assert main([*argv, "--out", str(tmp_path / "miss")]) == 0
    assert len(list(cache.iterdir())) == 1
    assert main([*argv, "--out", str(tmp_path / "hit")]) == 0
    miss = (tmp_path / "miss" / "figure_nbar.csv").read_bytes()
    assert (tmp_path / "hit" / "figure_nbar.csv").read_bytes() == miss


def test_missing_config_exits_one(tmp_path, capsys):
    rc = main(["bogo-check", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_bad_config_key_exits_one(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"bogus": 1}))
    rc = main(["bogo-check", "--config", str(path)])
    assert rc == 1


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"s": "1.0"}, "s must be a number"),
        ({"u": True}, "u must be a number"),
        ({"k": 1.5}, "k must be an integer"),
        ({"n_max": 20.0}, "n_max must be an integer"),
        ({"k": False}, "k must be an integer"),
        ({"secret_params": "0.5,0.5"}, "secret_params must be a list"),
        ({"secret_params": 0.5}, "secret_params must be a list"),
        ({"secret_params": [0.5, "x"]}, "secret_params must be a list"),
        ({"secret": ["coherent"]}, "unknown secret kind"),
        ({"cache_dir": 5}, "cache_dir must be a string or null"),
        ([1, 2], "config must be a JSON object"),
        (5, "config must be a JSON object"),
    ],
    ids=[
        "s-string",
        "u-boolean",
        "k-fraction",
        "n_max-float",
        "k-boolean",
        "secret_params-string",
        "secret_params-number",
        "secret_params-mixed",
        "secret-list",
        "cache_dir-number",
        "document-list",
        "document-number",
    ],
)
def test_wrongly_typed_config_exits_one(cache_dir, fit20, tmp_path, capsys, doc, named):
    # A JSON value of the wrong type is a configuration error, caught when
    # the config is built: exit 1 with one error line, no traceback.
    if isinstance(doc, dict):
        doc = {"cache_dir": str(cache_dir), **doc}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rc = main(["fidelity", "--scenario", "23", "--config", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "option, named",
    [
        (("--s", "800"), "dealer squeezing s must lie in [0, 354.891356]"),
        (("--s", "400"), "dealer squeezing s must lie in [0, 354.891356]"),
        (("--secret", "squeezed:400"), "secret_params: squeezing r must lie in [-177.445678, 177.445678]"),
        (("--secret", "squeezed:-400"), "secret_params: squeezing r must lie in [-177.445678, 177.445678]"),
        (("--secret", "coherent:1e200,0"), "q and p must lie in [-3.121748550315992e+144, 3.121748550315992e+144]"),
        (("--secret", "coherent:0,-1e200"), "q and p must lie in [-3.121748550315992e+144, 3.121748550315992e+144]"),
    ],
    ids=["s-800", "s-400", "r-400", "r-minus-400", "q-1e200", "p-minus-1e200"],
)
def test_overflowing_squeezing_exits_one_before_fitting(tmp_path, capsys, option, named):
    # Squeezings whose covariance entries overflow once multiplied are
    # rejected when the config is built, before a RuntimeWarning, an
    # OverflowError or a failed eigensolver deep in the pipeline.
    cache = tmp_path / "cache"
    argv = ["fidelity", "--scenario", "23", *option, "--grid", "0.1:0.2:0.1", "--nmax", "4"]
    rc = main([*argv, "--cache-dir", str(cache), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert not cache.exists()


def test_overflowing_amplitude_exits_one_under_warnings_as_errors(tmp_path, child_env):
    # The coherent amplitude whose fidelity exponent overflowed in a matmul:
    # a configuration error (exit 1), with no RuntimeWarning on the way.
    cache = tmp_path / "cache"
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "rqss.cli", "fidelity", "--scenario", "23"]
    argv += ["--secret", "coherent:1e200,0", "--grid", "0.1:0.2:0.1", "--nmax", "4"]
    argv += ["--cache-dir", str(cache), "--out", str(tmp_path / "out")]
    out = subprocess.run(argv, env=child_env, capture_output=True, text=True)
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: secret_params: coherent q and p must lie in"), out.stderr
    assert "Warning" not in out.stderr
    assert not cache.exists()


def test_config_file_naming_a_decoder_constant_exits_one(cache_dir, fit20, tmp_path, capsys):
    # The decoder working point is a calibrated constant, not a config field.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"decoder_gain": -2.0}))
    rc = main(["bogo-check", "--config", str(path), *_args(cache_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "decoder_gain" in err


@pytest.mark.parametrize(
    "key, value", [("length", 1.0), ("length", None), ("use_cache", False)], ids=["length", "length-null", "use_cache"]
)
def test_removed_config_key_exits_one(tmp_path, capsys, key, value):
    # Everything depends on h = a L alone, so the cavity length is no field;
    # a fresh fit needs only an empty --cache-dir, so use_cache is none
    # either.  A file that names one is a configuration error, before fitting.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value, "cache_dir": str(tmp_path / "cache")}))
    rc = main(["invariants", "--config", str(path), "--nmax", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config keys") and key in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("flag", [["--length", "2"], ["--no-cache"]], ids=["length", "no-cache"])
def test_removed_flag_exits_one(tmp_path, capsys, flag):
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as info:
        main(["invariants", *flag, "--nmax", "4", "--cache-dir", str(cache)])
    assert info.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize("order", ["grid first", "u first"])
def test_fidelity_u_with_grid_is_a_usage_error(tmp_path, capsys, order):
    # A single --u beside a --grid would be ignored, so the pair is refused
    # before anything is fitted or written.
    grid, u = ["--grid", "0.1:0.2:0.1"], ["--u", "0.7"]
    both = grid + u if order == "grid first" else u + grid
    cache, out = tmp_path / "cache", tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["fidelity", "--scenario", "23", *both, "--nmax", "4", "--cache-dir", str(cache), "--out", str(out)])
    assert info.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not cache.exists() and not out.exists()


_SUBCOMMANDS = (["bogo-check"], ["invariants"], ["fidelity", "--scenario", "23"], ["calibrate"], ["figure-data"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fidelity", "--scenario", "23", "--grid", ""], "grid must be start:stop:step, got ''"),
        (["fidelity", "--scenario", "23", "--secret", ""], "unknown secret kind ''"),
        *[([*command, "--config", ""], "No such file or directory: ''") for command in _SUBCOMMANDS],
    ],
)
def test_empty_flag_value_exits_one(tmp_path, capsys, argv, message):
    # An empty value is a value to check, not the flag's absence: it must not
    # fall back to the default config's single u = 0.25 row.
    cache, out = tmp_path / "cache", tmp_path / "out"
    assert main([*argv, "--nmax", "4", "--cache-dir", str(cache), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err and message in captured.err
    assert not cache.exists() and not out.exists()


@pytest.mark.parametrize("command", _SUBCOMMANDS, ids=[argv[0] for argv in _SUBCOMMANDS])
def test_empty_out_exits_one(tmp_path, monkeypatch, capsys, command):
    # An empty --out names no directory: it is neither stdout nor the
    # working directory, and nothing is fitted, computed or written.
    monkeypatch.chdir(tmp_path)
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as info:
        main([*command, "--nmax", "4", "--cache-dir", str(cache), "--out", ""])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --out: output directory must not be empty" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_figure_data_without_out_writes_to_the_working_directory(cache_dir, fit20, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["figure-data", "--figure", "nbar", "--grid", "0.25:0.75:0.25", *_args(cache_dir)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["figure_nbar.csv", "manifest.json"]


def test_bogo_check_measures_the_quadrature_error_on_every_run(tmp_path, monkeypatch):
    # The fit does not carry the quadrature error: bogo-check measures it
    # for the config's cutoff on a fresh fit and on a cache hit alike, and
    # both runs write the same report.
    measured = []

    def counted(n_max):
        measured.append(n_max)
        return modes.quadrature_error(n_max)

    monkeypatch.setattr(cli, "quadrature_error", counted)
    cache = tmp_path / "cache"
    for run in ("fresh", "hit"):
        argv = ["bogo-check", "--tol", "1e-4", "--nmax", "10", "--cache-dir", str(cache), "--out", str(tmp_path / run)]
        assert main(argv) == 0  # n_max 10 truncates above the default 1e-6
    assert measured == [10, 10]
    assert len(list(cache.iterdir())) == 1
    fresh, hit = ((tmp_path / run / "bogo_check.json").read_bytes() for run in ("fresh", "hit"))
    assert fresh == hit
    assert json.loads(hit)["quadrature_error"] == modes.quadrature_error(10)


def test_bad_grid_exits_one(cache_dir, fit20, capsys):
    rc = main(["invariants", "--grid", "zero:one:step", *_args(cache_dir)])
    assert rc == 1


def test_infinite_grid_exits_one(cache_dir, fit20, capsys):
    for grid in ("0:inf:0.1", "0:1e308:1e-308"):  # the second overflows the point count
        rc = main(["invariants", "--grid", grid, *_args(cache_dir)])
        assert rc == 1
        assert "error: bad grid" in capsys.readouterr().err


def test_grid_above_the_point_bound_exits_one(tmp_path, capsys):
    # 1e15 + 1 points would take 8 PB: the count is rejected before the grid
    # is built, as is one point past the bound, and the fit is not made.
    cache = tmp_path / "cache"
    cache.mkdir()
    for grid in ("0:1e15:1", "0:1000000:1"):
        rc = main(["invariants", "--grid", grid, "--nmax", "4", "--cache-dir", str(cache)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad grid") and "more than 1000000" in err, err
    assert list(cache.iterdir()) == []
    assert len(_parse_grid("1:1000000:1")) == 10**6


@pytest.mark.parametrize("command", [["invariants"], ["figure-data"], ["fidelity", "--scenario", "23"]])
@pytest.mark.parametrize("grid", ["1e-300:1e-299:1e-300", "0.5:0.5000000000001:1e-14", "0:1e-9:5e-13"])
def test_grid_finer_than_its_rounding_exits_one_and_writes_nothing(cache_dir, fit20, tmp_path, capsys, command, grid):
    # Grid points are rounded to 12 decimals; points that round to the same u
    # would print one row per point at one u, so the grid is refused.
    out = tmp_path / "out"
    assert main([*command, "--grid", grid, "--out", str(out), *_args(cache_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: bad grid {grid!r}") and "1e-12" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("figure", [None, "all", "T2", "nbar", "F2_23"])
def test_cutoff_below_the_plotted_modes_exits_one_before_fitting(tmp_path, capsys, figure):
    cache = tmp_path / "cache"
    cache.mkdir()
    command = ["invariants"] if figure is None else ["figure-data", "--figure", figure]
    rc = main([*command, "--nmax", "2", "--cache-dir", str(cache), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_max 2 is below the plotted modes (1, 2, 3)"), err
    assert list(cache.iterdir()) == []


def test_squeezed_figure_needs_only_mode_k(tmp_path):
    # The squeezed-secret figure reads mode --k alone, so a cutoff below the plotted modes still runs it.
    argv = ["figure-data", "--figure", "F2_12_squeezed", "--grid", "0.25:0.75:0.25", "--nmax", "2"]
    assert main([*argv, "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "figure_F2_12_squeezed.csv").read_text().splitlines()) == 4


# The CLI's default grids and those of scripts/reproduce_figures.py and the CI reproductions.
_CLI_GRIDS = ["0.05:0.95:0.05", "0.015625:0.984375:0.015625", "0.1:0.9:0.1", "0:1:0.125"]


def test_grid_matches_point_by_point_rounding():
    rng = np.random.default_rng(20170)
    grids = [tuple(float(x) for x in text.split(":")) for text in _CLI_GRIDS]
    for _ in range(1000):
        start, step = rng.uniform(-1.0, 1.0), rng.uniform(1e-3, 0.5)
        count = rng.integers(0, 64)
        # Half the stops sit on a grid point, half between two.
        stop = start + step * (count if rng.random() < 0.5 else count + rng.random())
        grids.append((float(start), float(stop), float(step)))
    for start, stop, step in grids:
        got = _parse_grid(f"{start!r}:{stop!r}:{step!r}")
        assert all(type(u) is float for u in got)
        assert [u.hex() for u in got] == [u.hex() for u in grid_point_by_point(start, stop, step)]


def test_parser_is_built_once_per_process(cache_dir, fit20, capsys):
    build_parser.cache_clear()
    for scenario in ("12", "23", "13"):
        assert main(["fidelity", "--scenario", scenario, "--u", "0.3", *_args(cache_dir)]) == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_flags_do_not_leak_into_the_next_call(cache_dir, fit20, tmp_path, capsys):
    base = ["fidelity", "--scenario", "23", "--u", "0.3", *_args(cache_dir)]
    flags = ["--s", "2", "--k", "2", "--secret", "squeezed:0.25", "--tol", "0.5"]
    assert main([*base, *flags, "--out", str(tmp_path / "flags")]) == 0
    assert main([*base, "--out", str(tmp_path / "defaults")]) == 0
    given = json.loads((tmp_path / "flags" / "manifest.json").read_text())["parameters"]
    assert (given["s"], given["k"], given["secret"], given["tol"]) == (2.0, 2, "squeezed", 0.5)
    defaults = ProtocolConfig()
    assert json.loads((tmp_path / "defaults" / "manifest.json").read_text())["parameters"] == {
        "scenario": "23",
        "s": defaults.s,
        "k": defaults.k,
        "h": defaults.h,
        "secret": defaults.secret,
        "secret_params": list(defaults.secret_params),
        "tol": 1e-3,
    }


@pytest.mark.parametrize("exiting, code", [(["fidelity"], 1), (["--version"], 0)], ids=["usage-error", "version"])
def test_valid_call_after_the_parser_exits(cache_dir, fit20, tmp_path, capsys, exiting, code):
    argv = ["invariants", "--grid", "0.25:0.75:0.25", *_args(cache_dir)]
    assert main([*argv, "--out", str(tmp_path / "before")]) == 0
    with pytest.raises(SystemExit) as info:
        main(exiting)
    assert info.value.code == code
    assert main([*argv, "--out", str(tmp_path / "after")]) == 0
    csv = "invariants.csv"
    assert (tmp_path / "after" / csv).read_bytes() == (tmp_path / "before" / csv).read_bytes()


_OUT_JOBS = {
    "bogo-check": ["bogo-check"],
    "invariants": ["invariants", "--grid", "0.25:0.75:0.25"],
    "fidelity": ["fidelity", "--scenario", "13", "--grid", "0.25:0.75:0.25"],
    "calibrate": ["calibrate"],
    "figure-data": ["figure-data", "--grid", "0.25:0.75:0.25"],
}


@pytest.mark.parametrize("job", list(_OUT_JOBS.values()), ids=list(_OUT_JOBS))
def test_manifest_lists_each_file_written_with_its_hash(cache_dir, fit20, tmp_path, capsys, job):
    out = tmp_path / "out"
    assert main([*job, "--out", str(out), *_args(cache_dir)]) == 0
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert set(listed) == {path.name for path in out.iterdir()} - {"manifest.json"}
    for name, digest in listed.items():
        assert digest == _sha(out / name), name


@pytest.mark.parametrize("command", [["fidelity", "--scenario", "23"], ["bogo-check"]], ids=["fidelity", "bogo-check"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tolerance_exits_one(cache_dir, fit20, capsys, command, tol):
    with pytest.raises(SystemExit) as info:
        main([*command, "--tol", tol, *_args(cache_dir)])
    assert info.value.code == 1
    assert "error: argument --tol: tolerance must be a finite number >= 0" in capsys.readouterr().err


# Tables with nan rows: nbar at u = 0 and 1, and the window guard's f2_extrapolated at s = 8.
_TABLE_JOBS = [
    ["figure-data", "--figure", "all", "--grid", "0:1:0.125"],
    ["invariants", "--grid", "0:1:0.125"],
    *(["fidelity", "--scenario", scenario, "--grid", "0.1:0.9:0.1"] for scenario in ("12", "23", "13")),
    *(["fidelity", "--scenario", scenario, "--s", "8", "--grid", "0:1:0.125"] for scenario in ("12", "23", "13")),
]


def test_every_csv_value_is_a_python_int_or_float(cache_dir, fit20, tmp_path, monkeypatch):
    # `_csv_text` prints each value with `str`, which for a Python int or
    # float is the string of the typed route; a bool would print True.
    tables = []
    csv_text = cli._csv_text
    monkeypatch.setattr(cli, "_csv_text", lambda header, rows: tables.append((header, rows)) or csv_text(header, rows))
    for i, job in enumerate(_TABLE_JOBS):
        assert main([*job, "--out", str(tmp_path / str(i)), *_args(cache_dir)]) == 0
    assert len(tables) == 4 + len(_TABLE_JOBS) - 1
    values = [v for _, rows in tables for row in rows for v in row]
    assert {type(v) for v in values} == {int, float}
    assert any(math.isnan(v) for v in values)
    for header, rows in tables:
        assert csv_text(header, rows) == csv_text_by_type(header, rows)


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0, -7, 2**64]


@given(rows=st.lists(st.lists(st.one_of(st.integers(), st.floats(), st.sampled_from(_SPECIAL)), max_size=6), max_size=5))
@example(rows=[_SPECIAL])
def test_csv_text_prints_ints_and_floats_as_the_typed_route(rows):
    header = ["u", "value"]
    assert cli._csv_text(header, rows) == csv_text_by_type(header, rows)
