"""The u-grid as one stack: stacked maps, channels, invariants and fidelities against the per-u route.

Every stacked layer must give, matrix by matrix, the bits of the one-segment
call, so the figures, the invariants table and the fidelity table stay
byte-identical whatever the stack size; the monitored modes' rows of a
segment map must give the bits of the full map's rows.
"""

import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rqss import modes as rqss_modes
from rqss import protocol
from rqss.channel import channel_invariants, cp_residual, reduced_channel, segment_channel
from rqss.gaussian import GaussianState
from rqss.modes import STACK_ENTRIES, BogoliubovSet, get_transition, grid_segments, mode_sums, segment_maps
from rqss.protocol import (
    _GRID_STACK,
    FIGURE_MODES,
    FIGURES,
    ProtocolConfig,
    fidelity_grid,
    fidelity_table,
    figure_tables,
    invariant_table,
)

from oracles import fidelity_report_per_u, figure_data_per_u, full_maps, invariant_rows_per_u

FIGURE_GRID = [i / 64 for i in range(1, 64)]  # the 63-point grid of reproduce_figures.py
TABLE_GRID = [round(0.1 * i, 12) for i in range(1, 10)]
QUARTER_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]  # u = 0 and 1 carry no noise block
M1_GRID = [i / 1024 for i in range(1, 1024)]  # the 1023-point grid where n_max 20 gives negative nbar
CUTOFF_GRID = [i / 32 for i in range(1, 32)]  # the 31-point grid of the cutoff runs
EDGE_GRID = [0.0, 0.5, 1.0, 1.5]  # no noise block at whole u; 1.5 beyond the first period
MAP_NAMES = ("alpha0", "alpha1", "beta1", "alpha2", "beta2")
SUM_NAMES = ("f_alpha", "f_beta", "g_cross", "alpha0", "alpha2", "beta2")  # the `ModeSums` fields
SECRETS = [("coherent", (0.0, 0.0)), ("coherent", (0.7, -0.4)), ("squeezed", (0.25,))]


@pytest.fixture(scope="module")
def fit40(cache_dir):
    return get_transition(n_max=40, cache_dir=cache_dir)


@pytest.fixture(scope="module", params=[20, 40, 80, 160])
def any_fit(request, cache_dir):
    return get_transition(n_max=request.param, cache_dir=cache_dir)


def assert_same_table(table, reference):
    """Equal headers, and rows equal bit for bit (nan where nan, -0.0 where -0.0) and type for type."""
    (header, rows), (ref_header, ref_rows) = table, reference
    assert header == ref_header
    np.testing.assert_array_equal(np.array(rows, dtype=float), np.array(ref_rows, dtype=float), strict=True)
    assert np.array(rows, dtype=float).tobytes() == np.array(ref_rows, dtype=float).tobytes()
    assert [[type(v) for v in row] for row in rows] == [[type(v) for v in row] for row in ref_rows]


def _invariant_rows(fit, grid):
    """The rows and least CP residual of `invariant_table` at h = 1e-2, the h of `invariant_rows_per_u` here."""
    header, rows, worst_cp = invariant_table(ProtocolConfig(n_max=fit.n_max, h=1e-2), grid, fit)
    assert header == ["u", "k", "T2", "nbar", "r"]
    return rows, worst_cp


def _phases():
    # The round trip's grid: u then 2u, 126 phases, the 31 repeated ones included.
    return np.concatenate([FIGURE_GRID, 2.0 * np.array(FIGURE_GRID)])


def _map_stacks(fit, us, modes):
    """The map stacks that one `grid_segments` walk of `us` builds, in order."""
    stacks, build = [], rqss_modes.segment_maps
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rqss_modes, "segment_maps", lambda *args: stacks.append(build(*args)) or stacks[-1])
        grid_segments(fit, us, modes)
    return stacks


def test_stacked_maps_equal_per_u_maps(fit20):
    us = _phases()
    stacks = _map_stacks(fit20, us, range(1, 21))
    assert len(stacks) > 1
    assert np.array_equal(np.concatenate([maps.u for maps in stacks]), us)
    at = [(maps, i) for maps in stacks for i in range(maps.u.size)]
    for u, (maps, i) in zip(us, at):
        one = full_maps(fit20, u)
        for name in MAP_NAMES:
            assert np.array_equal(getattr(maps, name)[i], getattr(one, name)), (name, u)


def test_row_maps_have_row_shapes(fit20):
    u = len(TABLE_GRID)
    for modes in [(1,), (2, 5), (1, 2, 3)]:
        maps = segment_maps(fit20, np.array(TABLE_GRID), modes)
        m = len(modes)
        assert maps.modes == modes
        assert maps.alpha0.shape == (u, m)
        assert maps.alpha1.shape == maps.beta1.shape == (u, m, 20)
        assert maps.alpha2.shape == maps.beta2.shape == (u, m, m)


def _rows_of(full, modes):
    """The rows `modes` of full maps: alpha0 and the first order by row, the second order as a block."""
    rows = np.array(modes) - 1
    cut = {"alpha0": (..., rows), "alpha1": (..., rows, slice(None)), "beta1": (..., rows, slice(None))}
    block = (..., rows[:, None], rows)
    return {name: getattr(full, name)[cut.get(name, block)] for name in MAP_NAMES}


@pytest.mark.parametrize("modes", [(1,), (3,), (1, 2, 3), (2, 5)])
def test_row_maps_equal_full_maps_bit_for_bit(any_fit, modes):
    # A single-mode product formed as a vector dot (gemv or dot instead of
    # gemm) rounds differently and breaks this equality.
    us = np.unique(np.concatenate([TABLE_GRID, 2.0 * np.array(TABLE_GRID)]))
    stacks = _map_stacks(any_fit, us, modes)
    assert np.array_equal(np.concatenate([maps.u for maps in stacks]), us)
    stacked = {name: np.concatenate([getattr(maps, name) for maps in stacks]) for name in MAP_NAMES}
    for i, u in enumerate(us):
        full = _rows_of(full_maps(any_fit, u), modes)
        one = segment_maps(any_fit, float(u), modes)
        assert one.modes == modes
        for name in MAP_NAMES:
            assert np.array_equal(getattr(one, name), full[name]), (name, u)
            assert np.array_equal(stacked[name][i], full[name]), (name, u)


def test_row_maps_reject_modes_they_do_not_hold(fit20):
    maps = segment_maps(fit20, 0.3, (2, 5))
    assert maps.row(5) == 1
    with pytest.raises(ValueError, match="not among"):
        mode_sums(maps, 1)
    with pytest.raises(ValueError, match="not among"):
        segment_channel(maps, 3)
    for modes in [(0,), (21,), ()]:
        with pytest.raises(ValueError, match="need at least one"):
            segment_maps(fit20, 0.3, modes)
        for grid in (TABLE_GRID, []):
            with pytest.raises(ValueError, match="need at least one"):
                grid_segments(fit20, grid, modes)


@pytest.mark.parametrize("n_max", [20, 40])
def test_stacks_stay_bounded(request, n_max):
    fit = request.getfixturevalue(f"fit{n_max}")
    modes = (1, 2, 3)
    sizes = [maps.u.size for maps in _map_stacks(fit, FIGURE_GRID, modes)]
    assert sum(sizes) == len(FIGURE_GRID)
    # The largest stacked array, the (U, n, 2m) factor of the second-order product.
    assert max(sizes) * n_max * 2 * len(modes) <= STACK_ENTRIES
    # On all n modes, the (U, 2n, 2n) product itself, one phase at least.
    sizes = [maps.u.size for maps in _map_stacks(fit, FIGURE_GRID, range(1, n_max + 1))]
    assert sum(sizes) == len(FIGURE_GRID)
    assert max(sizes) * (2 * n_max) ** 2 <= STACK_ENTRIES or max(sizes) == 1


@pytest.mark.parametrize("n_max", [20, 160])
def test_grid_segments_builds_every_stack_before_it_returns(monkeypatch, cache_dir, n_max):
    # The walk is eager: one `segment_maps` call per stack, each returning
    # its built maps before the next starts and before the walk returns,
    # each within `STACK_ENTRIES`.
    fit = get_transition(n_max=n_max, cache_dir=cache_dir)
    build, events = rqss_modes.segment_maps, []

    def watched(*args):
        events.append("called")
        events.append(build(*args))
        return events[-1]

    monkeypatch.setattr(rqss_modes, "segment_maps", watched)
    sums = grid_segments(fit, FIGURE_GRID, FIGURE_MODES)
    events.append("returned")
    stacks = events[1:-1:2]
    assert events == [event for maps in stacks for event in ("called", maps)] + ["returned"]
    assert len(stacks) > 1 and all(isinstance(maps, BogoliubovSet) for maps in stacks)
    # The stacks hold the grid in order, each phase once, all but the last full.
    assert np.array_equal(np.concatenate([maps.u for maps in stacks]), FIGURE_GRID)
    sizes = [maps.u.size for maps in stacks]
    assert all(size == sizes[0] for size in sizes[:-1]) and sizes[-1] <= sizes[0]
    m = len(FIGURE_MODES)
    for maps in stacks:
        # The (U, n, 2m) factor of the second-order product, and each array handed out.
        assert maps.u.size * n_max * 2 * m <= STACK_ENTRIES
        assert all(getattr(maps, name).size <= STACK_ENTRIES for name in MAP_NAMES)
    assert all(np.shape(getattr(sums, name)) == (m, len(FIGURE_GRID)) for name in SUM_NAMES)


def test_stacked_sums_channels_and_invariants_equal_per_u(fit20):
    # The (mode, u) stack of channels, invariants and CP residuals, each
    # built in one call, against one segment's at a time.
    us = np.array(QUARTER_GRID + TABLE_GRID)
    grid_sums = grid_segments(fit20, us, (1, 2, 3))
    chans = reduced_channel(grid_sums)
    assert chans.m0.shape == (3, us.size, 2, 2)
    inv = channel_invariants(chans)
    cp = cp_residual(*chans.evaluate(1e-2))
    assert inv.t2.shape == inv.nbar.shape == inv.rank.shape == cp.shape == (3, us.size)
    for j, k in enumerate((1, 2, 3)):
        for i, u in enumerate(us):
            bogo = full_maps(fit20, u)
            one = segment_channel(bogo, k)
            for name in ("m0", "m2", "n2"):
                assert np.array_equal(getattr(chans, name)[j, i], getattr(one, name))
            single = channel_invariants(one)
            assert (inv.t2[j, i], inv.rank[j, i]) == (single.t2, single.rank)
            np.testing.assert_array_equal(inv.nbar[j, i], single.nbar)
            assert cp[j, i] == cp_residual(*one.evaluate(1e-2))
            one_sums = mode_sums(bogo, k)
            assert all(getattr(grid_sums, name)[j, i] == getattr(one_sums, name) for name in SUM_NAMES)


@pytest.mark.parametrize("modes", [(1,), (2,), (1, 2, 3)])
def test_grid_segments_join_their_stacks_bit_for_bit(any_fit, modes):
    # The 126 phases of the figure grid's round trips span several map
    # stacks at every cutoff; the joined walk holds, mode by mode (mode
    # first) and stack after stack, what each stack reduces to.
    us = _phases()
    stacks = _map_stacks(any_fit, us, modes)
    assert len(stacks) > 1
    sums = grid_segments(any_fit, us, modes)
    chans = reduced_channel(sums)
    assert all(getattr(sums, name).shape == (len(modes), us.size) for name in SUM_NAMES)
    assert chans.m0.shape == (len(modes), us.size, 2, 2)
    at = 0
    for maps in stacks:
        rows = slice(at, at + maps.u.size)
        at += maps.u.size
        for j, k in enumerate(modes):
            one = segment_channel(maps, k)
            for name in ("m0", "m2", "n2"):
                assert np.array_equal(getattr(chans, name)[j, rows], getattr(one, name)), (name, k)
            one_sums = mode_sums(maps, k)
            for name in SUM_NAMES:
                assert np.array_equal(getattr(sums[j], name)[rows], getattr(one_sums, name)), (name, k)
    assert at == us.size


# The walks over a grid (`grid_segments` calls), the map stacks and mode sums
# they build, and the channels built from the sums.  The package walks a grid
# and builds channels from `rqss.protocol` alone, and a walk builds and
# reduces its maps in `rqss.modes`.
_WALKS = ((protocol, "grid_segments"), (rqss_modes, "segment_maps"), (rqss_modes, "mode_sums"), (protocol, "reduced_channel"))


@pytest.mark.parametrize("n_max", [20, 40])
@pytest.mark.parametrize("consumer", ["invariants", *FIGURES, "fidelity 12", "fidelity 23"])
def test_each_consumer_walks_its_grid_once(request, count_calls, n_max, consumer):
    # One walk per table, whatever the number of map stacks it spans, and
    # one reduction of each stack per mode (`mode_sums`).  The channel
    # tables build one (mode, u) stack of channels from the joined sums, a
    # transit one on mode k alone, a round trip two (its u and its 2u
    # segments), and the mode-sum figures none.  On a copy of the fit with no journeys built.
    fit = replace(request.getfixturevalue(f"fit{n_max}"))
    config = ProtocolConfig(n_max=n_max)
    modes, phases = (1, 2, 3), np.array(FIGURE_GRID)
    if consumer in ("F2_12_squeezed", "fidelity 12"):
        modes, phases = (config.k,), _phases()
    elif consumer == "fidelity 23":
        modes = (config.k,)
    stacks = len(_map_stacks(fit, phases, modes))
    counts = count_calls(*_WALKS)
    if consumer == "invariants":
        _invariant_rows(fit, FIGURE_GRID)
    elif consumer.startswith("fidelity"):
        fidelity_grid(consumer[-2:], config, FIGURE_GRID, fit)
    else:
        figure_tables([consumer], config, FIGURE_GRID, fit)
    channels = {"T2": 0, "F2_23": 0, "F2_12_squeezed": 2, "fidelity 12": 2}.get(consumer, 1)
    assert counts == {"grid_segments": 1, "segment_maps": stacks, "mode_sums": stacks * len(modes), "reduced_channel": channels}


def test_figures_equal_per_u_route_on_the_figure_grid(fit20):
    config = ProtocolConfig()
    for name in FIGURES:
        (table,) = figure_tables([name], config, FIGURE_GRID, fit20)
        assert_same_table(table, figure_data_per_u(name, fit20, FIGURE_GRID, config))


def test_figures_equal_per_u_route_at_n_max_40(fit40):
    config = ProtocolConfig(n_max=40, k=2, s=0.5)
    for name in FIGURES:
        (table,) = figure_tables([name], config, TABLE_GRID, fit40)
        assert_same_table(table, figure_data_per_u(name, fit40, TABLE_GRID, config))


def test_figures_equal_per_u_route_on_degenerate_points(fit20):
    config = ProtocolConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = {name: figure_tables([name], config, QUARTER_GRID, fit20)[0] for name in FIGURES}
    for name in FIGURES:
        assert_same_table(tables[name], figure_data_per_u(name, fit20, QUARTER_GRID, config))
    nbar = {row[0]: row[1:] for row in tables["nbar"][1]}
    assert all(np.isnan(nbar[0.0])) and all(np.isnan(nbar[1.0]))


@pytest.mark.parametrize("n_max, grid", [(20, M1_GRID), (160, CUTOFF_GRID)], ids=["M1 grid at 20", "cutoff grid at 160"])
def test_figures_equal_per_u_route_on_the_largest_stacks(cache_dir, n_max, grid):
    # The nbar figure on the 1023-point grid at n_max 20, where some nbar
    # are negative, and every figure on the 31-point grid at n_max 160.
    fit = get_transition(n_max=n_max, cache_dir=cache_dir)
    config = ProtocolConfig(n_max=n_max)
    names = ["nbar"] if n_max == 20 else list(FIGURES)
    tables = figure_tables(names, config, grid, fit)
    for name, table in zip(names, tables):
        assert_same_table(table, figure_data_per_u(name, fit, grid, config))
    if n_max == 20:
        assert any(nbar < -1e-10 for row in tables[0][1] for nbar in row[1:])


@pytest.mark.parametrize("n_max", [20, 40])
def test_all_figures_walk_the_plotted_modes_once(request, count_calls, n_max):
    # T2, nbar and F2_23 read one walk of the plotted modes, and nbar builds
    # one stack of channels from its (mode, u) sums; F2_12_squeezed walks its
    # round trips on mode k alone and builds two channels from their sums,
    # one for the u segments and one for the 2u segments.  On a copy of the
    # fit with no journeys built.
    fit = replace(request.getfixturevalue(f"fit{n_max}"))
    config = ProtocolConfig(n_max=n_max)
    plotted_stacks = len(_map_stacks(fit, FIGURE_GRID, FIGURE_MODES))
    plotted = plotted_stacks * len(FIGURE_MODES)
    round_trips = len(_map_stacks(fit, _phases(), (config.k,)))
    counts = count_calls(*_WALKS)
    figure_tables(FIGURES, config, FIGURE_GRID, fit)
    stacks = plotted_stacks + round_trips
    channels = 1 + 2
    assert counts == {"grid_segments": 2, "segment_maps": stacks, "mode_sums": plotted + round_trips, "reduced_channel": channels}


def _subsets(names):
    return [subset for size in range(1, len(names) + 1) for subset in itertools.combinations(names, size)]


@pytest.mark.parametrize("grid", [FIGURE_GRID, [0.0, 0.5, 1.0]], ids=["figure grid", "u = 0, 1/2, 1"])
@pytest.mark.parametrize("n_max", [20, 40])
def test_figure_tables_equal_one_figure_calls_and_per_u_route(request, n_max, grid):
    fit = request.getfixturevalue(f"fit{n_max}")
    config = ProtocolConfig() if n_max == 20 else ProtocolConfig(n_max=40, k=2, s=0.5)
    singles = {name: figure_tables([name], config, grid, fit)[0] for name in FIGURES}
    for name in FIGURES:
        assert_same_table(singles[name], figure_data_per_u(name, fit, grid, config))
    for subset in _subsets(FIGURES):
        for names in (subset, subset[::-1]):
            tables = figure_tables(names, config, grid, fit)
            assert len(tables) == len(names)
            for name, table in zip(names, tables):
                assert_same_table(table, singles[name])


def test_figure_tables_reject_an_unknown_name_before_any_walk(count_calls, fit20):
    counts = count_calls(*_WALKS)
    with pytest.raises(ValueError, match=re.escape(f"unknown figure 'bogus'; choices: {FIGURES}")):
        figure_tables(["F2_12_squeezed", "T2", "bogus"], ProtocolConfig(), FIGURE_GRID, fit20)
    assert counts["grid_segments"] == counts["segment_maps"] == 0


def test_round_trip_figure_alone_runs_below_the_plotted_modes(count_calls, cache_dir):
    # At n_max 2 there is no mode 3 to plot; the round trips walk mode k alone.
    fit = get_transition(n_max=2, cache_dir=cache_dir)
    config = ProtocolConfig(n_max=2)
    counts = count_calls(*_WALKS)
    (table,) = figure_tables(["F2_12_squeezed"], config, TABLE_GRID, fit)
    assert counts["grid_segments"] == counts["segment_maps"] == 1
    assert_same_table(table, figure_data_per_u("F2_12_squeezed", fit, TABLE_GRID, config))
    # Without a fit, the figure loads the cached one and gives the same table.
    (loaded,) = figure_tables(["F2_12_squeezed"], replace(config, cache_dir=str(cache_dir)), TABLE_GRID)
    assert_same_table(loaded, table)


@pytest.mark.parametrize(
    "n_max, grid", [(20, TABLE_GRID), (20, FIGURE_GRID), (40, TABLE_GRID), (20, M1_GRID), (160, CUTOFF_GRID)]
)
def test_invariant_rows_equal_per_u_route(cache_dir, n_max, grid):
    # The largest (mode, u) stacks the CLI builds: the 1023-point grid at
    # n_max 20 and the 31-point grid at n_max 160, each spanning several map
    # stacks.
    fit = get_transition(n_max=n_max, cache_dir=cache_dir)
    rows, worst_cp = _invariant_rows(fit, grid)
    ref_rows, ref_worst_cp = invariant_rows_per_u(fit, grid, 1e-2)
    assert_same_table((None, rows), (None, ref_rows))
    assert worst_cp == ref_worst_cp


def test_degenerate_invariant_rows_are_quiet(fit20):
    grid = QUARTER_GRID + [2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, worst_cp = _invariant_rows(fit20, grid)
    assert_same_table((None, rows), (None, invariant_rows_per_u(fit20, grid, 1e-2)[0]))
    for u, k, t2, nbar, rank in rows:
        if u in (0.0, 1.0, 2.0):
            assert (t2, rank) == (0.0, 0) and np.isnan(nbar)
        else:
            assert t2 > 0.0 and rank == 2
    assert worst_cp == invariant_rows_per_u(fit20, grid, 1e-2)[1]


def _reprs_per_u(scenario, config, fit, grid):
    """The reprs of one-u reports (nan shows as nan, and -0.0 apart from 0.0)."""
    return [repr(fidelity_report_per_u(scenario, replace(config, u=u), fit)) for u in grid]


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
@pytest.mark.parametrize("secret, params", SECRETS)
def test_fidelity_grid_equals_per_u_reports(fit20, scenario, secret, params):
    for s in (0.5, 2.0):
        config = ProtocolConfig(s=s, secret=secret, secret_params=params)
        got = [repr(r) for r in fidelity_grid(scenario, config, TABLE_GRID, fit20)]
        assert got == _reprs_per_u(scenario, config, fit20, TABLE_GRID)


@pytest.mark.parametrize("n_max", [20, 40])
@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_fidelity_grid_equals_per_u_reports_on_edge_points(request, n_max, scenario):
    # s = 8 leaves the ladder's perturbative window (a nan extrapolation) on
    # some points.
    fit = request.getfixturevalue(f"fit{n_max}")
    extrapolated = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (secret, params), s, k in itertools.product(SECRETS, (0.0, 1.0, 8.0), (1, 3)):
            config = ProtocolConfig(n_max=n_max, s=s, k=k, secret=secret, secret_params=params)
            reports = fidelity_grid(scenario, config, EDGE_GRID, fit)
            assert [repr(r) for r in reports] == _reprs_per_u(scenario, config, fit, EDGE_GRID)
            extrapolated += [r.f2_extrapolated for r in reports]
    assert any(math.isnan(f2) for f2 in extrapolated)


def _fidelity_rows_per_u(scenario, config, fit, grid):
    """The `rqss fidelity` rows of one-u reports; rel_gap only where both f2 are known and |f2_closed| > 1e-9."""
    rows = []
    for u in grid:
        rep = fidelity_report_per_u(scenario, replace(config, u=u), fit)
        known = not (math.isnan(rep.f2_closed) or math.isnan(rep.f2_extrapolated)) and abs(rep.f2_closed) > 1e-9
        gap = abs(rep.f2_extrapolated - rep.f2_closed) / abs(rep.f2_closed) if known else math.nan
        rows.append([u, rep.f0, rep.f2, rep.f2_extrapolated, rep.f_sim, gap])
    return rows


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_fidelity_table_equals_rows_of_per_u_reports(fit20, scenario):
    # s = 8 makes some extrapolations nan; u = 0 and 1 have f2_closed = 0.
    gaps = []
    for (secret, params), s in itertools.product(SECRETS, (0.5, 8.0)):
        config = ProtocolConfig(s=s, secret=secret, secret_params=params)
        header, rows = fidelity_table(fidelity_grid(scenario, config, EDGE_GRID, fit20))
        assert header == ["u", "f0", "f2", "f2_extrapolated", "f_sim", "rel_gap"]
        assert_same_table((header, rows), (header, _fidelity_rows_per_u(scenario, config, fit20, EDGE_GRID)))
        gaps += [row[-1] for row in rows]
    assert any(math.isnan(gap) for gap in gaps) and any(gap < 1e-3 for gap in gaps)


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
@pytest.mark.parametrize("secret, params", SECRETS[1:])
def test_fidelity_grid_spanning_several_stacks_equals_per_u_reports(fit20, monkeypatch, scenario, secret, params):
    # Each stack runs the three ladder rungs, and h as a fourth row only
    # when h is off the ladder (the default h is its top rung).
    runs = []
    collaborate = protocol.collaborate
    monkeypatch.setattr(protocol, "collaborate", lambda encoded, M, N, decoder: runs.append(M.shape[:-2]) or collaborate(encoded, M, N, decoder))
    full, rest = divmod(len(FIGURE_GRID), _GRID_STACK)
    for h, rows in ((1e-2, 3), (7e-3, 4)):
        runs.clear()
        config = ProtocolConfig(s=0.5, secret=secret, secret_params=params, h=h)
        got = [repr(r) for r in fidelity_grid(scenario, config, FIGURE_GRID, fit20)]
        assert full >= 2 and runs == [(rows, _GRID_STACK)] * full + [(rows, rest)]
        assert got == _reprs_per_u(scenario, config, fit20, FIGURE_GRID)


@pytest.mark.parametrize("n_max", [20, 40])
def test_fidelity_stacks_stay_bounded(request, monkeypatch, n_max):
    fit = request.getfixturevalue(f"fit{n_max}")
    sizes = []
    check = GaussianState.__post_init__
    monkeypatch.setattr(GaussianState, "__post_init__", lambda state: sizes.append(state.sigma.size) or check(state))
    grid = [i / 256 for i in range(1, 256)]
    # The largest checked state, a (H, U, 6, 6) stack of three-share states:
    # the three ladder rungs at the default h, which is one of them, and
    # four accelerations at an h off the ladder.
    for h, rows in ((1e-2, 3), (7e-3, 4)):
        sizes.clear()
        for scenario in ("12", "23"):
            assert len(fidelity_grid(scenario, ProtocolConfig(n_max=n_max, h=h), grid, fit)) == len(grid)
        assert max(sizes) == rows * _GRID_STACK * 36 <= STACK_ENTRIES


def test_fidelity_grid_rejects_bad_points(fit20):
    assert fidelity_grid("23", ProtocolConfig(), [], fit20) == []
    for bad in ([0.1, math.inf], [math.nan], [[0.1, 0.2]]):
        with pytest.raises(ValueError, match="u-grid"):
            fidelity_grid("23", ProtocolConfig(), bad, fit20)


def test_figure_tables_reject_non_finite_points(fit20):
    # The u-grid check of `fidelity_grid`: a NaN would reach the SVD of the
    # invariants, an inf the phase of the segment maps.
    for bad in ([0.1, math.inf], [math.nan], [-math.inf, 0.5]):
        for name in FIGURES:
            with pytest.raises(ValueError, match="u-grid must be a list of finite numbers"):
                figure_tables([name], ProtocolConfig(), bad, fit20)


# Without a fit, a builder loads the config's from its cache directory, and a
# miss fits the coefficients and writes them there.  Every input a builder
# rejects is rejected first: the cache directory stays empty.


@pytest.mark.parametrize("build", ["fidelity_grid", "invariant_table", *FIGURES])
def test_builders_reject_a_non_finite_point_before_loading_a_fit(tmp_path, build):
    config, grid = ProtocolConfig(cache_dir=str(tmp_path)), [0.3, math.nan]
    with pytest.raises(ValueError, match="u-grid must be a list of finite numbers"):
        if build == "fidelity_grid":
            fidelity_grid("23", config, grid)
        elif build == "invariant_table":
            invariant_table(config, grid)
        else:
            figure_tables([build], config, grid)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("names", [None, ["T2"], ["nbar"], ["F2_23"], ["F2_12_squeezed", "nbar"], list(FIGURES)])
def test_tables_on_the_plotted_modes_reject_a_lower_cutoff_before_loading_a_fit(tmp_path, names):
    # `invariant_table` (names None) and every figure list but F2_12_squeezed
    # alone read modes 1 to 3.
    config = ProtocolConfig(n_max=2, cache_dir=str(tmp_path))
    with pytest.raises(ValueError, match=re.escape("n_max 2 is below the plotted modes (1, 2, 3)")):
        if names is None:
            invariant_table(config, TABLE_GRID)
        else:
            figure_tables(names, config, TABLE_GRID)
    assert list(tmp_path.iterdir()) == []
