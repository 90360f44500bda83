"""The u-grid as one stack: stacked maps, channels and invariants against the per-u route.

Every stacked layer must give, matrix by matrix, the bits of the one-segment
call, so the figures and the invariants table stay byte-identical whatever
the stack size.
"""

import warnings

import numpy as np
import pytest

from rqss.channel import channel_invariants, cp_residual, grid_channels, segment_channel
from rqss.cli import _invariant_rows
from rqss.modes import STACK_ENTRIES, get_transition, mode_sums, segment_bogoliubov, segment_stacks
from rqss.protocol import FIGURES, ProtocolConfig, figure_data

from oracles import figure_data_per_u, invariant_rows_per_u

FIGURE_GRID = [i / 64 for i in range(1, 64)]  # the 63-point grid of reproduce_figures.py
TABLE_GRID = [round(0.1 * i, 12) for i in range(1, 10)]
QUARTER_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]  # u = 0 and 1 carry no noise block


@pytest.fixture(scope="module")
def fit40(cache_dir):
    return get_transition(n_max=40, cache_dir=cache_dir)


def assert_same_table(table, reference):
    """Equal headers, and rows equal value for value (nan where nan) and type for type."""
    (header, rows), (ref_header, ref_rows) = table, reference
    assert header == ref_header
    np.testing.assert_array_equal(np.array(rows, dtype=float), np.array(ref_rows, dtype=float), strict=True)
    assert [[type(v) for v in row] for row in rows] == [[type(v) for v in row] for row in ref_rows]


def _phases():
    # The round trip's grid: u and 2u, 95 distinct phases.
    return np.unique(np.concatenate([FIGURE_GRID, 2.0 * np.array(FIGURE_GRID)]))


def test_stacked_maps_equal_per_u_maps(fit20):
    us = _phases()
    stacks = list(segment_stacks(fit20, us))
    assert len(stacks) > 1
    assert np.array_equal(np.concatenate([maps.u for maps in stacks]), us)
    at = [(maps, i) for maps in stacks for i in range(maps.u.size)]
    for u, (maps, i) in zip(us, at):
        one = segment_bogoliubov(fit20, u)
        for name in ("alpha0", "alpha1", "beta1", "alpha2", "beta2"):
            assert np.array_equal(getattr(maps, name)[i], getattr(one, name)), (name, u)


def test_first_order_stacks_skip_second_order(fit20):
    (full,), (first,) = segment_stacks(fit20, TABLE_GRID), segment_stacks(fit20, TABLE_GRID, second_order=False)
    assert first.alpha2 is None and first.beta2 is None
    for name in ("alpha0", "alpha1", "beta1"):
        assert np.array_equal(getattr(first, name), getattr(full, name))


@pytest.mark.parametrize("n_max", [20, 40])
def test_stacks_stay_bounded(request, n_max):
    fit = request.getfixturevalue(f"fit{n_max}")
    sizes = [maps.u.size for maps in segment_stacks(fit, FIGURE_GRID)]
    assert sum(sizes) == len(FIGURE_GRID)
    assert max(sizes) * n_max**2 <= STACK_ENTRIES


def test_stacked_sums_channels_and_invariants_equal_per_u(fit20):
    us = np.array(QUARTER_GRID + TABLE_GRID)
    chans = grid_channels(fit20, us, (1, 2, 3))
    assert chans.m0.shape == (us.size, 3, 2, 2)
    inv = channel_invariants(chans)
    cp = cp_residual(*chans.evaluate(1e-2))
    stacks = list(segment_stacks(fit20, us))
    for j, k in enumerate((1, 2, 3)):
        per_stack = [mode_sums(maps, k) for maps in stacks]
        sums = [(s.f_alpha[i], s.f_beta[i], s.g_cross[i]) for s in per_stack for i in range(s.u.size)]
        for i, u in enumerate(us):
            bogo = segment_bogoliubov(fit20, u)
            one = segment_channel(bogo, k)
            for name in ("m0", "m2", "n2"):
                assert np.array_equal(getattr(chans, name)[i, j], getattr(one, name))
            single = channel_invariants(one)
            assert (inv.t2[i, j], inv.rank[i, j], inv.degenerate[i, j]) == (single.t2, single.rank, single.degenerate)
            np.testing.assert_array_equal(inv.nbar[i, j], single.nbar)
            assert cp[i, j] == cp_residual(*one.evaluate(1e-2))
            one_sums = mode_sums(bogo, k)
            assert sums[i] == (one_sums.f_alpha, one_sums.f_beta, one_sums.g_cross)


def test_figures_equal_per_u_route_on_the_figure_grid(fit20):
    config = ProtocolConfig()
    for name in FIGURES:
        assert_same_table(figure_data(name, fit20, FIGURE_GRID, config), figure_data_per_u(name, fit20, FIGURE_GRID, config))


def test_figures_equal_per_u_route_at_n_max_40(fit40):
    config = ProtocolConfig(n_max=40, k=2, s=0.5)
    for name in FIGURES:
        assert_same_table(figure_data(name, fit40, TABLE_GRID, config), figure_data_per_u(name, fit40, TABLE_GRID, config))


def test_figures_equal_per_u_route_on_degenerate_points(fit20):
    config = ProtocolConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = {name: figure_data(name, fit20, QUARTER_GRID, config) for name in FIGURES}
    for name in FIGURES:
        assert_same_table(tables[name], figure_data_per_u(name, fit20, QUARTER_GRID, config))
    nbar = {row[0]: row[1:] for row in tables["nbar"][1]}
    assert all(np.isnan(nbar[0.0])) and all(np.isnan(nbar[1.0]))


@pytest.mark.parametrize("n_max, grid", [(20, TABLE_GRID), (20, FIGURE_GRID), (40, TABLE_GRID)])
def test_invariant_rows_equal_per_u_route(request, n_max, grid):
    fit = request.getfixturevalue(f"fit{n_max}")
    rows, worst_cp = _invariant_rows(fit, grid, 1e-2)
    ref_rows, ref_worst_cp = invariant_rows_per_u(fit, grid, 1e-2)
    assert_same_table((None, rows), (None, ref_rows))
    assert worst_cp == ref_worst_cp


def test_degenerate_invariant_rows_are_quiet(fit20):
    grid = QUARTER_GRID + [2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, worst_cp = _invariant_rows(fit20, grid, 1e-2)
    assert_same_table((None, rows), (None, invariant_rows_per_u(fit20, grid, 1e-2)[0]))
    for u, k, t2, nbar, rank in rows:
        if u in (0.0, 1.0, 2.0):
            assert (t2, rank) == (0.0, 0) and np.isnan(nbar)
        else:
            assert t2 > 0.0 and rank == 2
    assert worst_cp == invariant_rows_per_u(fit20, grid, 1e-2)[1]
