"""Threshold secret sharing protocol: encoding, transit, decoding, fidelity."""

import itertools
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqss.gaussian import (
    GaussianState,
    SymplecticMap,
    coherent,
    fidelity_pure_mixed,
    partial_trace,
    squeezed_vacuum,
)
from rqss import channel, modes, protocol
from rqss.cli import main
from rqss.modes import mode_sums
from rqss.protocol import (
    CALIBRATION_ENSEMBLE,
    DEFAULT_DECODER_GAIN,
    DEFAULT_DECODER_SQUEEZE,
    DEFAULT_F2_LADDER,
    FIGURES,
    ProtocolConfig,
    _pipeline_h0,
    calibrate_decoder,
    collaborate,
    decoder_maps,
    distribute,
    encode,
    extrapolate_f2,
    fidelity_closed_forms,
    fidelity_grid,
    fidelity_report,
    figure_tables,
    inertial_phase,
    simulate_fidelity,
)

from oracles import compose_from_identity, fidelity_by_stages, figure_data_per_u, full_maps, journey_per_u, vacuum

TABLE_GRID = [round(0.1 * i, 12) for i in range(1, 10)]
S_TABLE = {0.0: 0.5, 0.5: 0.6224593312018546, 1.0: 0.7310585786300049, 2.0: 0.8807970779778823}


def _cfg(**kw):
    return ProtocolConfig(**kw)


def test_encode_share_means():
    state = encode(coherent(2.0, 0.0), s=1.0)
    r = np.sqrt(2.0)
    assert np.allclose(state.d, [r, 0.0, -r, 0.0, 0.0, 0.0], atol=1e-14)
    assert state.n_modes == 3


def test_encode_single_share_noise():
    # Each entangled share individually carries the secret buried in thermal
    # noise that grows with the dealer squeezing.
    s = 2.0
    share0 = partial_trace(encode(vacuum(), s), [0])
    expected = 0.5 * (1.0 + np.cosh(s))
    assert np.allclose(share0.sigma, expected * np.eye(2), atol=1e-12)


def test_inertial_phase_convention():
    assert inertial_phase(1, 0.25) == pytest.approx(np.pi - np.pi, abs=1e-15)
    assert inertial_phase(2, 0.25) == pytest.approx(np.pi - 2.0 * np.pi, abs=1e-15)


def test_round_trip_zeroth_order(fit20):
    us = np.array([0.3, 0.7])
    ch, _ = protocol._journeys("12", fit20, 1, us)
    assert np.allclose(ch.m0, np.eye(2), atol=1e-12)
    tr, _ = protocol._journeys("23", fit20, 1, us)
    assert np.allclose(tr.m0, -np.eye(2), atol=1e-12)


def test_scenario_12_exact_at_zero_acceleration(fit20):
    for secret, params in ((("coherent"), (0.0, 0.0)), (("coherent"), (3.0, -2.0)), (("squeezed"), (0.4,))):
        cfg = _cfg(u=0.3, k=1, s=1.0, secret=secret, secret_params=params)
        f = simulate_fidelity("12", replace(cfg, h=0.0), fit20)
        assert f == pytest.approx(1.0, abs=1e-12)


def test_collaborate_12_returns_secret_exactly(fit20):
    cfg = _cfg(u=0.3, k=1, s=1.0)
    squeezed = squeezed_vacuum(0.3)
    secret = GaussianState(squeezed.d + np.array([1.0, -1.0]), squeezed.sigma)
    m, n = journey_per_u("12", fit20, cfg.k, cfg.u).evaluate(0.0)
    decoded = collaborate(distribute(encode(secret, cfg.s), m, n), m, n, decoder_maps("12"))
    assert np.allclose(decoded.d, secret.d, atol=1e-12)
    assert np.allclose(decoded.sigma, secret.sigma, atol=1e-12)


def test_scenario_23_zero_acceleration_table(fit20):
    for s, f0 in S_TABLE.items():
        cfg = _cfg(u=0.3, k=1, s=s)
        f = simulate_fidelity("23", replace(cfg, h=0.0), fit20)
        assert f == pytest.approx(f0, abs=1e-9)


def test_scenario_13_matches_23_at_zero_acceleration(fit20):
    for s in (0.5, 1.0):
        cfg = _cfg(u=0.3, k=1, s=s, secret_params=(1.0, -2.0))
        f23 = simulate_fidelity("23", replace(cfg, h=0.0), fit20)
        f13 = simulate_fidelity("13", replace(cfg, h=0.0), fit20)
        assert f13 == pytest.approx(f23, abs=1e-10)
        assert f13 == pytest.approx(S_TABLE[s], abs=1e-9)


@settings(deadline=None, max_examples=30)
@given(
    q0=st.floats(-8.0, 8.0),
    p0=st.floats(-8.0, 8.0),
    s=st.floats(0.0, 3.0),
)
def test_two_three_recovery_is_secret_independent(q0, p0, s):
    out = _pipeline_h0(encode(coherent(q0, p0), s), DEFAULT_DECODER_GAIN, DEFAULT_DECODER_SQUEEZE)
    f = fidelity_pure_mixed(coherent(q0, p0), out)
    assert f == pytest.approx(1.0 / (1.0 + np.exp(-s)), abs=1e-10)


@pytest.mark.parametrize("scenario", ["23", "13"])
def test_closed_forms_name_the_scenario_that_needs_s(fit20, scenario):
    sums = mode_sums(full_maps(fit20, 0.3), 1)
    with pytest.raises(ValueError, match=f"^scenario {scenario} needs the squeezing s$"):
        fidelity_closed_forms(scenario, sums)


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_closed_forms_give_a_float_per_segment_and_an_array_per_stack(fit20, scenario):
    us = np.array(TABLE_GRID)
    (stack,), (stack_2u,) = (modes.grid_segments(fit20, phases, (1,)) for phases in (us, 2.0 * us))
    stacked = fidelity_closed_forms(scenario, stack, stack_2u, s=1.0)
    assert isinstance(stacked, np.ndarray) and stacked.shape == us.shape
    for u, f2 in zip(TABLE_GRID, stacked):
        one = fidelity_closed_forms(scenario, *(mode_sums(full_maps(fit20, v), 1) for v in (u, 2.0 * u)), s=1.0)
        assert type(one) is float and one == f2


def test_squeezed_secret_zero_acceleration(fit20):
    # At h = 0 the recovered state is the secret plus 2 e^{-s} of added noise,
    # so for a squeezed secret F = 1/sqrt((e^{-2r}+e^{-s})(e^{2r}+e^{-s})).
    r, s = 0.4, 1.0
    cfg = _cfg(u=0.3, k=1, s=s, secret="squeezed", secret_params=(r,))
    f = simulate_fidelity("23", replace(cfg, h=0.0), fit20)
    expected = 1.0 / np.sqrt((np.exp(-2 * r) + np.exp(-s)) * (np.exp(2 * r) + np.exp(-s)))
    assert f == pytest.approx(expected, abs=1e-10)


def test_calibration_lands_on_analytic_point():
    cal = calibrate_decoder()
    assert cal.gain == pytest.approx(-2.0 * np.sqrt(2.0), rel=1e-15)
    assert cal.squeeze == pytest.approx(0.5 * np.log(3.0), rel=1e-15)
    assert cal.max_deviation < 1e-9


def test_biased_decoder_beats_mean_but_fails_guarantee():
    # Regression guard for the calibration design: a noise-minimizing biased
    # decoder wins the ensemble-mean objective yet misses the guaranteed
    # fidelity badly, so calibration must target the unbiased response, not
    # a mean-fidelity maximum.
    f0 = 1.0 / (1.0 + np.exp(-1.0))
    biased = (-1.746038, 0.399217)
    faithful = (DEFAULT_DECODER_GAIN, DEFAULT_DECODER_SQUEEZE)
    means, worsts = [], []
    for g, r in (faithful, biased):
        fids = [
            fidelity_pure_mixed(coherent(*qp), _pipeline_h0(encode(coherent(*qp), 1.0), g, r))
            for qp in CALIBRATION_ENSEMBLE
        ]
        means.append(np.mean(fids))
        worsts.append(max(abs(f - f0) for f in fids))
    assert worsts[0] < 1e-12
    assert means[1] > means[0] + 0.05
    assert worsts[1] > 0.1


def test_extrapolation_recovers_quadratic_coefficient():
    c1, c2 = -0.3, 7.0
    fids = [1.0 + c1 * h**2 + c2 * h**4 for h in DEFAULT_F2_LADDER]
    f2, f0, c4 = extrapolate_f2(fids)
    assert f2 == pytest.approx(0.3, abs=1e-10)
    assert f0 == pytest.approx(1.0, abs=1e-12)
    assert c4 == pytest.approx(7.0, rel=1e-6)


def test_stacked_extrapolation_equals_one_row_calls():
    # Random ladders, half of them with a quartic term large enough that the
    # window guard of `fidelity_grid` turns their coefficient into nan: every
    # row of the stack gets the bits of its one-row call.
    rng = np.random.default_rng(31)
    x = np.square(DEFAULT_F2_LADDER)
    c2 = rng.uniform(0.1, 2.0, 2000)
    c4 = rng.choice([-1.0, 1.0], 2000) * np.concatenate([rng.uniform(0.0, 1.0, 1000), rng.uniform(1e5, 1e6, 1000)])
    ladders = 1.0 - c2[:, None] * x + c4[:, None] * x**2 + rng.normal(0.0, 1e-15, (2000, 3))
    stacked = extrapolate_f2(ladders)
    rows = [extrapolate_f2(row) for row in ladders.tolist()]
    assert all(isinstance(value, float) for value in rows[0])
    for got, want in zip(stacked, zip(*rows)):
        assert got.shape == (2000,) and got.tolist() == list(want)
    guarded = protocol._extrapolated_f2(ladders)
    assert [f2 for f2, _ in guarded[:1000]] == stacked[0][:1000].tolist()
    assert all(math.isnan(f2) and source.startswith("unavailable") for f2, source in guarded[1000:])
    assert stacked[0].reshape(2, 1000).tolist() == extrapolate_f2(ladders.reshape(2, 1000, 3))[0].tolist()
    assert [len(value) for value in extrapolate_f2(np.zeros((0, 3)))] == [0, 0, 0]


@pytest.mark.parametrize("shape", [(), (2,), (4,), (5, 4), (3, 2)])
def test_extrapolation_rejects_a_last_axis_other_than_three(shape):
    with pytest.raises(ValueError, match="three"):
        extrapolate_f2(np.ones(shape))


def test_closed_forms_match_extrapolation(fit20):
    for scen in ("12", "23"):
        cfg = _cfg(u=0.35, k=1, s=1.0)
        rep = fidelity_report(scen, cfg, fit20)
        assert rep.f2_closed != 0.0
        assert rep.f2_extrapolated == pytest.approx(rep.f2_closed, rel=1e-3)


@pytest.mark.parametrize("secret, params", [("coherent", (0.7, -0.4)), ("squeezed", (0.25,)), ("squeezed", (-0.5,))])
def test_scenario_12_direct_f2_matches_extrapolation(fit20, secret, params):
    # The report's f2 is read off the round-trip channel's h^2 covariance
    # block alone, m2 sigma m0^T + m0 sigma m2^T + n2; the extrapolation
    # fits the simulated pipeline at three accelerations.  The two agree to
    # the fit's h^4 remainder (at most 1.9e-8 relative measured).
    for u in (0.1, 0.35, 0.8):
        rep = fidelity_report("12", _cfg(u=u, s=1.0, secret=secret, secret_params=params), fit20)
        assert rep.f2 != 0.0
        assert rep.f2 == pytest.approx(rep.f2_extrapolated, rel=1e-6), u


def test_report_displacement_invariance(fit20):
    reports = []
    for qp in ((0.0, 0.0), (3.0, -2.0)):
        cfg = _cfg(u=0.3, k=1, s=1.0, secret_params=qp, h=1e-2)
        reports.append(fidelity_report("12", cfg, fit20))
    assert reports[0].f2 == pytest.approx(reports[1].f2, abs=1e-10)
    h2 = reports[0].h ** 2
    assert reports[0].f0 - reports[0].f2 * h2 == pytest.approx(reports[1].f0 - reports[1].f2 * h2, abs=1e-10)


def test_report_provenance(fit20):
    rep = fidelity_report("23", _cfg(u=0.3, k=1, s=1.0), fit20)
    assert rep.f0_source
    assert rep.f2_source
    assert rep.f_sim_source
    payload = rep.to_json_dict()
    json.dumps(payload)


def test_infinite_squeezing_limit(fit20):
    sums = mode_sums(full_maps(fit20, 0.3), 1)
    limit = 4.0 * (sums.f_alpha + 2.0 * sums.f_beta)
    rep = fidelity_report("23", _cfg(u=0.3, k=1, s=20.0), fit20)
    assert rep.f2 == pytest.approx(limit, rel=1e-3)


def test_extrapolation_window_guard(fit20):
    # At s=20 the h^4 coefficient of the simulated fidelity is ~e^{2s} larger
    # than at s=1, so the default ladder is far outside the perturbative
    # window and the three-point fit returns an artifact.  The report must
    # flag that instead of emitting the number.
    rep = fidelity_report("23", _cfg(u=0.3, k=1, s=20.0), fit20)
    assert math.isnan(rep.f2_extrapolated)
    squeezed = fidelity_report("23", _cfg(u=0.3, k=1, s=20.0, secret="squeezed", secret_params=(0.25,)), fit20)
    assert math.isnan(squeezed.f2)
    assert "outside the perturbative window" in squeezed.f2_source
    benign = fidelity_report("23", _cfg(u=0.3, k=1, s=1.0, secret="squeezed", secret_params=(0.25,)), fit20)
    assert math.isfinite(benign.f2)


def test_simulate_fidelity_validates_scenario(fit20):
    with pytest.raises(ValueError):
        simulate_fidelity("21", _cfg(), fit20)


def test_config_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        ProtocolConfig.from_dict({"nonsense": 1})
    cfg = ProtocolConfig.from_dict({"u": 0.4, "s": 2.0})
    assert cfg.u == 0.4
    assert cfg.s == 2.0


@pytest.mark.parametrize(
    "bad",
    [
        {"k": 0},
        {"k": 21},
        {"k": 5, "n_max": 4},
        {"n_max": 0},
        {"h": -1.0e-3},
        {"h": 2.0},
        {"s": -0.5},
        {"secret": "cat", "secret_params": [1.0]},
        {"secret": "coherent", "secret_params": [1.0]},
        {"secret": "squeezed"},
        {"secret": "squeezed", "secret_params": [0.1, 0.2]},
        {"s": math.nan},
        {"s": math.inf},
        {"u": math.nan},
        {"u": math.inf},
        {"h": math.nan},
        {"h": math.inf},
        {"length": 1.0},
        {"use_cache": True},
        {"cache_dir": 5},
        {"s": 355.0},
        {"secret": "squeezed", "secret_params": [177.5]},
        {"secret": "squeezed", "secret_params": [-177.5]},
        {"secret": "coherent", "secret_params": [1e200, 0.0]},
        {"secret": "coherent", "secret_params": [0.0, -1e200]},
        {"secret": "coherent", "secret_params": [0.0, math.nextafter(protocol._MAX_AMPLITUDE, math.inf)]},
    ],
)
def test_config_rejects_invalid(bad):
    with pytest.raises(ValueError):
        ProtocolConfig.from_dict(bad)


def test_config_accepts_boundaries():
    data = {"k": 4, "n_max": 4, "h": 0.0, "s": 0.0, "secret": "squeezed", "secret_params": [0.2]}
    cfg = ProtocolConfig.from_dict(data)
    assert (cfg.k, cfg.n_max, cfg.h, cfg.s, cfg.secret_params) == (4, 4, 0.0, 0.0, (0.2,))
    amp = protocol._MAX_AMPLITUDE
    assert ProtocolConfig(secret_params=(amp, -amp)).secret_params == (amp, -amp)
    # The largest squeezings whose covariance entries multiply without overflow.
    top = math.log(sys.float_info.max) / 2
    for r in (top / 2, -top / 2):
        cfg = ProtocolConfig.from_dict({"s": top, "secret": "squeezed", "secret_params": [r]})
        assert (cfg.s, cfg.secret_params) == (top, (r,))


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_fidelity_at_the_amplitude_bound_stays_finite(fit20, scenario):
    # The exponent delta^T (s1 + s2)^{-1} delta of the largest coherent
    # amplitude stays finite (an overflow's RuntimeWarning fails the test),
    # and so large that the fidelity underflows to 0.
    amp = protocol._MAX_AMPLITUDE
    cfg = _cfg(k=1, s=1.0, secret_params=(amp, -amp))
    assert [rep.f_sim for rep in fidelity_grid(scenario, cfg, [0.0, 0.3, 0.7, 1.0], fit20)] == [0.0] * 4


def test_make_secret():
    cfg = _cfg(secret="coherent", secret_params=(1.0, -1.0))
    assert np.allclose(cfg.make_secret().d, [1.0, -1.0])
    cfg = _cfg(secret="squeezed", secret_params=(0.3,))
    assert cfg.make_secret().sigma[0, 0] == pytest.approx(np.exp(-0.6), rel=1e-14)
    with pytest.raises(ValueError):
        _cfg(secret="cat", secret_params=()).make_secret()


def test_distribute_moves_two_shares(fit20):
    cfg = _cfg(u=0.3, k=1, s=1.0, h=1e-2)
    encoded = encode(coherent(1.0, 0.0), cfg.s)
    out = distribute(encoded, *journey_per_u("23", fit20, cfg.k, cfg.u).evaluate(cfg.h))
    # Shares 0 and 1 take the one-way journey (a half-turn at leading order
    # plus O(h^2) corrections); share 2 stays home untouched.
    assert np.allclose(out.d[:2], -encoded.d[:2], atol=1e-3)
    assert np.allclose(out.d[2:4], -encoded.d[2:4], atol=1e-3)
    assert np.allclose(out.d[4:], encoded.d[4:], atol=1e-14)
    assert np.allclose(out.sigma[4:, 4:], encoded.sigma[4:, 4:], atol=1e-14)


def test_figure_data_headers(fit20):
    grid = [0.25, 0.5]
    cfg = _cfg(s=1.0)
    for name in FIGURES:
        ((header, rows),) = figure_tables([name], fit20, grid, cfg)
        assert header[0] == "u"
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)
    with pytest.raises(ValueError):
        figure_tables(["bogus"], fit20, grid, cfg)


def _count_journey_builds(monkeypatch):
    # The stacked journeys of a u-grid (`_journeys`), the one journey route.
    counts = {"_journeys": 0}
    build = protocol._journeys

    def counting(*args, **kwargs):
        counts["_journeys"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(protocol, "_journeys", counting)
    return counts


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_report_builds_its_journey_channel_once(fit20, monkeypatch, scenario):
    # A report is the one-point grid: one stacked journey build; a 9-point
    # grid builds all its journeys in one call too.
    counts = _count_journey_builds(monkeypatch)
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), fit20)
    assert counts == {"_journeys": 1}
    fidelity_grid(scenario, _cfg(k=1, s=1.0), TABLE_GRID, fit20)
    assert counts == {"_journeys": 2}


def test_squeezed_figure_builds_no_scalar_journeys(fit20, monkeypatch):
    # The round trips of the whole grid are composed as one stack, the one
    # that `fidelity_grid` builds.
    counts = _count_journey_builds(monkeypatch)
    grid = [0.2, 0.3, 0.4]
    ((header, rows),) = figure_tables(["F2_12_squeezed"], fit20, grid, _cfg())
    assert counts == {"_journeys": 1}
    assert (header, rows) == figure_data_per_u("F2_12_squeezed", fit20, grid, _cfg())


@pytest.mark.parametrize("scenario, builds", [("12", 2), ("23", 1), ("13", 1)])
@pytest.mark.parametrize("secret, params", [("coherent", (0.7, -0.4)), ("squeezed", (0.25,))])
def test_report_builds_each_segment_map_once(fit20, monkeypatch, scenario, builds, secret, params):
    # The coherent secret's mode sums come from the journeys' own segment
    # maps, built in one stacked call and no one-segment call (which would
    # record a float u, not a list); a round trip builds its u and 2u phases
    # once each, over a whole grid too.
    calls, single = [], []
    build, one_channel = modes.segment_maps, channel.segment_channel
    monkeypatch.setattr(modes, "segment_maps", lambda fit, us, rows: calls.append((us.tolist(), rows)) or build(fit, us, rows))
    for namespace in (channel, protocol):
        monkeypatch.setattr(namespace, "segment_channel", lambda *args: single.append(args) or one_channel(*args))
    cfg = _cfg(u=0.3, k=1, s=1.0, secret=secret, secret_params=params)
    fidelity_report(scenario, cfg, fit20)
    assert calls == [([0.3, 0.6][:builds], (1,))]
    calls.clear()
    fidelity_grid(scenario, cfg, TABLE_GRID, fit20)
    phases = sorted({*TABLE_GRID, *(2.0 * u for u in TABLE_GRID)}) if scenario == "12" else TABLE_GRID
    assert calls == [(phases, (1,))]
    assert single == []


@pytest.mark.parametrize("scenario, checks", [("12", 7), ("23", 11), ("13", 12)])
def test_report_checks_each_pipeline_state_once(fit20, monkeypatch, scenario, checks):
    # The four accelerations run as one stack: one checked state per step,
    # and `distribute` sends both shares with one map.
    count = []
    check = GaussianState.__post_init__
    monkeypatch.setattr(GaussianState, "__post_init__", lambda state: count.append(1) or check(state))
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), fit20)
    assert len(count) == checks


@pytest.mark.parametrize("scenario, composes", [("12", 4), ("23", 2), ("13", 2)])
def test_report_composes_each_journey_from_its_first_channel(fit20, monkeypatch, scenario, composes):
    # A transit is three channels, a round trip five: one `compose` fewer
    # than channels, none onto an identity.
    count = []
    compose = protocol.compose
    monkeypatch.setattr(protocol, "compose", lambda after, before: count.append(1) or compose(after, before))
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), fit20)
    assert len(count) == composes


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_journeys_equal_the_identity_start_bit_for_bit(fit20, scenario):
    # At u = 0, 1/2 and 1 the segment blocks hold exact zeros, whose signs
    # composing onto the identity could flip; the journeys keep every bit.
    us, k = np.array([0.0, 0.5, 1.0]), 1
    journeys, _ = protocol._journeys(scenario, fit20, k, us)
    seg = channel.reduced_channel(*modes.grid_segments(fit20, us, (k,)))
    leg = channel.free_channel(inertial_phase(k, us))
    if scenario == "12":
        seg_mid = channel.reduced_channel(*modes.grid_segments(fit20, 2.0 * us, (k,)))
        parts = [seg, leg, seg_mid, leg, seg]
    else:
        parts = [seg, leg, seg]
    want = compose_from_identity(parts)
    for name in ("m0", "m2", "n2"):
        assert getattr(journeys, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_grid_checks_no_more_states_than_one_report(fit20, cache_dir, tmp_path, monkeypatch, scenario):
    # The u-grid runs through the pipeline as one stack: `rqss fidelity` on
    # 9 points checks no more states than one report at one u.
    count = []
    check = GaussianState.__post_init__
    monkeypatch.setattr(GaussianState, "__post_init__", lambda state: count.append(1) or check(state))
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), fit20)
    one = len(count)
    count.clear()
    argv = ["fidelity", "--scenario", scenario, "--grid", "0.1:0.9:0.1", "--nmax", "20"]
    assert main([*argv, "--cache-dir", str(cache_dir), "--out", str(tmp_path)]) == 0
    assert 0 < len(count) <= one


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_report_builds_no_symplectic_map(fit20, monkeypatch, scenario):
    # The dealer's splitter and the decoders are built once, at import.
    count = []
    check = SymplecticMap.__post_init__
    monkeypatch.setattr(SymplecticMap, "__post_init__", lambda smap: count.append(1) or check(smap))
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), fit20)
    assert count == []


def test_calibration_runs_its_probes_as_stacks(monkeypatch):
    # Twelve pipeline runs: three for the solve, one stack of four secrets per
    # checked squeezing, one stack of four probes per certificate decoder.
    count = []
    check = GaussianState.__post_init__
    monkeypatch.setattr(GaussianState, "__post_init__", lambda state: count.append(1) or check(state))
    calibrate_decoder()
    assert len(count) <= 125


def test_calibration_encodes_each_secret_set_once_and_builds_only_rescalings(monkeypatch):
    # Seven encodings feed the twelve pipeline runs: one per solve secret,
    # one per checked squeezing, one for the certificate's probes.  Every
    # decoder is scenario 23's with its splitter built at import, so the
    # only maps built are the twelve output rescalings.
    maps, encodes, states = [], [], []
    check_map, check_state, encode = SymplecticMap.__post_init__, GaussianState.__post_init__, protocol.encode
    monkeypatch.setattr(SymplecticMap, "__post_init__", lambda smap: maps.append(1) or check_map(smap))
    monkeypatch.setattr(GaussianState, "__post_init__", lambda state: states.append(1) or check_state(state))
    monkeypatch.setattr(protocol, "encode", lambda secret, s: encodes.append(s) or encode(secret, s))
    calibrate_decoder()
    assert (len(maps), len(encodes), len(states)) == (12, 7, 97)


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_simulation_is_the_report_f_sim_and_the_stage_sequence_bit_for_bit(fit20, scenario):
    # 144 configs per scenario: three squeezings, three kinds of secret, four
    # phases and four accelerations, h = 0 included.
    secrets = [("coherent", (0.0, 0.0)), ("coherent", (0.7, -0.4)), ("squeezed", (0.25,))]
    for s, (secret, params), u, h in itertools.product([0.5, 1.0, 2.0], secrets, [0.1, 0.3, 0.55, 0.9], [0.0, 1e-2, 3e-2, 0.1]):
        cfg = _cfg(s=s, secret=secret, secret_params=params, u=u, h=h)
        f_sim = simulate_fidelity(scenario, cfg, fit20)
        assert f_sim == fidelity_report(scenario, cfg, fit20).f_sim == fidelity_by_stages(scenario, cfg, fit20, h)


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
@pytest.mark.parametrize("secret, params", [("coherent", (0.7, -0.4)), ("squeezed", (0.25,))])
def test_report_equals_per_h_simulation_bit_for_bit(fit20, scenario, secret, params):
    cfg = _cfg(u=0.3, k=1, s=1.0, secret=secret, secret_params=params, h=7e-3)
    rep = fidelity_report(scenario, cfg, fit20)
    assert rep.f_sim == simulate_fidelity(scenario, cfg, fit20)
    ladder = [simulate_fidelity(scenario, replace(cfg, h=h), fit20) for h in DEFAULT_F2_LADDER]
    assert not math.isnan(rep.f2_extrapolated)
    assert rep.f2_extrapolated == extrapolate_f2(ladder)[0]


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
@pytest.mark.parametrize("secret, params", [("coherent", (0.7, -0.4)), ("squeezed", (0.25,))])
def test_simulation_equals_stage_sequence_oracle(fit20, scenario, secret, params):
    cfg = _cfg(u=0.3, k=1, s=1.0, secret=secret, secret_params=params)
    for h in (2.5e-3, 1e-2):
        assert simulate_fidelity(scenario, replace(cfg, h=h), fit20) == fidelity_by_stages(scenario, cfg, fit20, h)


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_journeys_reduce_each_map_stack_once(fit20, monkeypatch, scenario):
    # Each journey build walks one stack of segment maps here and reduces it
    # once, on mode k, to the mode sums that its channels and a coherent
    # secret's closed form are both built from, whatever the secret.
    calls = []
    mode_sums = modes.mode_sums
    monkeypatch.setattr(modes, "mode_sums", lambda bogo, k: calls.append(k) or mode_sums(bogo, k))
    squeezed = _cfg(k=1, s=1.0, secret="squeezed", secret_params=(0.25,))
    fidelity_grid(scenario, squeezed, TABLE_GRID, fit20)
    fidelity_report(scenario, replace(squeezed, u=0.3), fit20)
    simulate_fidelity(scenario, _cfg(u=0.3, k=1, s=1.0), fit20)
    figure_tables(["F2_12_squeezed"], fit20, TABLE_GRID, squeezed)
    fidelity_grid(scenario, _cfg(k=1, s=1.0), TABLE_GRID, fit20)
    assert calls == [1] * 5


def test_a_fit_of_another_cutoff_is_rejected(fit20):
    # A config at n_max 40 with a fit at n_max 20 would give the n_max 20
    # numbers under the n_max 40 label.
    cfg = _cfg(n_max=40, u=0.3)
    calls = [
        lambda: fidelity_report("23", cfg, fit20),
        lambda: fidelity_grid("12", cfg, TABLE_GRID, fit20),
        lambda: simulate_fidelity("13", cfg, fit20),
        lambda: figure_tables(["T2"], fit20, TABLE_GRID, cfg),
        lambda: figure_tables(["F2_12_squeezed"], fit20, TABLE_GRID, cfg),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n_max = 20.*n_max = 40"):
            call()
    assert _cfg().transition(fit20) is fit20
