"""Threshold secret sharing protocol: encoding, transit, decoding, fidelity."""

import gc
import itertools
import json
import math
import sys
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rqss.gaussian import (
    GaussianState,
    SymplecticMap,
    UnphysicalStateError,
    apply_symplectic,
    beam_splitter,
    coherent,
    fidelity_pure_mixed,
    phase_rotation,
    rotation_block,
    squeeze,
    squeezed_vacuum,
)
from rqss import channel, modes, protocol
from rqss.channel import apply_channel, embed_channel
from rqss.cli import main
from rqss.modes import STACK_ENTRIES, mode_sums
from rqss.protocol import (
    CALIBRATION_ENSEMBLE,
    DEFAULT_DECODER_GAIN,
    DEFAULT_DECODER_SQUEEZE,
    DEFAULT_F2_LADDER,
    FIGURES,
    ProtocolConfig,
    _GRID_STACK,
    _pipeline_h0,
    calibrate_decoder,
    collaborate,
    decoder_maps,
    encode,
    fidelity_closed_forms,
    fidelity_grid,
    fidelity_report,
    figure_tables,
    inertial_phase,
    simulate_fidelity,
)

from oracles import (
    compose_from_identity,
    fidelity_by_stages,
    figure_data_per_u,
    full_maps,
    journey_per_u,
    partial_trace,
    thermal_lossy_forms,
    vacuum,
)

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
    ch = protocol._journeys("12", fit20, 1, us).channel
    assert np.allclose(ch.m0, np.eye(2), atol=1e-12)
    tr = protocol._journeys("23", fit20, 1, us).channel
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
    m, n = embed_channel(*journey_per_u("12", fit20, cfg.k, cfg.u).evaluate(0.0), 3, (0, 1))
    decoded = collaborate(encode(secret, cfg.s), m, n, decoder_maps("12"))
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
    out = _pipeline_h0(encode(coherent(q0, p0), s), decoder_maps("23")[0])
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
    stack, stack_2u = (modes.grid_segments(fit20, phases, (1,))[0] for phases in (us, 2.0 * us))
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
            fidelity_pure_mixed(coherent(*qp), _pipeline_h0(encode(coherent(*qp), 1.0), protocol._pair_decoder((1, 2), g, r)))
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
    [(f2, source)] = protocol._extrapolated_f2([fids])
    assert f2 == pytest.approx(0.3, abs=1e-10)
    assert source == "three-point h-ladder fit of the simulated pipeline"
    # The window guard reads the fitted h^4 coefficient c4: at the top rung
    # h = 1e-2 it fires once |c4| h^4 passes |f2| h^2 / 4, at |c4| = 750.
    for c4, guarded in ((740.0, False), (-740.0, False), (760.0, True), (-760.0, True)):
        [(f2, source)] = protocol._extrapolated_f2([[1.0 + c1 * h**2 + c4 * h**4 for h in DEFAULT_F2_LADDER]])
        assert math.isnan(f2) == guarded == source.startswith("unavailable")


def test_stacked_extrapolation_equals_one_row_calls():
    # Random ladders, half of them with a quartic term large enough that the
    # window guard of `fidelity_grid` turns their coefficient into nan: every
    # row of the stack gets the bits of its one-row call.
    rng = np.random.default_rng(31)
    x = np.square(DEFAULT_F2_LADDER)
    c2 = rng.uniform(0.1, 2.0, 2000)
    c4 = rng.choice([-1.0, 1.0], 2000) * np.concatenate([rng.uniform(0.0, 1.0, 1000), rng.uniform(1e5, 1e6, 1000)])
    ladders = 1.0 - c2[:, None] * x + c4[:, None] * x**2 + rng.normal(0.0, 1e-15, (2000, 3))
    stacked = protocol._extrapolated_f2(ladders)
    rows = [pair for row in ladders.tolist() for pair in protocol._extrapolated_f2([row])]
    assert all(isinstance(f2, float) for f2, _ in stacked + rows)
    assert [source for _, source in stacked] == [source for _, source in rows]
    assert np.array([f2 for f2, _ in stacked]).tobytes() == np.array([f2 for f2, _ in rows]).tobytes()
    assert all(math.isfinite(f2) and source.startswith("three-point") for f2, source in stacked[:1000])
    assert all(math.isnan(f2) and source.startswith("unavailable") for f2, source in stacked[1000:])
    assert protocol._extrapolated_f2(np.zeros((0, 3))) == []


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


@pytest.mark.parametrize("scenario, travelling", [("12", (0, 1)), ("23", (0, 1, 2)), ("13", (0, 1, 2))])
def test_collaborate_sends_the_travelling_shares_through_one_channel(fit20, monkeypatch, scenario, travelling):
    # One channel call with the journey's three-share blocks: shares 0 and 1
    # travel on the round trip of scenario 12, where share 2 stays home
    # untouched, and all three on the transit of scenarios 23 and 13, where
    # share 2 goes out to meet its partner (a half-turn at leading order
    # plus O(h^2) corrections).
    cfg = _cfg(u=0.3, k=1, s=1.0, h=1e-2)
    encoded = encode(coherent(1.0, 0.0), cfg.s)
    journey = protocol._journeys(scenario, replace(fit20), cfg.k, np.array([cfg.u]))
    assert journey.travelling == travelling
    M, N = (block[0, 0] for block in journey.blocks([cfg.h]))
    sent, send = [], protocol.apply_channel
    monkeypatch.setattr(protocol, "apply_channel", lambda *args: sent.append((args, send(*args))) or sent[-1][1])
    collaborate(encoded, M, N, decoder_maps(scenario))
    (((m, n, state), out),) = sent
    assert m is M and n is N and state is encoded
    turn = 1.0 if scenario == "12" else -1.0
    for share in travelling:
        at = slice(2 * share, 2 * share + 2)
        assert np.allclose(out.d[at], turn * encoded.d[at], atol=1e-3)
    if scenario == "12":
        assert out.d[4:].tobytes() == encoded.d[4:].tobytes()
        assert out.sigma[4:, 4:].tobytes() == encoded.sigma[4:, 4:].tobytes()


# u-grids of one, nine and 28 points: 28 is the largest `_GRID_STACK` run.
_ROUTE_GRIDS = ([0.3], TABLE_GRID, [round(i / 29, 12) for i in range(1, 29)])


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_collaborate_decodes_the_kept_share_as_the_staged_route_bit_for_bit(fit20, scenario):
    # `collaborate` maps the journeyed shares by the decoder's two rows of
    # the kept share; the staged route applies the whole decoder map and
    # then traces out the other two shares.  On stacks of the ladder and an
    # h off it, for coherent and squeezed secrets at weak and strong s.
    smap, kept = decoder_maps(scenario)
    assert len(_ROUTE_GRIDS[-1]) == _GRID_STACK
    secrets = (coherent(0.3, -0.7), squeezed_vacuum(-0.5))
    for grid, secret, s in itertools.product(_ROUTE_GRIDS, secrets, (0.5, 8.0)):
        journey = protocol._journeys(scenario, fit20, 1, np.array(grid))
        M, N = journey.blocks((*DEFAULT_F2_LADDER, 7e-3))
        encoded = encode(secret, s)
        decoded = collaborate(encoded, M, N, (smap, kept))
        staged = partial_trace(apply_symplectic(smap, apply_channel(M, N, encoded)), [kept])
        assert decoded.d.tobytes() == staged.d.tobytes(), (len(grid), s)
        assert decoded.sigma.tobytes() == staged.sigma.tobytes(), (len(grid), s)


@st.composite
def _three_share_states(draw):
    """A physical three-share state: a thermal state with symplectic eigenvalues >= 1 under a random symplectic map."""
    angles = st.floats(-math.pi, math.pi)
    smap = np.eye(6)
    for mode in range(3):
        smap = squeeze(draw(st.floats(-1.5, 1.5)), mode, 3).matrix @ phase_rotation(draw(angles), mode, 3).matrix @ smap
    for pair in ((0, 1), (1, 2), (0, 2)):
        smap = beam_splitter(draw(st.floats(0.0, 1.0)), pair, 3).matrix @ smap
    thermal = np.diag(np.repeat([draw(st.floats(1.0, 5.0)) for _ in range(3)], 2))
    d = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(6)])
    return d, smap @ thermal @ smap.T


@settings(deadline=None, max_examples=100)
@given(moments=_three_share_states())
@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_a_decoder_map_keeps_every_accepted_state_physical(scenario, moments):
    # S (sigma + i Gamma) S^T = S sigma S^T + i Gamma for a symplectic S, so
    # the decoded three-share state, which `collaborate` no longer builds,
    # passes the state check whenever the journeyed shares do.
    try:
        state = GaussianState(*moments)
    except UnphysicalStateError:
        reject()
    smap, _ = decoder_maps(scenario)
    assert apply_symplectic(smap, state).n_modes == 3


@settings(deadline=None, max_examples=100)
@given(
    secret=st.one_of(
        st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)).map(lambda qp: coherent(*qp)),
        st.floats(-1.5, 1.5).map(squeezed_vacuum),
    ),
    s=st.floats(0.0, 3.0),
    channels=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 3.0), st.floats(-math.pi, math.pi)), min_size=1, max_size=4
    ),
)
@pytest.mark.parametrize("pair", [(1, 2), (0, 2), (0, 1)])
def test_a_channel_on_the_discarded_share_leaves_the_pair_marginal_bit_for_bit(pair, secret, s, channels):
    # Each decoder keeps a pair of shares; `collaborate` sends all three
    # shares of scenarios 23 and 13 through one block-diagonal channel, so
    # the share outside the pair must not move a bit of the pair's moments.
    # The channels are a stack of CP thermal-loss channels after a rotation.
    forms = [thermal_lossy_forms(t, nbar) for t, nbar, _ in channels]
    M = np.stack([rotation_block(phi) @ m for (_, _, phi), (m, _) in zip(channels, forms)])
    N = np.stack([n for _, n in forms])
    encoded = encode(secret, s)
    three = partial_trace(apply_channel(*embed_channel(M, N, 3, (0, 1, 2)), encoded), pair)
    two = partial_trace(apply_channel(*embed_channel(M, N, 3, pair), encoded), pair)
    assert three.d.tobytes() == two.d.tobytes()
    assert three.sigma.tobytes() == two.sigma.tobytes()


def test_figure_data_headers(fit20):
    grid = [0.25, 0.5]
    cfg = _cfg(s=1.0)
    for name in FIGURES:
        ((header, rows),) = figure_tables([name], cfg, grid, fit20)
        assert header[0] == "u"
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)
    with pytest.raises(ValueError):
        figure_tables(["bogus"], cfg, grid, fit20)


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_report_builds_its_journey_channel_once(fit20, count_calls, scenario):
    # A report is the one-point grid: one stacked journey build; a 9-point
    # grid builds all its journeys in one call too.
    counts = count_calls((protocol, "_journeys"))
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), fit20)
    assert counts == {"_journeys": 1}
    fidelity_grid(scenario, _cfg(k=1, s=1.0), TABLE_GRID, fit20)
    assert counts == {"_journeys": 2}


def test_squeezed_figure_builds_no_scalar_journeys(fit20, count_calls):
    # The round trips of the whole grid are composed as one stack, the one
    # that `fidelity_grid` builds.
    counts = count_calls((protocol, "_journeys"))
    grid = [0.2, 0.3, 0.4]
    ((header, rows),) = figure_tables(["F2_12_squeezed"], _cfg(), grid, fit20)
    assert counts == {"_journeys": 1}
    assert (header, rows) == figure_data_per_u("F2_12_squeezed", fit20, grid, _cfg())


@pytest.mark.parametrize("scenario, builds", [("12", 2), ("23", 1), ("13", 1)])
@pytest.mark.parametrize("secret, params", [("coherent", (0.7, -0.4)), ("squeezed", (0.25,))])
def test_report_builds_each_segment_map_once(fit20, monkeypatch, scenario, builds, secret, params):
    # The coherent secret's mode sums come from the journeys' own segment
    # maps, built in one stacked call and no one-segment call (which would
    # record a float u, not a list); a round trip walks its u phases and then
    # its 2u phases as one grid, over a whole grid too.  The count runs on a
    # copy of the fit with no journeys built on it yet.
    fit = replace(fit20)
    calls, single = [], []
    build, one_channel = modes.segment_maps, channel.segment_channel
    monkeypatch.setattr(modes, "segment_maps", lambda fit, us, rows: calls.append((us.tolist(), rows)) or build(fit, us, rows))
    for namespace in (channel, protocol):
        monkeypatch.setattr(namespace, "segment_channel", lambda *args: single.append(args) or one_channel(*args))
    cfg = _cfg(u=0.3, k=1, s=1.0, secret=secret, secret_params=params)
    fidelity_report(scenario, cfg, fit)
    assert calls == [([0.3, 0.6][:builds], (1,))]
    calls.clear()
    fidelity_grid(scenario, cfg, TABLE_GRID, fit)
    phases = [*TABLE_GRID, *(2.0 * u for u in TABLE_GRID)] if scenario == "12" else TABLE_GRID
    assert calls == [(phases, (1,))]
    assert single == []


# States a second identical report checks: the journeyed shares and the kept
# one; the decoded three-share state is never built.  The dealing (secret,
# TMSV, their product, the split shares, and f0's state in scenarios 23 and
# 13) is kept.
WARM_CHECKS = 2


@pytest.mark.parametrize("scenario, checks", [("12", 6), ("23", 7), ("13", 7)])
def test_report_checks_each_pipeline_state_once(fit20, monkeypatch, scenario, checks):
    # The four accelerations run as one stack: one checked state per step,
    # `collaborate` sends the travelling shares through one channel, and
    # each decoder's two rows of the kept share decode them.  On an empty
    # dealing memo, then again on the dealing the first report kept.
    count = []
    check = GaussianState.__post_init__
    monkeypatch.setattr(GaussianState, "__post_init__", lambda state: count.append(1) or check(state))
    protocol._dealt.cache_clear()
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), fit20)
    assert len(count) == checks
    count.clear()
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), fit20)
    assert len(count) == WARM_CHECKS


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_a_cold_report_checks_its_secret_pure_once_per_new_dealing_and_a_warm_one_never(fit20, monkeypatch, scenario):
    # The dealing checks its secret pure when it deals, and the decoded
    # shares' fidelities are the bare formula on that secret.  Only f0 of
    # scenarios 23 and 13, kept per dealing, calls the checked public function.
    checks, checked = [], []
    check, fidelity = protocol._check_pure, protocol.fidelity_pure_mixed
    monkeypatch.setattr(protocol, "_check_pure", lambda state: checks.append(state.d.shape) or check(state))
    monkeypatch.setattr(protocol, "fidelity_pure_mixed", lambda pure, other: checked.append(1) or fidelity(pure, other))
    protocol._dealt.cache_clear()
    cfgs = [_cfg(u=0.3, k=1, s=1.0), _cfg(u=0.3, k=1, s=2.0, secret="squeezed", secret_params=(0.25,))]
    for cfg in cfgs:
        fidelity_report(scenario, cfg, fit20)
    f0s = 0 if scenario == "12" else 2
    assert (checks, len(checked)) == ([(2,), (2,)], f0s)
    # Warm: other u's and a grid on the kept dealings check nothing.
    for cfg in cfgs:
        fidelity_report(scenario, replace(cfg, u=0.55), fit20)
        fidelity_grid(scenario, cfg, TABLE_GRID, fit20)
    assert (len(checks), len(checked)) == (2, f0s)


@pytest.mark.parametrize("scenario, composes", [("12", 4), ("23", 2), ("13", 2)])
def test_report_composes_each_journey_from_its_first_channel(fit20, monkeypatch, scenario, composes):
    # A transit is three channels, a round trip five: one `compose` fewer
    # than channels, none onto an identity.  On a fit with no journeys built.
    count = []
    compose = protocol.compose
    monkeypatch.setattr(protocol, "compose", lambda after, before: count.append(1) or compose(after, before))
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), replace(fit20))
    assert len(count) == composes


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_journeys_equal_the_identity_start_bit_for_bit(fit20, scenario):
    # At u = 0, 1/2 and 1 the segment blocks hold exact zeros, whose signs
    # composing onto the identity could flip; the journeys keep every bit.
    us, k = np.array([0.0, 0.5, 1.0]), 1
    journeys = protocol._journeys(scenario, fit20, k, us).channel
    seg = channel.reduced_channel(modes.grid_segments(fit20, us, (k,))[0])
    leg = channel.free_channel(inertial_phase(k, us))
    if scenario == "12":
        seg_mid = channel.reduced_channel(modes.grid_segments(fit20, 2.0 * us, (k,))[0])
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
    # Each side deals its secret anew, so both count the dealing's states.
    protocol._dealt.cache_clear()
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), fit20)
    one = len(count)
    count.clear()
    protocol._dealt.cache_clear()
    argv = ["fidelity", "--scenario", scenario, "--grid", "0.1:0.9:0.1", "--nmax", "20"]
    assert main([*argv, "--cache-dir", str(cache_dir), "--out", str(tmp_path)]) == 0
    assert 0 < len(count) <= one


def _dealing_key(secret: str, params: tuple, s: float) -> tuple:
    return secret, tuple(float(x).hex() for x in params), float(s).hex()


def _bits(report) -> dict:
    """A report's fields, each float as its exact bits."""
    return {name: value.hex() if isinstance(value, float) else value for name, value in report.to_json_dict().items()}


def test_a_sweep_over_scenarios_and_u_deals_its_secret_once(fit20, monkeypatch):
    # 27 reports on one (secret, s): three scenarios at each u of the table grid.
    encodes = []
    encode = protocol.encode
    monkeypatch.setattr(protocol, "encode", lambda secret, s: encodes.append(s) or encode(secret, s))
    protocol._dealt.cache_clear()
    for scenario, u in itertools.product(["12", "23", "13"], TABLE_GRID):
        fidelity_report(scenario, _cfg(u=u, s=0.75, secret_params=(0.4, -0.2)), fit20)
    assert encodes == [0.75]
    assert protocol._dealt.cache_info().currsize == 1


@pytest.mark.parametrize("secret, params", [("coherent", (0.0, 0.0)), ("coherent", (0.7, -0.4)), ("squeezed", (0.25,))])
def test_reports_on_a_kept_dealing_equal_their_cold_route(fit20, secret, params):
    cases = list(itertools.product(["12", "23", "13"], [0.5, 2.0], [0.1, 0.55, 0.9]))
    cold = []
    for scenario, s, u in cases:
        protocol._dealt.cache_clear()
        cold.append(fidelity_report(scenario, _cfg(u=u, s=s, secret=secret, secret_params=params), fit20))
    warm = [
        fidelity_report(scenario, _cfg(u=u, s=s, secret=secret, secret_params=params), fit20)
        for scenario, s, u in cases
    ]
    assert protocol._dealt.cache_info().hits >= len(cases) - 2
    assert json.dumps([r.to_json_dict() for r in warm]) == json.dumps([r.to_json_dict() for r in cold])


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_a_signed_zero_secret_has_its_own_dealing(fit20, scenario):
    # -0.0 == 0.0, so the two secrets are told apart by position, not as dict keys.
    secrets = [(-0.0, 0.0), (0.0, 0.0)]
    cold = []
    for params in secrets:
        protocol._dealt.cache_clear()
        cold.append(_bits(fidelity_report(scenario, _cfg(u=0.3, secret_params=params), fit20)))
    protocol._dealt.cache_clear()
    for i in [0, 1, 0]:
        assert _bits(fidelity_report(scenario, _cfg(u=0.3, secret_params=secrets[i]), fit20)) == cold[i]
    assert protocol._dealt.cache_info().currsize == 2
    negative = protocol._dealt(*_dealing_key("coherent", (-0.0, 0.0), 1.0))
    assert math.copysign(1.0, negative.secret.d[0]) == -1.0


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_integer_and_float_parameters_share_a_dealing_and_echo_the_config(fit20, scenario):
    protocol._dealt.cache_clear()
    by_int = fidelity_report(scenario, _cfg(u=0.3, s=1, secret_params=(0, 0)), fit20).to_json_dict()
    by_float = fidelity_report(scenario, _cfg(u=0.3, s=1.0, secret_params=(0.0, 0.0)), fit20).to_json_dict()
    assert protocol._dealt.cache_info().currsize == 1
    s_int, s_float = by_int.pop("s"), by_float.pop("s")
    assert (type(s_int), type(s_float), s_int) == (int, float, s_float)
    assert (by_int.pop("secret"), by_float.pop("secret")) == ("coherent(0, 0)", "coherent(0.0, 0.0)")
    assert json.dumps(by_int) == json.dumps(by_float)


def test_the_dealing_memo_keeps_at_most_its_bound(fit20):
    protocol._dealt.cache_clear()
    bound = protocol._dealt.cache_info().maxsize
    assert bound == protocol._DEALINGS_KEPT
    for i in range(bound + 5):
        fidelity_report("23", _cfg(u=0.3, secret_params=(0.01 * i, 0.0)), fit20)
        assert protocol._dealt.cache_info().currsize <= bound
    assert protocol._dealt.cache_info().currsize == bound


@pytest.mark.parametrize("secret, params", [("coherent", (0.7, -0.4)), ("squeezed", (0.25,))])
def test_dealt_states_are_read_only(secret, params):
    protocol._dealt.cache_clear()
    dealing = protocol._dealt(*_dealing_key(secret, params, 1.0))
    assert isinstance(dealing.f0, float)
    for state in (dealing.secret, dealing.encoded):
        for array in (state.d, state.sigma):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[..., 0] = 1.0


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_report_builds_no_symplectic_map(fit20, monkeypatch, scenario):
    # The dealer's splitter and the decoders are built once, at import.
    count = []
    check = SymplecticMap.__post_init__
    monkeypatch.setattr(SymplecticMap, "__post_init__", lambda smap: count.append(1) or check(smap))
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), fit20)
    assert count == []


def test_calibration_runs_its_probes_as_stacks(monkeypatch):
    # Twelve `collaborate` runs: three on the single secrets of the solve,
    # then one on the stack of four ensemble secrets per checked squeezing
    # (four runs) and one on the stack of four probes per certificate
    # decoder, the calibrated one and its four neighbours (five runs).
    stacks = []
    collaborate = protocol.collaborate
    monkeypatch.setattr(
        protocol, "collaborate", lambda encoded, *args: stacks.append(encoded.d.shape[:-1]) or collaborate(encoded, *args)
    )
    calibrate_decoder()
    assert stacks == [()] * 3 + [(4,)] * 9


def test_calibration_encodes_each_secret_set_once_and_checks_two_maps_per_decoder(monkeypatch):
    # Seven encodings feed the twelve pipeline runs: one per solve secret,
    # one per checked squeezing, one for the certificate's probes.  Every
    # decoder is scenario 23's at another gain and rescaling, multiplied
    # from blocks around a splitter built at import, and checks two maps: its
    # output squeeze and itself.  Eight decoders are built: three for the
    # solve, the calibrated one once for the four checked squeezings and the
    # certificate, and its four neighbours.  Each run checks two states: the
    # journeyed shares and the kept one.
    maps, encodes, states = [], [], []
    check_map, check_state, encode = SymplecticMap.__post_init__, GaussianState.__post_init__, protocol.encode
    monkeypatch.setattr(SymplecticMap, "__post_init__", lambda smap: maps.append(1) or check_map(smap))
    monkeypatch.setattr(GaussianState, "__post_init__", lambda state: states.append(1) or check_state(state))
    monkeypatch.setattr(protocol, "encode", lambda secret, s: encodes.append(s) or encode(secret, s))
    calibrate_decoder()
    assert (len(maps), len(encodes), len(states)) == (16, 7, 49)


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
    [(f2, _)] = protocol._extrapolated_f2([ladder])
    assert not math.isnan(rep.f2_extrapolated)
    assert rep.f2_extrapolated == f2


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
    # secret's closed form are both built from, whatever the secret.  Each
    # call gets a copy of the fit with no journeys built on it, as a fit
    # would reuse its journeys from the calls before.
    calls = []
    mode_sums = modes.mode_sums
    monkeypatch.setattr(modes, "mode_sums", lambda bogo, k: calls.append(k) or mode_sums(bogo, k))
    squeezed = _cfg(k=1, s=1.0, secret="squeezed", secret_params=(0.25,))
    fidelity_grid(scenario, squeezed, TABLE_GRID, replace(fit20))
    fidelity_report(scenario, replace(squeezed, u=0.3), replace(fit20))
    simulate_fidelity(scenario, _cfg(u=0.3, k=1, s=1.0), replace(fit20))
    figure_tables(["F2_12_squeezed"], squeezed, TABLE_GRID, replace(fit20))
    fidelity_grid(scenario, _cfg(k=1, s=1.0), TABLE_GRID, replace(fit20))
    assert calls == [1] * 5


# The segment-map stacks, channels and compositions that journey builds make.
_JOURNEY_BUILDS = ((modes, "segment_maps"), (protocol, "reduced_channel"), (protocol, "compose"))


def _held(fit) -> dict:
    """The journeys `_journeys` keeps for a fit, by (round trip, k, phase bytes), oldest first."""
    return protocol._JOURNEY_MEMO.get(fit, {})


def _held_sizes(fit) -> list:
    """u-points of each grid of journeys a fit holds, oldest first (a key holds its phases as float64 bytes)."""
    return [len(phases) // 8 for *_, phases in _held(fit)]


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
def test_a_second_report_on_the_same_journey_builds_nothing(fit20, count_calls, scenario):
    # The journey depends on neither the secret nor the squeezing: a second
    # report at the same k and u reuses it, with no map, channel or compose.
    fit = replace(fit20)
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=1.0), fit)
    built = protocol._journeys(scenario, fit, 1, np.array([0.3]))
    counts = count_calls(*_JOURNEY_BUILDS)
    fidelity_report(scenario, _cfg(u=0.3, k=1, s=2.0, secret="squeezed", secret_params=(0.25,)), fit)
    assert counts == {"segment_maps": 0, "reduced_channel": 0, "compose": 0}
    assert protocol._journeys(scenario, fit, 1, np.array([0.3])) is built
    assert list(_held(fit)) == [(scenario == "12", 1, np.array([0.3]).tobytes())]


def test_scenarios_23_and_13_share_the_transit(fit20, count_calls):
    fit = replace(fit20)
    fidelity_report("23", _cfg(u=0.3, k=1), fit)
    counts = count_calls(*_JOURNEY_BUILDS)
    fidelity_report("13", _cfg(u=0.3, k=1, s=0.5), fit)
    assert counts == {"segment_maps": 0, "reduced_channel": 0, "compose": 0}
    # The round trip at the same u is another journey.
    fidelity_report("12", _cfg(u=0.3, k=1), fit)
    assert counts == {"segment_maps": 1, "reduced_channel": 2, "compose": 4}
    assert len(_held(fit)) == 2


def test_another_u_k_or_fit_builds_anew(fit20, count_calls):
    fit = replace(fit20)
    fidelity_report("23", _cfg(u=0.3, k=1), fit)
    counts = count_calls(*_JOURNEY_BUILDS)
    fidelity_report("23", _cfg(u=0.4, k=1), fit)
    assert counts["segment_maps"] == 1
    fidelity_report("23", _cfg(u=0.3, k=2), fit)
    assert counts["segment_maps"] == 2
    other = replace(fit20)
    fidelity_report("23", _cfg(u=0.3, k=1), other)
    assert counts == {"segment_maps": 3, "reduced_channel": 3, "compose": 6}
    # The grid [0.3, 0.4] is another key than its points one by one.
    fidelity_grid("23", _cfg(k=1), [0.3, 0.4], fit)
    assert counts["segment_maps"] == 4
    assert (len(_held(fit)), len(_held(other))) == (4, 1)


def test_reports_on_one_fit_equal_reports_on_a_fresh_fit_per_call(fit20):
    # 81 reports per scenario from one fit, against the same reports each
    # built from scratch on a copy of the fit with no journeys on it.
    fit = replace(fit20)
    secrets = [("coherent", (0.0, 0.0)), ("coherent", (0.7, -0.4)), ("squeezed", (0.25,))]
    for scenario, s, (secret, params), u in itertools.product(["12", "23", "13"], [0.5, 1.0, 2.0], secrets, [0.1, 0.3, 0.55]):
        cfg = _cfg(s=s, secret=secret, secret_params=params, u=u)
        shared, fresh = (fidelity_report(scenario, cfg, f).to_json_dict() for f in (fit, replace(fit20)))
        assert json.dumps(shared, sort_keys=True) == json.dumps(fresh, sort_keys=True)
    # A transit and a round trip per u.
    assert len(_held(fit)) == 6


def test_a_fit_holds_at_most_stack_entries_u_points_of_journeys(fit10):
    # Oldest first out; a grid larger than the budget is built, not kept.
    fit = replace(fit10)
    half = STACK_ENTRIES // 2 - 1
    grids = [np.linspace(0.0, 1.0, half), np.linspace(0.0, 0.5, half), np.linspace(0.0, 1.0, 20)]
    for us in grids:
        protocol._journeys("23", fit, 1, us)
        assert sum(_held_sizes(fit)) <= STACK_ENTRIES
    assert _held_sizes(fit) == [half, 20]
    protocol._journeys("12", fit, 1, grids[0])
    assert _held_sizes(fit) == [20, half]
    too_many = np.linspace(0.0, 1.0, STACK_ENTRIES + 1)
    journey = protocol._journeys("23", fit, 1, too_many)
    journeys, (sums,) = journey.channel, journey.sums
    assert journeys.m0.shape == (STACK_ENTRIES + 1, 2, 2) and sums.f_alpha.shape == (STACK_ENTRIES + 1,)
    assert _held_sizes(fit) == [20, half]
    assert protocol._journeys("23", fit, 1, too_many) is not protocol._journeys("23", fit, 1, too_many)


@pytest.mark.parametrize("scenario", ["12", "23"])
def test_kept_journeys_and_their_sums_are_read_only(fit20, scenario):
    fit = replace(fit20)
    journey = protocol._journeys(scenario, fit, 1, np.array([0.2, 0.3]))
    assert _held(fit)[(scenario == "12", 1, np.array([0.2, 0.3]).tobytes())] is journey
    journeys, sums = journey.channel, journey.sums
    arrays = [getattr(journeys, name) for name in ("m0", "m2", "n2")]
    arrays += [getattr(per_segment, f.name) for per_segment in sums for f in fields(per_segment)]
    assert len(arrays) == 3 + 6 * len(sums)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_a_fits_journeys_die_with_it(fit20):
    # The memo holds its fit weakly: once the fit is gone, so are its journeys.
    fit = replace(fit20)
    fidelity_grid("12", _cfg(k=1), TABLE_GRID, fit)
    fidelity_report("23", _cfg(u=0.3, k=1), fit)
    assert len(_held(fit)) == 2
    alive, held = weakref.ref(fit), len(protocol._JOURNEY_MEMO)
    del fit
    gc.collect()
    assert alive() is None and len(protocol._JOURNEY_MEMO) == held - 1


def _has_ladder(journey) -> bool:
    """Whether a kept journey holds its ladder blocks (`_Journey.ladder` is built on its first read)."""
    return "ladder" in vars(journey)


def test_a_journey_embeds_its_ladder_blocks_once_and_scenarios_23_and_13_share_them(fit20, monkeypatch):
    fit = replace(fit20)
    embeds = []
    embed = protocol.embed_channel
    monkeypatch.setattr(protocol, "embed_channel", lambda M, N, n, modes: embeds.append((M.shape, modes)) or embed(M, N, n, modes))
    fidelity_report("23", _cfg(u=0.3, k=1, s=1.0), fit)
    transit = _held(fit)[(False, 1, np.array([0.3]).tobytes())]
    ladder = transit.ladder
    for scenario, s in (("13", 0.5), ("23", 2.0), ("12", 1.0), ("12", 0.5), ("13", 1.0)):
        fidelity_report(scenario, _cfg(u=0.3, k=1, s=s), fit)
    # One embedding per journey, of its three rungs on its travelling shares.
    assert embeds == [((3, 1, 2, 2), (0, 1, 2)), ((3, 1, 2, 2), (0, 1))]
    assert transit.ladder is ladder
    assert _has_ladder(_held(fit)[(True, 1, np.array([0.3]).tobytes())])
    # An h off the ladder embeds its own row on each report, never the rungs again.
    embeds.clear()
    for _ in range(2):
        fidelity_report("13", _cfg(u=0.3, k=1, h=7e-3), fit)
    assert embeds == [((1, 1, 2, 2), (0, 1, 2))] * 2


@pytest.mark.parametrize("scenario, travelling", [("12", (0, 1)), ("23", (0, 1, 2))])
def test_kept_ladder_blocks_are_read_only_and_equal_a_fresh_embedding(fit20, scenario, travelling):
    fit = replace(fit20)
    us = np.array([0.2, 0.3, 0.55])
    fidelity_grid(scenario, _cfg(k=1), us.tolist(), fit)
    journey = _held(fit)[(scenario == "12", 1, us.tobytes())]
    assert journey.travelling == travelling
    M, N = journey.ladder
    for arr in (M, N):
        assert arr.shape == (3, us.size, 6, 6)
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0, 0] = 0.0
    # The channel at the three rungs, placed by hand on each travelling share.
    m, n = journey.channel.evaluate(np.array(DEFAULT_F2_LADDER))
    want_m, want_n = np.broadcast_to(np.eye(6), M.shape).copy(), np.zeros(N.shape)
    for share in travelling:
        at = slice(2 * share, 2 * share + 2)
        want_m[..., at, at], want_n[..., at, at] = m, n
    assert M.tobytes() == want_m.tobytes() and N.tobytes() == want_n.tobytes()


@pytest.mark.parametrize("scenario", ["12", "23"])
def test_every_kept_grid_keeps_its_ladder_and_a_grid_past_the_bound_keeps_none(fit20, scenario):
    # One route for every grid size: a grid the fit keeps, one stack of
    # `collaborate` or many, keeps its ladder blocks on its journey; a grid
    # past the journey bound is not kept, and neither are its blocks.
    fit = replace(fit20)
    for size in (1, _GRID_STACK, _GRID_STACK + 1, STACK_ENTRIES):
        us = np.linspace(0.0, 1.0, size)
        fidelity_grid(scenario, _cfg(k=1), us.tolist(), fit)
        journey = _held(fit)[(scenario == "12", 1, us.tobytes())]
        assert _has_ladder(journey) and journey.ladder[0].shape == (3, size, 6, 6)
    held = dict(_held(fit))
    assert _held_sizes(fit) == [STACK_ENTRIES]
    fidelity_grid(scenario, _cfg(k=1), np.linspace(0.0, 1.0, STACK_ENTRIES + 1).tolist(), fit)
    assert _held(fit) == held


def _ladder_bytes(fit) -> int:
    """Bytes of the ladder blocks the journeys of a fit hold."""
    return sum(M.nbytes + N.nbytes for M, N in (j.ladder for j in _held(fit).values() if _has_ladder(j)))


def test_the_ladder_bytes_a_fit_holds_stay_within_the_journey_bound(fit20):
    # 2 x 3 x 36 float64 = 1728 B per kept u-point, and at most
    # STACK_ENTRIES kept u-points: mixed grid sizes, on and off the ladder,
    # never hold more, and the sweep does reach the bound.
    fit = replace(fit20)
    bound = STACK_ENTRIES * 1728
    held = []
    sizes = (1, 9, _GRID_STACK, _GRID_STACK + 1, 255, 1023, 2048, 9, STACK_ENTRIES, 63, STACK_ENTRIES + 1, 3000, 1)
    for i, (size, h) in enumerate(zip(sizes, itertools.cycle([1e-2, 7e-3]))):
        us = np.linspace(0.0, 1.0, size) + 1e-3 * i  # every grid its own journey
        fidelity_grid("12" if i % 2 else "23", _cfg(k=1, h=h), us.tolist(), fit)
        held.append(_ladder_bytes(fit))
        assert held[-1] == 1728 * sum(_held_sizes(fit)) <= bound
    assert max(held) == bound
def test_kept_blocks_leave_the_journey_bound_in_u_points(fit10):
    # The bound counts u-points of journeys, with blocks or without: beside
    # a grid that fills all but one u-point of it, a one-u report keeps its
    # journey and its blocks, and the next journey evicts the oldest grid.
    fit = replace(fit10)
    protocol._journeys("23", fit, 1, np.linspace(0.0, 1.0, STACK_ENTRIES - 1))
    fidelity_report("23", _cfg(n_max=10, u=0.3, k=1), fit)
    assert _held_sizes(fit) == [STACK_ENTRIES - 1, 1]
    assert _has_ladder(_held(fit)[(False, 1, np.array([0.3]).tobytes())])
    fidelity_report("12", _cfg(n_max=10, u=0.3, k=1), fit)
    assert _held_sizes(fit) == [1, 1]


@pytest.mark.parametrize("h", [1e-2, 7e-3, 0.0])
def test_reports_on_kept_blocks_equal_reports_on_a_fresh_fit(fit20, h):
    fit = replace(fit20)
    secrets = [("coherent", (0.0, 0.0)), ("coherent", (0.7, -0.4)), ("squeezed", (0.25,))]
    for scenario, s, (secret, params), u in itertools.product(["12", "23", "13"], [0.5, 2.0], secrets, [0.1, 0.55]):
        cfg = _cfg(s=s, secret=secret, secret_params=params, u=u, h=h)
        shared, fresh = (json.dumps(fidelity_report(scenario, cfg, f).to_json_dict()) for f in (fit, replace(fit20)))
        assert shared == fresh
    for scenario in ("12", "23", "13"):
        shared, fresh = (
            json.dumps([r.to_json_dict() for r in fidelity_grid(scenario, _cfg(h=h), TABLE_GRID, f)]) for f in (fit, replace(fit20))
        )
        assert shared == fresh
    assert len(_held(fit)) == 6 and all(map(_has_ladder, _held(fit).values()))


@pytest.mark.parametrize("scenario", ["12", "23", "13"])
@pytest.mark.parametrize("h, rows", [(1e-2, 3), (5e-3, 3), (2.5e-3, 3), (7e-3, 4), (0.0, 4)])
def test_a_report_runs_each_distinct_acceleration_once(fit20, monkeypatch, scenario, h, rows):
    # The three ladder rungs always run, and h as a fourth row only when it
    # is not a rung; the default h is the top rung.  Counted on the stacked
    # fidelities of the decoded shares (f0's checked fidelity is not a pipeline row).
    stacks = []
    fidelity = protocol._uhlmann_fidelity
    monkeypatch.setattr(protocol, "_uhlmann_fidelity", lambda pure, other: stacks.append(other.d.shape[:-1]) or fidelity(pure, other))
    cfg = _cfg(u=0.3, k=1, s=1.0, h=h, secret_params=(0.7, -0.4))
    f_sim = fidelity_report(scenario, cfg, fit20).f_sim
    assert stacks == [(rows, 1)]
    assert f_sim == fidelity_by_stages(scenario, cfg, fit20, h)


def test_a_fit_of_another_cutoff_is_rejected(fit20):
    # A config at n_max 40 with a fit at n_max 20 would give the n_max 20
    # numbers under the n_max 40 label.
    cfg = _cfg(n_max=40, u=0.3)
    calls = [
        lambda: fidelity_report("23", cfg, fit20),
        lambda: fidelity_grid("12", cfg, TABLE_GRID, fit20),
        lambda: simulate_fidelity("13", cfg, fit20),
        lambda: figure_tables(["T2"], cfg, TABLE_GRID, fit20),
        lambda: figure_tables(["F2_12_squeezed"], cfg, TABLE_GRID, fit20),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n_max = 20.*n_max = 40"):
            call()
    assert _cfg().transition(fit20) is fit20
