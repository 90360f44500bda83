"""Effective single-mode channels: blocks, composition, invariants, dilation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqss.channel import (
    PerturbativeChannel,
    apply_channel,
    channel_invariants,
    complex_pair_block,
    compose,
    cp_residual,
    free_channel,
    reduced_channel,
    segment_channel,
    t2_from_sums,
)
from rqss.gaussian import coherent, rotation_block, squeeze, tensor, two_mode_squeezed_vacuum
from rqss.modes import get_transition, grid_segments, mode_sums
from rqss.protocol import _journeys

from oracles import (
    full_maps,
    nbar_from_sums,
    noise_block_from_sums,
    noise_block_loop,
    thermal_lossy_forms,
    thermal_lossy_via_dilation,
)

IDENTITY = PerturbativeChannel(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))


def test_complex_pair_block_rotation():
    for theta in (0.0, 0.4, 2.0, -1.1):
        block = complex_pair_block(np.exp(1j * theta), 0.0)
        assert np.allclose(block, rotation_block(theta), atol=1e-15)


def test_complex_pair_block_squeeze():
    r = 0.6
    block = complex_pair_block(np.cosh(r), np.sinh(r))
    assert np.allclose(block, squeeze(r).matrix, atol=1e-14)


def test_blocks_of_arrays_are_stacks_of_the_one_value_blocks():
    # (..., 2, 2) stacks, item for item the bits of the one-value block.
    phis = np.array([[0.0, 0.4, 2.0], [-1.1, np.pi, 0.5 * np.pi]])
    alphas, betas = 1.2 * np.exp(1j * phis), 0.3 - 0.2j * phis
    rot, pair, no_beta = rotation_block(phis), complex_pair_block(alphas, betas), complex_pair_block(alphas, 0.0)
    assert rot.shape == pair.shape == no_beta.shape == (2, 3, 2, 2)
    for at in np.ndindex(phis.shape):
        assert rot[at].tobytes() == rotation_block(phis[at]).tobytes()
        assert pair[at].tobytes() == complex_pair_block(alphas[at], betas[at]).tobytes()
        assert no_beta[at].tobytes() == complex_pair_block(alphas[at], 0.0).tobytes()
    assert complex_pair_block(np.cosh(0.6), np.sinh(0.6)).shape == rotation_block(0.6).shape == (2, 2)


BLOCKS = ("m0", "m2", "n2")


def _record_adoptions(monkeypatch):
    """Spy on the constructor: one [(given, kept), ...] entry per channel built, block by block."""
    built = []
    adopt = PerturbativeChannel.__post_init__

    def spy(chan):
        given = [getattr(chan, name) for name in BLOCKS]
        adopt(chan)
        built.append([(block, getattr(chan, name)) for block, name in zip(given, BLOCKS)])

    monkeypatch.setattr(PerturbativeChannel, "__post_init__", spy)
    return built


def test_constructor_adopts_its_float_blocks_read_only():
    # Float blocks are kept as given, not copied: the channel shares their
    # data and makes them read-only, so neither it nor the caller can write.
    blocks = [np.eye(2), np.full((2, 2), 0.5), np.array([[2.0, 0.0], [0.0, 3.0]])]
    chan = PerturbativeChannel(*blocks)
    for name, block in zip(BLOCKS, blocks):
        arr = getattr(chan, name)
        assert arr is block and not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        chan.m0[0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        blocks[1] += 1.0
    # Anything else is converted to float first: that is the one copy.
    ints = PerturbativeChannel([[1, 0], [0, 1]], np.zeros((2, 2), dtype=int), np.zeros((3, 2, 2)))
    assert ints.m0.dtype == ints.m2.dtype == float and not ints.m2.flags.writeable
    with pytest.raises(ValueError, match="n2 must be 2x2"):
        PerturbativeChannel(np.eye(2), np.zeros((2, 2)), np.zeros((2, 3)))


def test_channels_built_here_adopt_their_blocks_read_only(fit20, monkeypatch):
    # Segment channels, free legs, compositions and the stacked journeys are
    # built on float blocks no caller holds: each is made read-only in place,
    # never copied.
    built = _record_adoptions(monkeypatch)
    us = np.array([0.1, 0.3, 0.45])
    journeys, _ = _journeys("12", fit20, 2, us)
    chans = [
        journeys,
        reduced_channel(mode_sums(full_maps(fit20, 0.3), 1)),
        free_channel(us),
        segment_channel(full_maps(fit20, 0.3), 1),
        compose(free_channel(0.2), IDENTITY),
    ]
    assert built
    for blocks in built:
        for given, kept in blocks:
            assert kept is given and kept.dtype == float and not kept.flags.writeable
    for chan in chans:
        assert not any(getattr(chan, name).flags.writeable for name in BLOCKS)


def test_a_walk_of_several_stacks_and_its_channels_copy_no_block(cache_dir, monkeypatch):
    # At n_max 160 the 31-point grid of three modes spans several map
    # stacks.  The walk joins each mode's sums, and each channel is built
    # once from the joined sums and adopts its blocks as built.
    built = _record_adoptions(monkeypatch)
    sums = grid_segments(get_transition(n_max=160, cache_dir=cache_dir), np.arange(1, 32) / 32, (1, 2, 3))
    chans = [reduced_channel(per_mode) for per_mode in sums]
    assert [chan.n2.shape for chan in chans] == [(31, 2, 2)] * 3
    assert len(built) == 3
    for blocks in built:
        assert all(kept is given for given, kept in blocks)


def test_free_channel():
    ch = free_channel(0.7)
    assert np.allclose(ch.m0, rotation_block(0.7), atol=1e-15)
    assert np.max(np.abs(ch.m2)) == 0.0
    assert np.max(np.abs(ch.n2)) == 0.0


def test_segment_channel_zeroth_order(fit20):
    u = 0.3
    ch = segment_channel(full_maps(fit20, u), 2)
    assert np.allclose(ch.m0, rotation_block(2.0 * np.pi * 2.0 * u), atol=1e-13)


def test_identity_and_evaluate():
    m, n = IDENTITY.evaluate(0.02)
    assert np.array_equal(m, np.eye(2))
    assert np.array_equal(n, np.zeros((2, 2)))


def test_evaluate_puts_the_h_axes_first(fit20):
    # One channel at H accelerations gives (H, 2, 2); a stack of U channels (H, U, 2, 2).
    hs = np.array([1e-2, 5e-3, 2.5e-3])
    one = segment_channel(full_maps(fit20, 0.3), 1)
    stack = compose(free_channel(np.array([0.4, 1.1])), one)
    for chan, shape in ((one, (3, 2, 2)), (stack, (3, 2, 2, 2))):
        m, n = chan.evaluate(hs)
        assert m.shape == n.shape == shape
        for i, h in enumerate(hs):
            m_h, n_h = chan.evaluate(h)
            assert np.array_equal(m[i], m_h)
            assert np.array_equal(n[i], n_h)


def test_compose_matches_sequential_application(fit20):
    bogo = full_maps(fit20, 0.3)
    seg = segment_channel(bogo, 1)
    leg = free_channel(1.1)
    combined = compose(leg, seg)
    h = 1e-3
    state = coherent(1.0, -0.5)
    m1, n1 = seg.evaluate(h)
    m2, n2 = leg.evaluate(h)
    stepwise = apply_channel(m2, n2, apply_channel(m1, n1, state, 0), 0)
    mc, nc = combined.evaluate(h)
    direct = apply_channel(mc, nc, state, 0)
    # Agreement to the h^4 terms the truncation drops.
    assert np.max(np.abs(direct.d - stepwise.d)) < 1e-10
    assert np.max(np.abs(direct.sigma - stepwise.sigma)) < 1e-10


def test_compose_associativity(fit20):
    bogo = full_maps(fit20, 0.2)
    a = segment_channel(bogo, 1)
    b = free_channel(0.9)
    c = segment_channel(full_maps(fit20, 0.4), 1)
    left = compose(a, compose(b, c))
    right = compose(compose(a, b), c)
    assert np.allclose(left.m0, right.m0, atol=1e-14)
    assert np.allclose(left.m2, right.m2, atol=1e-13)
    assert np.allclose(left.n2, right.n2, atol=1e-13)


def test_invariants_dual_route(fit20):
    u, k = 0.3, 1
    bogo = full_maps(fit20, u)
    ch = segment_channel(bogo, k)
    sums = mode_sums(bogo, k)
    inv = channel_invariants(ch)
    # The two routes are tied by the mode-map identity, so they agree to the
    # cutoff's truncation tail rather than to machine precision.
    assert inv.t2 == pytest.approx(t2_from_sums(sums), rel=1e-5)
    assert inv.nbar == pytest.approx(nbar_from_sums(sums), abs=1e-6)
    assert ch.n2.tobytes() == noise_block_from_sums(sums).tobytes()
    assert inv.rank == 2


@pytest.mark.parametrize("u", [0.05, 0.3, 0.5, 0.77, 1.3])
def test_noise_block_matches_loop(fit20, cache_dir, u):
    # n2 is read off the row sums (f_alpha, f_beta, g); the loop adds the
    # 2x2 products one coupled mode at a time.  The two round differently:
    # within 16 ulps of the block's largest entry (at most 8.4 measured, at
    # n_max 160).
    for fit in (fit20, get_transition(n_max=40, cache_dir=cache_dir), get_transition(n_max=160, cache_dir=cache_dir)):
        bogo = full_maps(fit, u)
        for k in (1, 2, 3, 20):
            n2, loop = segment_channel(bogo, k).n2, noise_block_loop(bogo, k)
            assert np.max(np.abs(n2 - loop)) <= 16 * np.finfo(float).eps * np.max(np.abs(n2)), (fit.n_max, k)
            assert n2.tobytes() == noise_block_from_sums(mode_sums(bogo, k)).tobytes()


def test_noise_trace_identity(fit20):
    bogo = full_maps(fit20, 0.4)
    for k in (1, 2, 3):
        sums = mode_sums(bogo, k)
        ch = segment_channel(bogo, k)
        assert np.trace(ch.n2) == pytest.approx(4.0 * (sums.f_alpha + sums.f_beta), rel=1e-12)


def test_degenerate_at_integer_phase(fit20):
    ch = segment_channel(full_maps(fit20, 1.0), 1)
    inv = channel_invariants(ch)
    assert inv.t2 == 0.0
    assert np.isnan(inv.nbar)
    assert inv.rank == 0


def test_transmissivity_below_one(fit20):
    ch = segment_channel(full_maps(fit20, 0.3), 1)
    inv = channel_invariants(ch)
    t = 1.0 - inv.t2 * 0.05**2
    assert 0.0 < t < 1.0


def test_thermal_lossy_dilation_oracle():
    # Beam-splitter dilation to a thermal environment reproduces the canonical
    # matrices; independent of the closed forms it is checked against.
    for t_val in (0.2, 0.6, 0.95):
        for nbar in (0.0, 0.3, 2.0):
            mc, nc = thermal_lossy_forms(t_val, nbar)
            md, nd = thermal_lossy_via_dilation(t_val, nbar)
            assert np.max(np.abs(mc - md)) < 1e-12
            assert np.max(np.abs(nc - nd)) < 1e-12
            assert cp_residual(mc, nc) > -1e-12


def test_cp_residual_flags_unphysical():
    m = np.sqrt(0.5) * np.eye(2)
    assert cp_residual(m, np.zeros((2, 2))) < -0.1


def test_apply_channel_embedding():
    state = tensor(coherent(1.0, 0.0), coherent(0.0, 2.0))
    out = apply_channel(rotation_block(np.pi), 0.1 * np.eye(2), state, mode=1)
    assert np.allclose(out.d, [1.0, 0.0, 0.0, -2.0], atol=1e-14)
    assert out.sigma[2, 2] == pytest.approx(1.1, rel=1e-14)
    assert out.sigma[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_apply_channel_on_several_modes_is_one_map_per_mode(fit20):
    # The same channel on modes 0 and 1 at once: one block-diagonal map,
    # equal to the two single-mode applications up to their intermediate
    # rounding (the protocol's own states come out bit for bit, see
    # test_simulation_equals_stage_sequence_oracle).
    state = tensor(two_mode_squeezed_vacuum(1.0), coherent(1.0, -0.5))  # modes 0 and 1 correlated
    m, n = segment_channel(full_maps(fit20, 0.3), 1).evaluate(np.array([1e-2, 3e-2]))
    both = apply_channel(m, n, state, mode=(0, 1))
    one_by_one = apply_channel(m, n, apply_channel(m, n, state, mode=0), mode=1)
    assert np.array_equal(both.d, one_by_one.d)
    np.testing.assert_allclose(both.sigma, one_by_one.sigma, rtol=1e-15, atol=1e-15)
    for bad in [(0, 3), (), (-1,)]:
        with pytest.raises(ValueError, match="outside"):
            apply_channel(m, n, state, mode=bad)


@settings(deadline=None, max_examples=25)
@given(u=st.floats(0.05, 0.95), k=st.integers(1, 3))
def test_segment_channel_cp_on_grid(u, k, fit20):
    ch = segment_channel(full_maps(fit20, u), k)
    m, n = ch.evaluate(0.02)
    assert cp_residual(m, n) > -1e-10
