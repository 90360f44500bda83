"""Phase-space building blocks: states, symplectic maps, measurement, fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqss.channel import apply_channel, embed_channel
from rqss.protocol import (
    _MAX_SQUEEZE_EXPONENT,
    DEFAULT_DECODER_GAIN,
    DEFAULT_DECODER_SQUEEZE,
    ProtocolConfig,
    _pair_decoder,
    encode,
    fidelity_grid,
)
from rqss.gaussian import (
    PHYSICALITY_TOL,
    GaussianState,
    SymplecticMap,
    apply_symplectic,
    beam_splitter,
    check_symplectic,
    coherent,
    fidelity_pure_mixed,
    phase_rotation,
    rotation_block,
    squeeze,
    squeezed_vacuum,
    symplectic_form,
    tensor,
    two_mode_squeezed_vacuum,
    UnphysicalStateError,
)

from oracles import check_state_by_reductions, homodyne_by_pseudo_inverse, partial_trace, vacuum

# Frozen oracle: |<alpha|0>|^2 = e^{-|alpha|^2} with |alpha|^2 = (q^2 + p^2)/2,
# so the fidelity of coherent(1, 0) to vacuum is e^{-1/2}.
COHERENT_VACUUM_FIDELITY = float(np.exp(-0.5))


def test_symplectic_form_structure():
    for n in (1, 2, 4):
        gamma = symplectic_form(n)
        assert gamma.shape == (2 * n, 2 * n)
        assert np.array_equal(gamma.T, -gamma)
        assert np.allclose(gamma @ gamma, -np.eye(2 * n))
        # Built once per mode count and shared: no caller may write to it.
        assert not gamma.flags.writeable
        assert symplectic_form(n) is gamma


def test_vacuum_saturates_uncertainty():
    state = vacuum(3)
    assert np.array_equal(state.d, np.zeros(6))
    assert np.array_equal(state.sigma, np.eye(6))
    herm = state.sigma + 1j * symplectic_form(3)
    assert abs(np.min(np.linalg.eigvalsh(herm))) < 1e-12


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum(0)


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), 0.1 * np.eye(2))


def test_coherent_overlap_oracle():
    assert fidelity_pure_mixed(coherent(0.0, 0.0), vacuum()) == pytest.approx(1.0, abs=1e-14)
    got = fidelity_pure_mixed(coherent(1.0, 0.0), vacuum())
    assert got == pytest.approx(COHERENT_VACUUM_FIDELITY, rel=1e-12)
    # General pair: F = e^{-(dq^2 + dp^2)/2}.
    a, b = coherent(0.7, -1.1), coherent(-0.4, 2.0)
    expect = np.exp(-((0.7 + 0.4) ** 2 + (-1.1 - 2.0) ** 2) / 2.0)
    assert fidelity_pure_mixed(a, b) == pytest.approx(expect, rel=1e-12)


def test_fidelity_rejects_mixed_reference():
    # One mixed state, and a stack holding one mixed state among pure ones.
    thermal = GaussianState(np.zeros(2), 2.0 * np.eye(2))
    stack = GaussianState(np.zeros((3, 2)), np.stack([np.eye(2), 2.0 * np.eye(2), np.eye(2)]))
    for mixed in (thermal, stack):
        with pytest.raises(ValueError, match="not pure: det sigma = 4.000000"):
            fidelity_pure_mixed(mixed, vacuum())


def test_a_squeezed_vacuum_stack_equals_its_states_bit_for_bit():
    rs = np.array([[0.0, -0.0, 0.0625], [0.125, 0.25, -0.7], [5e-324, 3.5, -170.0]])
    stack = squeezed_vacuum(rs)
    assert stack.d.shape == (3, 3, 2) and stack.sigma.shape == (3, 3, 2, 2)
    for at in np.ndindex(rs.shape):
        one = squeezed_vacuum(float(rs[at]))
        assert stack.d[at].tobytes() == one.d.tobytes() and stack.sigma[at].tobytes() == one.sigma.tobytes()


def test_squeezed_vacuum_variances():
    state = squeezed_vacuum(0.7)
    assert state.sigma[0, 0] == pytest.approx(np.exp(-1.4), rel=1e-14)
    assert state.sigma[1, 1] == pytest.approx(np.exp(1.4), rel=1e-14)
    herm = state.sigma + 1j * symplectic_form(1)
    assert abs(np.min(np.linalg.eigvalsh(herm))) < 1e-12


def test_tmsv_relative_quadrature():
    s = 1.3
    state = two_mode_squeezed_vacuum(s)
    v = np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert v @ state.sigma @ v == pytest.approx(np.exp(-s), rel=1e-12)
    w = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert w @ state.sigma @ w == pytest.approx(np.exp(-s), rel=1e-12)


def test_tmsv_marginal_is_thermal():
    s = 0.9
    reduced = partial_trace(two_mode_squeezed_vacuum(s), [0])
    assert np.allclose(reduced.sigma, np.cosh(s) * np.eye(2), atol=1e-12)
    assert np.array_equal(reduced.d, np.zeros(2))


def test_partial_trace_reorders():
    state = tensor(coherent(1.0, 2.0), coherent(3.0, 4.0))
    swapped = partial_trace(state, [1, 0])
    assert np.allclose(swapped.d, [3.0, 4.0, 1.0, 2.0])


def test_phase_rotation_convention():
    rotated = apply_symplectic(phase_rotation(np.pi / 2.0), coherent(1.0, 0.0))
    assert np.allclose(rotated.d, [0.0, -1.0], atol=1e-15)
    assert np.allclose(rotation_block(0.3), [[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]])


def test_squeeze_convention():
    out = apply_symplectic(squeeze(0.5), coherent(1.0, 1.0))
    assert out.d[0] == pytest.approx(np.exp(-0.5), rel=1e-14)
    assert out.d[1] == pytest.approx(np.exp(0.5), rel=1e-14)


def test_beam_splitter_means():
    state = tensor(coherent(1.0, 0.0), vacuum())
    out = apply_symplectic(beam_splitter(0.5), state)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(out.d, [r, 0.0, -r, 0.0], atol=1e-14)
    assert np.allclose(out.sigma, np.eye(4), atol=1e-14)


def test_beam_splitter_transmissivity():
    state = tensor(coherent(1.0, 0.0), vacuum())
    out = apply_symplectic(beam_splitter(0.25, (0, 1), 2), state)
    assert out.d[0] == pytest.approx(0.5, rel=1e-14)
    assert out.d[2] == pytest.approx(-np.sqrt(0.75), rel=1e-14)
    with pytest.raises(ValueError):
        beam_splitter(1.5)


def test_embedding_leaves_spectators_alone():
    state = tensor(tensor(coherent(1.0, 2.0), coherent(3.0, 4.0)), coherent(5.0, 6.0))
    out = apply_symplectic(phase_rotation(np.pi, 1, 3), state)
    assert np.allclose(out.d, [1.0, 2.0, -3.0, -4.0, 5.0, 6.0], atol=1e-14)


def test_symplectic_map_rejects_bad_matrix():
    with pytest.raises(ValueError):
        SymplecticMap(np.diag([2.0, 1.0]))


# The homodyne tests below check the outcome-averaged feed-forward on the
# pseudo-inverse route, the reference the package's decoder maps are
# compared with (test_decoder_map_then_discard_equals_the_homodyne_stages).


def test_homodyne_zero_gain_is_marginal():
    state = two_mode_squeezed_vacuum(0.8)
    kept = homodyne_by_pseudo_inverse(state, measured_mode=1, target_mode=0, gain=0.0)
    marginal = partial_trace(state, [0])
    assert np.allclose(kept.sigma, marginal.sigma, atol=1e-13)
    assert np.allclose(kept.d, marginal.d, atol=1e-13)


def test_homodyne_feedforward_epr_oracle():
    # On a two-mode squeezed vacuum, measuring q of one arm and feeding the
    # outcome into the other with gain -tanh(s) leaves q-variance 1/cosh(s).
    s = 1.1
    state = two_mode_squeezed_vacuum(s)
    out = homodyne_by_pseudo_inverse(state, 1, 0, gain=-np.tanh(s))
    assert out.sigma[0, 0] == pytest.approx(1.0 / np.cosh(s), rel=1e-12)
    assert out.sigma[1, 1] == pytest.approx(np.cosh(s), rel=1e-12)
    # Any other gain is worse in the fed quadrature.
    worse = homodyne_by_pseudo_inverse(state, 1, 0, gain=-np.tanh(s) + 0.2)
    assert worse.sigma[0, 0] > out.sigma[0, 0]


def test_homodyne_feedforward_mean_response():
    state = tensor(coherent(0.0, 0.0), coherent(2.0, 0.0))
    out = homodyne_by_pseudo_inverse(state, 1, 0, gain=0.5)
    assert out.d[0] == pytest.approx(1.0, rel=1e-14)


def test_homodyne_rejects_bad_arguments():
    state = two_mode_squeezed_vacuum(0.5)
    with pytest.raises(ValueError):
        homodyne_by_pseudo_inverse(state, 0, 0)
    with pytest.raises(ValueError):
        homodyne_by_pseudo_inverse(state, 1, 2)
    # q-variance e^-30 against p-variance e^30: a measured quadrature with no variance.
    with pytest.raises(ValueError, match="no variance"):
        homodyne_by_pseudo_inverse(tensor(coherent(0.0, 0.0), squeezed_vacuum(15.0)), 1, 0)


def _random_pure(rng):
    r = rng.uniform(-1.2, 1.2)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    d = rng.uniform(-3.0, 3.0, size=2)
    state = apply_symplectic(squeeze(r), vacuum())
    state = apply_symplectic(phase_rotation(phi), state)
    return GaussianState(state.d + d, state.sigma)


def test_fidelity_self_is_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = _random_pure(rng)
        assert fidelity_pure_mixed(state, state) == pytest.approx(1.0, abs=1e-10)


@settings(deadline=None, max_examples=40)
@given(
    r=st.floats(-1.0, 1.0),
    phi=st.floats(0.0, 6.28),
    t=st.floats(0.05, 0.95),
)
def test_symplectic_composition_stays_symplectic(r, phi, t):
    m = beam_splitter(t).matrix @ _two_mode(squeeze(r)).matrix @ _two_mode(phase_rotation(phi)).matrix
    assert check_symplectic(m) < 1e-12


def _two_mode(single: SymplecticMap) -> SymplecticMap:
    full = np.eye(4)
    full[:2, :2] = single.matrix
    return SymplecticMap(full)


@settings(deadline=None, max_examples=40)
@given(
    r=st.floats(-1.0, 1.0),
    phi=st.floats(0.0, 6.28),
    q0=st.floats(-4.0, 4.0),
    p0=st.floats(-4.0, 4.0),
)
def test_pure_states_stay_physical(r, phi, q0, p0):
    state = apply_symplectic(phase_rotation(phi), apply_symplectic(squeeze(r), vacuum()))
    state = GaussianState(state.d + np.array([q0, p0]), state.sigma)
    herm = state.sigma + 1j * symplectic_form(1)
    assert np.min(np.linalg.eigvalsh(herm)) > -1e-9


@settings(deadline=None, max_examples=30)
@given(s=st.floats(0.0, 2.5), gain=st.floats(-2.0, 2.0))
def test_homodyne_output_is_physical(s, gain):
    state = two_mode_squeezed_vacuum(s)
    out = homodyne_by_pseudo_inverse(state, 1, 0, gain=gain)
    herm = out.sigma + 1j * symplectic_form(1)
    assert np.min(np.linalg.eigvalsh(herm)) > -1e-9



def _random_state(rng, n_modes):
    """A random physical n-mode state: a random symplectic map on a thermal state."""
    s = np.eye(2 * n_modes)
    for mode in range(n_modes):
        s = phase_rotation(rng.uniform(0.0, 6.28), mode, n_modes).matrix @ s
        s = squeeze(rng.uniform(-1.0, 1.0), mode, n_modes).matrix @ s
    for mode in range(n_modes - 1):
        s = beam_splitter(rng.uniform(0.1, 0.9), (mode, mode + 1), n_modes).matrix @ s
    sigma = s @ np.diag(np.repeat(rng.uniform(1.0, 2.0, n_modes), 2)) @ s.T
    return GaussianState(rng.uniform(-2.0, 2.0, 2 * n_modes), 0.5 * (sigma + sigma.T))


def _stack(states):
    return GaussianState(np.stack([state.d for state in states]), np.stack([state.sigma for state in states]))


def _assert_items_equal(stacked, items):
    assert stacked.d.shape == (len(items),) + items[0].d.shape
    for i, item in enumerate(items):
        assert np.array_equal(stacked.d[i], item.d)
        assert np.array_equal(stacked.sigma[i], item.sigma)


def test_stacked_ops_equal_per_item_results():
    rng = np.random.default_rng(11)
    states = [_random_state(rng, 3) for _ in range(4)]
    stack = _stack(states)
    smap = beam_splitter(0.3, (0, 2), 3)
    _assert_items_equal(apply_symplectic(smap, stack), [apply_symplectic(smap, state) for state in states])

    hs = np.array([1e-2, 5e-3, 2.5e-3, 0.3])[:, None, None]
    m = rotation_block(0.7) + hs * np.array([[0.1, -0.3], [0.2, 0.05]])
    n = hs**2 * np.array([[1.0, 0.2], [0.2, 0.5]])
    for mode in range(3):
        # A stack of channels on one state, and one channel per state of a stack.
        full_m, full_n = embed_channel(m, n, 3, (mode,))
        got = apply_channel(full_m, full_n, states[0])
        _assert_items_equal(got, [apply_channel(mi, ni, states[0]) for mi, ni in zip(full_m, full_n)])
        got = apply_channel(full_m, full_n, stack)
        _assert_items_equal(got, [apply_channel(mi, ni, st) for mi, ni, st in zip(full_m, full_n, states)])

    for gain in (0.0, -1.3):
        got = homodyne_by_pseudo_inverse(stack, 2, 0, gain=gain)
        _assert_items_equal(got, [homodyne_by_pseudo_inverse(st, 2, 0, gain=gain) for st in states])

    _assert_items_equal(partial_trace(stack, [2, 0]), [partial_trace(state, [2, 0]) for state in states])

    qs, ps = rng.uniform(-3.0, 3.0, (2, 4))
    secrets = [coherent(q, p) for q, p in zip(qs, ps)]
    _assert_items_equal(coherent(qs, ps), secrets)
    tmsv, secret_stack = two_mode_squeezed_vacuum(0.8), coherent(qs, ps)
    # A stack beside one state, one state beside a stack, and two stacks.
    _assert_items_equal(tensor(secret_stack, tmsv), [tensor(sec, tmsv) for sec in secrets])
    _assert_items_equal(tensor(secrets[0], stack), [tensor(secrets[0], state) for state in states])
    _assert_items_equal(tensor(secret_stack, stack), [tensor(sec, state) for sec, state in zip(secrets, states)])
    _assert_items_equal(encode(secret_stack, 0.8), [encode(sec, 0.8) for sec in secrets])

    pure = _random_pure(rng)
    fids = fidelity_pure_mixed(pure, partial_trace(stack, [1]))
    assert isinstance(fids, np.ndarray)
    assert fids.tolist() == [fidelity_pure_mixed(pure, partial_trace(state, [1])) for state in states]
    assert isinstance(fidelity_pure_mixed(pure, partial_trace(states[0], [1])), float)


def test_stack_checks_each_state_on_its_own_scale():
    # A strongly squeezed state (entries ~ e^16) beside the vacuum.  Each is
    # checked against the tolerance of its own covariance; on the squeezed
    # state's scale the vacuum's defects below would pass.
    pair = _stack([squeezed_vacuum(8.0), vacuum()])
    h = 1e-2
    fine = apply_channel(np.stack([np.eye(2)] * 2), np.zeros((2, 2, 2)), pair)
    _assert_items_equal(fine, [squeezed_vacuum(8.0), vacuum()])
    with pytest.raises(ValueError, match="uncertainty bound"):
        # N = -h^2 I at one h only: the vacuum loses h^2 of variance.
        apply_channel(np.stack([np.eye(2)] * 2), np.stack([np.zeros((2, 2)), -h * h * np.eye(2)]), pair)
    skew = np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        GaussianState(pair.d, pair.sigma + np.stack([np.zeros((2, 2)), skew]))
    # The same skew on the squeezed state is within its own tolerance.
    GaussianState(pair.d, pair.sigma + np.stack([skew, np.zeros((2, 2))]))
    with pytest.raises(ValueError, match="does not match"):
        GaussianState(np.zeros((3, 2)), pair.sigma)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The shapes of the stacks `np.linalg.eigvalsh` is called on from here on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: calls.append(a.shape) or eigvalsh(a, *args, **kw))
    return calls


def _thermal_near_bound(n_modes, bad, margin):
    """Product of thermal modes: mode `bad` has sigma + i Gamma's minimum eigenvalue -margin * tol.

    A thermal mode of variance nu has eigenvalues nu - 1 and nu + 1; the
    other modes have nu = 2, so max|sigma| and with it tol do not depend on
    the bad mode's variance.
    """
    nus = np.full(n_modes, 2.0)
    tol = PHYSICALITY_TOL * np.max(nus[np.arange(n_modes) != bad], initial=1.0)
    nus[bad] = 1.0 - margin * tol
    return np.diag(np.repeat(nus, 2))


@pytest.mark.parametrize("n_modes", [1, 2, 3])
@pytest.mark.parametrize("margin, physical", [(1.0 - 1e-6, True), (1.0 + 1e-6, False)], ids=["inside", "outside"])
def test_physicality_check_at_the_bound(eigvalsh_calls, n_modes, margin, physical):
    # A minimum eigenvalue of sigma + i Gamma a millionth of tol inside or
    # outside -tol: alone, and at each position of a stack of random states.
    # Inside, the factorization alone accepts; outside, the eigenvalues reject.
    rng = np.random.default_rng(17)
    gamma = symplectic_form(n_modes)
    for bad in range(n_modes):
        sigma = _thermal_near_bound(n_modes, bad, margin)
        tol = PHYSICALITY_TOL * np.abs(sigma).max(initial=1.0)
        assert (np.linalg.eigvalsh(sigma + 1j * gamma).min() >= -tol) == physical
        eigvalsh_calls.clear()
        others = [_random_state(rng, n_modes).sigma for _ in range(3)]
        stacks = [sigma] + [np.stack(others[:at] + [sigma] + others[at:]) for at in range(4)]
        for stack in stacks:
            d = np.zeros(stack.shape[:-1])
            if physical:
                assert np.array_equal(GaussianState(d, stack).sigma, stack)
            else:
                with pytest.raises(UnphysicalStateError, match="uncertainty bound"):
                    GaussianState(d, stack)
        assert len(eigvalsh_calls) == (0 if physical else len(stacks))


def test_rejection_reports_the_smallest_eigenvalue_below_the_bound():
    rng = np.random.default_rng(23)
    sigmas = np.stack([_random_state(rng, 2).sigma for _ in range(3)])
    for at in range(3):
        bad = sigmas.copy()
        bad[at] = np.diag([0.999, 0.999, 2.0, 2.0])  # minimum eigenvalue 0.999 - 1
        with pytest.raises(UnphysicalStateError, match=r"min eig -1\.000e-03$"):
            GaussianState(np.zeros((3, 4)), bad)
        bad[(at + 1) % 3] = np.diag([2.0, 2.0, 0.996, 0.996])  # a second state, further below
        with pytest.raises(UnphysicalStateError, match=r"min eig -4\.000e-03$"):
            GaussianState(np.zeros((3, 4)), bad)


def test_largest_allowed_squeezings_are_physical(eigvalsh_calls):
    # The dealer's s and a squeezed secret's |r| at the bounds ProtocolConfig
    # allows: entries up to ~e^355, pure states, accepted by the factorization.
    assert two_mode_squeezed_vacuum(_MAX_SQUEEZE_EXPONENT).sigma[0, 0] > 1e153
    for r in (_MAX_SQUEEZE_EXPONENT / 2, -_MAX_SQUEEZE_EXPONENT / 2):
        assert squeezed_vacuum(r).sigma.max() > 1e153
    assert eigvalsh_calls == []


def test_physical_stacks_never_reach_the_eigensolver(eigvalsh_calls, fit20):
    # The (4, 9, 6, 6) three-share states of a 9-point fidelity grid (three
    # ladder accelerations and h, one row per u) are accepted by one Cholesky
    # factorization each; only a stack the factorization rejects is handed
    # to the eigensolver, once.
    rng = np.random.default_rng(29)
    encoded = encode(coherent(*rng.uniform(-2.0, 2.0, (2, 4, 9))), 1.0)
    assert encoded.sigma.shape == (4, 9, 6, 6)
    reports = fidelity_grid("13", ProtocolConfig(s=1.0), np.linspace(0.1, 0.9, 9).tolist(), fit20)
    assert len(reports) == 9
    assert eigvalsh_calls == []
    sigma = np.array(encoded.sigma)
    sigma[2, 5] = np.eye(6) * 0.5
    with pytest.raises(UnphysicalStateError):
        GaussianState(encoded.d, sigma)
    assert eigvalsh_calls == [(4, 9, 6, 6)]


def _put(d, sigma, where, value):
    """Write `value` into the first moments, a diagonal or an off-diagonal (both triangles) of sigma."""
    if where == "d":
        d[..., 2] = value
    elif where == "sigma-diagonal":
        sigma[..., 1, 1] = value
    else:
        sigma[..., 0, 3] = sigma[..., 3, 0] = value


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("where", ["d", "sigma-diagonal", "sigma-off-diagonal"])
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_non_finite_state_is_unphysical(eigvalsh_calls, value, where, stacked):
    # A NaN or inf in either moment is rejected before any arithmetic on
    # sigma, which would warn (an error here) or let the NaN pass the
    # factorization; the eigensolver is never reached.
    rng = np.random.default_rng(37)
    states = [_random_state(rng, 2) for _ in range(3)]
    d = np.stack([state.d for state in states])
    sigma = np.stack([state.sigma for state in states])
    if not stacked:
        d, sigma = d[0], sigma[0]
    GaussianState(d, sigma)  # accepted as they are
    bad_d, bad_sigma = d.copy(), sigma.copy()
    _put(bad_d[1] if stacked else bad_d, bad_sigma[1] if stacked else bad_sigma, where, value)
    with pytest.raises(UnphysicalStateError, match="NaN or infinite"):
        GaussianState(bad_d, bad_sigma)
    assert eigvalsh_calls == []


@pytest.mark.parametrize(
    "make",
    [lambda: squeezed_vacuum(400.0), lambda: squeezed_vacuum(-400.0), lambda: coherent(np.nan, 0.0),
     lambda: coherent(0.0, np.inf), lambda: two_mode_squeezed_vacuum(711.0), lambda: two_mode_squeezed_vacuum(800.0),
     lambda: squeezed_vacuum(np.array([[0.25], [400.0]]))],
    ids=["squeezed-400", "squeezed-minus-400", "coherent-nan", "coherent-inf", "tmsv-711", "tmsv-800", "squeezed-stack-400"],
)
def test_constructor_with_a_non_finite_moment_raises_the_state_error(make):
    # An overflowing squeezing is left infinite for the state check, so it
    # raises the state error, not a RuntimeWarning (an error in this suite).
    with pytest.raises(UnphysicalStateError, match="NaN or infinite"):
        make()


def test_zero_mode_state_is_rejected_and_an_empty_stack_accepted():
    for shape in ((), (3,)):
        with pytest.raises(ValueError, match="need at least one mode"):
            GaussianState(np.zeros(shape + (0,)), np.zeros(shape + (0, 0)))
    empty = GaussianState(np.zeros((0, 2)), np.zeros((0, 2, 2)))
    assert empty.d.shape == (0, 2) and empty.sigma.shape == (0, 2, 2)


def _outcome(check, d, sigma):
    """(exception type, message) of a rejection, or None for an accepted state or stack."""
    try:
        check(d, sigma)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _random_stack(rng, n_modes, shape):
    """Moments of random physical states in a stack of `shape`, and flat views of both."""
    states = [_random_state(rng, n_modes) for _ in range(int(np.prod(shape)))]
    dim = 2 * n_modes
    d = np.stack([state.d for state in states]).reshape(shape + (dim,))
    sigma = np.stack([state.sigma for state in states]).reshape(shape + (dim, dim))
    return d, sigma, d.reshape(-1, dim), sigma.reshape(-1, dim, dim)


# Each defect and what the check makes of it.
_DEFECTS = {
    "eig-inside": None,
    "eig-outside": (UnphysicalStateError, "uncertainty bound"),
    "skew-at-tol": None,
    "skew-above-tol": (ValueError, "not symmetric"),
    "non-finite": (UnphysicalStateError, "NaN or infinite"),
}


@settings(deadline=None, max_examples=200)
@given(
    n_modes=st.integers(1, 3),
    shape=st.sampled_from([(), (1,), (4,), (2, 3)]),
    defect=st.sampled_from(sorted(_DEFECTS)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_check_decides_as_the_reduction_route(n_modes, shape, defect, seed, data):
    # One state of a random stack sits on a boundary of the check: a minimum
    # eigenvalue of sigma + i Gamma a millionth of tol inside or outside -tol,
    # an asymmetry of exactly tol or a millionth above, or a NaN or inf in
    # either moment.  The check accepts or rejects as the route with per-state
    # maxima does, with the same exception and message.
    dim = 2 * n_modes
    d, sigma, d_flat, sigma_flat = _random_stack(np.random.default_rng(seed), n_modes, shape)
    at = data.draw(st.integers(0, len(d_flat) - 1))
    if defect.startswith("eig"):
        bad = data.draw(st.integers(0, n_modes - 1))
        sigma_flat[at] = _thermal_near_bound(n_modes, bad, 1.0 - 1e-6 if defect == "eig-inside" else 1.0 + 1e-6)
    elif defect.startswith("skew"):
        i, j = data.draw(st.permutations(range(dim)))[:2]
        # Thermal with variance 2: tol is 2e-9 and the off-diagonals are exact zeros.
        sigma_flat[at] = 2.0 * np.eye(dim)
        tol = PHYSICALITY_TOL * 2.0
        sigma_flat[at, i, j] = tol if defect == "skew-at-tol" else tol * (1.0 + 1e-6)
    else:
        value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if data.draw(st.booleans()):
            d_flat[at, data.draw(st.integers(0, dim - 1))] = value
        else:
            sigma_flat[at, data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))] = value
    want = _outcome(check_state_by_reductions, d, sigma)
    assert _outcome(GaussianState, d, sigma) == want
    expected = _DEFECTS[defect]
    assert (want is None) if expected is None else (want[0] is expected[0] and expected[1] in want[1])


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_non_finite_entry_at_every_position_is_rejected_as_before(n_modes):
    rng = np.random.default_rng(47)
    dim = 2 * n_modes
    positions = [("d", i) for i in range(dim)] + [("sigma", i, j) for i in range(dim) for j in range(dim)]
    for shape, at in (((), 0), ((3,), 1)):
        for position in positions:
            for value in (np.nan, np.inf, -np.inf):
                d, sigma, d_flat, sigma_flat = _random_stack(rng, n_modes, shape)
                if position[0] == "d":
                    d_flat[at, position[1]] = value
                else:
                    sigma_flat[at, position[1], position[2]] = value
                want = _outcome(check_state_by_reductions, d, sigma)
                assert want[0] is UnphysicalStateError
                assert _outcome(GaussianState, d, sigma) == want


@pytest.mark.parametrize("pair, half_turn", [((1, 2), False), ((0, 2), True)], ids=["23", "13"])
def test_decoder_map_then_discard_equals_the_homodyne_stages(pair, half_turn):
    # Averaged over outcomes, homodyning the measured port and feeding its q
    # forward is a linear gate followed by discarding that port, so a
    # decoder map and a trace to the kept share equal the stage sequence:
    # 2:1 splitter, pseudo-inverse homodyne, rescaling and half-turn (13).
    # Measured, relative to the input's largest entry: at most 4.8 eps on
    # sigma and 2.5 eps on d for these states, 10.8 and 4.4 over 400 seeds
    # of them; the bound is 32 eps.
    bound = 32 * np.finfo(float).eps
    kept, measured = pair
    rng = np.random.default_rng(43)
    one = _random_state(rng, 3)
    d, sigma, _, _ = _random_stack(rng, 3, (4, 9))
    for state in (one, GaussianState(d, sigma)):
        for gain in (0.0, -1.3, DEFAULT_DECODER_GAIN):
            decoder = _pair_decoder(pair, gain, DEFAULT_DECODER_SQUEEZE, half_turn)
            got = partial_trace(apply_symplectic(decoder, state), [kept])
            want = apply_symplectic(beam_splitter(2.0 / 3.0, pair, 3), state)
            want = homodyne_by_pseudo_inverse(want, measured, kept, gain=gain)
            want = apply_symplectic(squeeze(DEFAULT_DECODER_SQUEEZE, kept, 2), want)
            if half_turn:
                want = apply_symplectic(phase_rotation(np.pi, kept, 2), want)
            want = partial_trace(want, [kept])
            d_scale = np.abs(state.d).max(axis=-1)[..., None]
            sigma_scale = np.abs(state.sigma).max(axis=(-2, -1))[..., None, None]
            assert (np.abs(got.d - want.d) <= bound * d_scale).all()
            assert (np.abs(got.sigma - want.sigma) <= bound * sigma_scale).all()
