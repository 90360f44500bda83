"""Continuous-variable (2,3)-threshold secret sharing over accelerated links.

The dealer splits a single-mode secret against one arm of a two-mode squeezed
vacuum on a balanced beam splitter; the three output modes are the shares.
Shares 1 and 2 travel through accelerated journeys (modelled by the reduced
channels of :mod:`rqss.channel`); share 3 stays inertial until a collaboration
requires it to travel.  Any two shares reconstruct the secret, one share alone
carries nothing as the squeezing grows.

Inertial legs between powered segments are tuned by the dealer: each carries
a phase ``pi - 2 phi_a`` with ``phi_a`` the accumulated segment phase, and the
long storage legs last whole mode periods, so one full journey rotates a mode
by exactly pi at vanishing acceleration (a round trip by 2 pi).
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    _check_pure,
    _item,
    _mat_vec,
    _transpose,
    _uhlmann_fidelity,
    apply_symplectic,
    beam_splitter,
    coherent,
    fidelity_pure_mixed,
    phase_rotation,
    rotation_block,
    squeeze,
    squeezed_vacuum,
    tensor,
    two_mode_squeezed_vacuum,
    SymplecticMap,
)
from .modes import DEFAULT_NMAX, STACK_ENTRIES, ModeSums, TransitionFit, get_transition, grid_segments
from .channel import (
    PerturbativeChannel,
    apply_channel,
    channel_invariants,
    compose,
    cp_residual,
    embed_channel,
    free_channel,
    reduced_channel,
    t2_from_sums,
)
# Unused here; bound because perfbench/tests/test_harness.py checks rqss.protocol.segment_channel.
from .channel import segment_channel  # noqa: F401

# Decoder working point, fixed by the h = 0 calibration below and frozen
# here: a 2:1 recombining beam splitter needs feed-forward gain -2 sqrt 2
# and output q-rescaling by 1/sqrt 3 to hand back the secret exactly.
DEFAULT_DECODER_GAIN = -2.0 * math.sqrt(2.0)
DEFAULT_DECODER_SQUEEZE = 0.5 * math.log(3.0)
# Acceleration ladder used to pull the h^2 fidelity coefficient out of the
# simulated pipeline, and the scaled Vandermonde matrix of {1, h^2, h^4} on it.
DEFAULT_F2_LADDER = (1.0e-2, 5.0e-3, 2.5e-3)
_F2_X = np.asarray(DEFAULT_F2_LADDER) ** 2
_F2_VANDER = np.vander(_F2_X / _F2_X.max(), 3, increasing=True)
# Calibration: dealer squeezing of the solve and the certificate, coherent
# probe secrets and squeezings of the 1/(1 + e^{-s}) check, and its tolerance.
CALIBRATION_S = 1.0
CALIBRATION_ENSEMBLE = ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0), (-3.0, 3.0))
CALIBRATION_S_CHECKS = (0.0, 0.5, 1.0, 2.0)
CALIBRATION_TOL = 1e-6


# Parameter names of each secret kind, in the order of `secret_params`.
_SECRET_PARAMS = {"coherent": ("q", "p"), "squeezed": ("r",)}
# Largest x for which e^x times e^x stays finite.  The dealer's two-mode
# squeezed vacuum has covariance entries of order e^s and a squeezed secret
# of order e^(2|r|); the pipeline and the closed form (1 + e^s)^2 multiply
# such entries pairwise, so beyond this bound states overflow to inf or NaN.
_MAX_SQUEEZE_EXPONENT = math.log(sys.float_info.max) / 2
# Largest |q| and |p| of a coherent secret for which the fidelity's exponent
# delta^T (sigma1 + sigma2)^{-1} delta stays finite.  For a coherent secret
# (sigma1 + sigma2)^{-1} <= I, so the exponent is at most |delta|^2, and
# delta is the secret's mean times (I - A) with A the pipeline's mean map.
# |I - A| is O(h^2) and grows with the mode cutoff (3e4 at h = 1.99 and
# n_max 160); the margin 2^32 over the largest a with a times a finite
# covers it many times over.
_MAX_AMPLITUDE = math.sqrt(sys.float_info.max) / 2**32


def _is_number(value) -> bool:
    """A real number, and not a boolean (which Python counts as an integer)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class CalibrationError(RuntimeError):
    """Decoder calibration missed its analytic target."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one protocol evaluation."""

    s: float = 1.0
    secret: str = "coherent"
    secret_params: tuple = (0.0, 0.0)
    k: int = 1
    u: float = 0.25
    h: float = 1.0e-2
    n_max: int = DEFAULT_NMAX
    cache_dir: str | None = None

    def __post_init__(self):
        for name in ("s", "u", "h"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("k", "n_max"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise ValueError(f"cache_dir must be a string or null, got {self.cache_dir!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        if not 1 <= self.k <= self.n_max:
            raise ValueError(f"monitored mode k = {self.k} outside 1..{self.n_max}")
        if not 0.0 <= self.h < 2.0:
            raise ValueError(f"h must lie in [0, 2), got {self.h}")
        if not 0.0 <= self.s <= _MAX_SQUEEZE_EXPONENT:
            raise ValueError(f"dealer squeezing s must lie in [0, {_MAX_SQUEEZE_EXPONENT:.6f}], got {self.s}")
        if not isinstance(self.secret, str) or self.secret not in _SECRET_PARAMS:
            raise ValueError(f"unknown secret kind {self.secret!r}; choices: {sorted(_SECRET_PARAMS)}")
        params = self.secret_params
        if not isinstance(params, (tuple, list)) or not all(_is_number(x) and math.isfinite(x) for x in params):
            raise ValueError(f"secret_params must be a list of finite numbers, got {params!r}")
        object.__setattr__(self, "secret_params", tuple(params))
        if len(self.secret_params) != len(_SECRET_PARAMS[self.secret]):
            names = ",".join(_SECRET_PARAMS[self.secret])
            raise ValueError(f"{self.secret} secret needs parameters {names}, got {self.secret_params}")
        r_max = _MAX_SQUEEZE_EXPONENT / 2
        if self.secret == "squeezed" and not abs(self.secret_params[0]) <= r_max:
            raise ValueError(
                f"secret_params: squeezing r must lie in [-{r_max:.6f}, {r_max:.6f}], got {self.secret_params[0]}"
            )
        if self.secret == "coherent" and not all(abs(x) <= _MAX_AMPLITUDE for x in self.secret_params):
            raise ValueError(
                f"secret_params: coherent q and p must lie in [-{_MAX_AMPLITUDE!r}, {_MAX_AMPLITUDE!r}], "
                f"got {self.secret_params}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object of ProtocolConfig fields, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def transition(self, fit: TransitionFit | None = None) -> TransitionFit:
        """`fit`, checked to have this config's cutoff; without one, the fit of `n_max` from the cache."""
        if fit is None:
            return get_transition(self.n_max, cache_dir=self.cache_dir)
        if fit.n_max != self.n_max:
            raise ValueError(f"the fit has cutoff n_max = {fit.n_max}, the config n_max = {self.n_max}")
        return fit

    def make_secret(self) -> GaussianState:
        if self.secret == "coherent":
            return coherent(*self.secret_params)
        return squeezed_vacuum(*self.secret_params)


# ---------------------------------------------------------------------------
# encoding and journeys


# The dealer's balanced splitter of the secret port and arm A.
_SPLITTER = beam_splitter(0.5, (0, 1), 3)


def encode(secret: GaussianState, s: float) -> GaussianState:
    """Split the secret (or each secret of a stack) into three shares.

    The secret port is mixed with one TMSV arm: share 0 = (secret + arm A)/sqrt2,
    share 1 = (arm A - secret)/sqrt2, share 2 = arm B.
    """
    if secret.n_modes != 1:
        raise ValueError("the secret must be a single-mode state")
    return apply_symplectic(_SPLITTER, tensor(secret, two_mode_squeezed_vacuum(s)))


# Dealings a process keeps (`_dealt`): an entry is three small checked states,
# a few kilobytes, so this bound only stops a sweep over ever new secrets or
# squeezings from growing the memo without end.
_DEALINGS_KEPT = 64


class _Dealing:
    """A secret dealt at one squeezing: its state, checked pure once, the encoded shares and, once read, `f0`."""

    def __init__(self, config: ProtocolConfig):
        self.secret = config.make_secret()
        _check_pure(self.secret)
        self.encoded = encode(self.secret, config.s)
        self._s = config.s

    @functools.cached_property
    def f0(self) -> float:
        """Fidelity at h = 0 of scenarios 23 and 13, whose decoded state is sigma + 2 e^{-s} I."""
        ideal = GaussianState(self.secret.d, self.secret.sigma + 2.0 * math.exp(-self._s) * np.eye(2))
        return fidelity_pure_mixed(self.secret, ideal)


@functools.lru_cache(maxsize=_DEALINGS_KEPT)
def _dealt(secret: str, params: tuple, s: str) -> _Dealing:
    """The dealing of a secret kind at its parameters and squeezing, given as their `float.hex` bits.

    The dealer's states depend on the secret and s alone, never on the
    journey, so a process deals each (secret, s) once: every state is checked
    when it is first built, and its arrays are read-only.  Keyed by the float
    bits, -0.0 and 0.0 get their own dealings, while 1 and 1.0 share one, as
    they build the same states.
    """
    params = tuple(float.fromhex(x) for x in params)
    return _Dealing(ProtocolConfig(s=float.fromhex(s), secret=secret, secret_params=params))


def inertial_phase(k: int, u: float) -> float:
    """Dealer's tuning of a free leg following a segment of phase 2 pi k u (u may be an array)."""
    return math.pi - 2.0 * (2.0 * math.pi * k * u)


class _Journey:
    """A scenario's journeys at every phase of a u-grid, as a fit keeps them (`_journeys`).

    `channel` is the stacked journey channel and `sums` its segments' mode
    sums.  `travelling` names the shares that take the journey: shares 0
    and 1 on a round trip, where share 2 stays home, and all three on a
    transit, where shares 0 and 1 went out at distribution and share 2 goes
    out to meet its partner.
    """

    def __init__(self, channel: PerturbativeChannel, sums: tuple, travelling: tuple[int, ...]):
        self.channel, self.sums, self.travelling = channel, sums, travelling

    def blocks(self, hs):
        """The travelling shares' channel at accelerations `hs`, as (H, U, 6, 6) stacks of M and N on the three shares."""
        return embed_channel(*self.channel.evaluate(np.asarray(hs, dtype=float)), 3, self.travelling)

    @functools.cached_property
    def ladder(self):
        """`blocks` at the `DEFAULT_F2_LADDER` rungs: built on the first read, then kept read-only."""
        M, N = self.blocks(DEFAULT_F2_LADDER)
        M.flags.writeable = N.flags.writeable = False
        return M, N


# The journeys built on each fit (`_journeys`), keyed weakly by the fit:
# they die with it, and a copy of a fit starts with none.
_JOURNEY_MEMO = weakref.WeakKeyDictionary()


def _journeys(scenario: str, fit: TransitionFit, k: int, us: np.ndarray) -> _Journey:
    """The journeys of a scenario at every phase in `us`, as one stack.

    Scenarios 23 and 13 send shares on a transit: segment, tuned free leg,
    segment, a rotation by exactly pi at zeroth order.  Scenario 12 sends
    them on a round trip, whose two middle segments merge into one of phase
    2u: a rotation by exactly 2 pi.  A transit has the sums of its u
    segments, a round trip those of its u and its 2u segments, walked as one grid.

    A journey depends on the fit, its kind, k and the phases alone, never on
    the secret or the squeezing, so each is built once per fit and kept in
    `_JOURNEY_MEMO[fit]`: a later call at the same (kind, k, phases),
    scenarios 23 and 13 alike, returns the same `_Journey`, whose channel,
    sums and ladder blocks (`_Journey.ladder`, 1728 B per u-point) are
    read-only.  A fit holds at most `STACK_ENTRIES` u-points of journeys,
    the oldest grids making room for a new one; a larger grid is not kept.
    """
    held = _JOURNEY_MEMO.setdefault(fit, {})
    key = (scenario == "12", k, us.tobytes())
    if key in held:
        return held[key]
    leg = free_channel(inertial_phase(k, us))
    if scenario == "12":
        sums = grid_segments(fit, np.concatenate([us, 2.0 * us]), (k,))[0]
        out, mid = sums[: us.size], sums[us.size :]
        seg = reduced_channel(out)
        journeys = compose(seg, compose(leg, compose(reduced_channel(mid), compose(leg, seg))))
        built = _Journey(journeys, (out, mid), (0, 1))
    else:
        sums = grid_segments(fit, us, (k,))[0]
        seg = reduced_channel(sums)
        built = _Journey(compose(seg, compose(leg, seg)), (sums,), (0, 1, 2))
    if us.size <= STACK_ENTRIES:
        # The oldest grids make room; a key holds its grid's phases as float64 bytes.
        while sum(len(phases) for *_, phases in held) // us.itemsize + us.size > STACK_ENTRIES:
            del held[next(iter(held))]
        held[key] = built
    return built


# ---------------------------------------------------------------------------
# collaborations


# The 2:1 splitters on which share 2 meets share 1 (scenario 23) or share 0
# (scenario 13), built once for every decoder gain and rescaling.
_RECOMBINERS = {pair: beam_splitter(2.0 / 3.0, pair, 3).matrix for pair in ((1, 2), (0, 2))}


def _pair_decoder(pair: tuple[int, int], gain: float, r_out: float, half_turn: bool = False) -> SymplecticMap:
    """The decoder of shares `pair` = (kept, measured) as one map on the three shares.

    The shares meet on a 2:1 splitter, and the q outcome of a homodyne on
    the measured port is fed forward to the kept port's q with `gain`.
    Averaged over outcomes, that feed-forward is the gate
    q_kept += gain q_measured, p_measured -= gain p_kept followed by
    discarding the measured port (Weedbrook et al., RMP 84, 621 (2012)).
    The map is the splitter, the gate, the kept port's rescaling by
    squeezing `r_out` and, with `half_turn`, its rotation by pi, multiplied
    into one matrix and checked once; the caller discards the measured port.
    """
    kept, measured = pair
    gate = np.eye(6)
    gate[2 * kept, 2 * measured] = gain
    gate[2 * measured + 1, 2 * kept + 1] = -gain
    out = squeeze(r_out, kept, 3).matrix
    if half_turn:
        out = phase_rotation(math.pi, kept, 3).matrix @ out
    return SymplecticMap(out @ gate @ _RECOMBINERS[pair])


# Each scenario's decoder, independent of h, built once: (map on the three
# shares, the share it keeps).  Scenario 12 undoes the dealer's balanced
# splitter (an orthogonal map, so its transpose).  Share 0 carries the
# secret with the opposite sign to share 1, so the decoder of players 1
# and 3 ends with a half-turn.
_DECODERS = {
    "12": (SymplecticMap(_SPLITTER.matrix.T), 0),
    "23": (_pair_decoder((1, 2), DEFAULT_DECODER_GAIN, DEFAULT_DECODER_SQUEEZE), 1),
    "13": (_pair_decoder((0, 2), DEFAULT_DECODER_GAIN, DEFAULT_DECODER_SQUEEZE, half_turn=True), 0),
}


def decoder_maps(scenario: str) -> tuple[SymplecticMap, int]:
    """The prebuilt decoder of a scenario, used at every h: (map, kept share)."""
    if scenario not in _DECODERS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return _DECODERS[scenario]


def collaborate(
    encoded: GaussianState, M: np.ndarray, N: np.ndarray, decoder: tuple[SymplecticMap, int]
) -> GaussianState:
    """The travelling shares take their journeys, and two players decode with `decoder`, a `decoder_maps` entry.

    (M, N) is the journeys' channel on the three shares, (..., 6, 6) blocks
    as `_Journey.blocks` builds them.  In scenario 12 shares 0 and 1 go out
    and come back on the round trip, and the recombination frees the secret
    port exactly.  In scenarios 23 and 13 shares 0 and 1 go out at
    distribution and share 2 goes out to meet its partner.  Journeys on
    different shares commute, so they are one block-diagonal map.  Two
    steps, each ending in a checked state: the blocks act on the shares,
    and the decoder's two rows of the kept share map them to the decoded
    secret.  The decoded three-share state is never built: a checked
    symplectic S has S (sigma + i Gamma) S^T = S sigma S^T + i Gamma, so it
    is physical exactly when the journeyed shares are (Weedbrook et al.,
    RMP 84, 621 (2012)).
    """
    if encoded.n_modes != 3:
        raise ValueError("collaborate expects the three-share state")
    smap, kept = decoder
    shares = apply_channel(M, N, encoded)
    rows = smap.matrix[2 * kept : 2 * kept + 2]
    return GaussianState(_mat_vec(rows, shares.d), rows @ shares.sigma @ rows.T)


# ---------------------------------------------------------------------------
# perturbative fidelities


def fidelity_closed_forms(
    scenario: str,
    sums_u: ModeSums,
    sums_2u: ModeSums | None = None,
    s: float | None = None,
):
    """Second-order fidelity coefficient f2 for a coherent secret: a float, or an array over stacked sums.

    Scenario 12 needs the mode sums of both the u and the 2u segments;
    scenarios 23 and 13 need the squeezing s.
    """
    if scenario == "12":
        if sums_2u is None:
            raise ValueError("scenario 12 needs the 2u-segment sums")
        return 2.0 * (2.0 * sums_u.f_beta + sums_2u.f_beta)
    if scenario in ("23", "13"):
        if s is None:
            raise ValueError(f"scenario {scenario} needs the squeezing s")
        es = math.exp(s)
        return (
            4.0
            * es
            / (1.0 + es) ** 2
            * (sums_u.f_beta - sums_u.f_alpha + es * (sums_u.f_alpha + 2.0 * sums_u.f_beta))
        )
    raise ValueError(f"unknown scenario {scenario!r}")


def _direct_f2_scenario12(chan: PerturbativeChannel, secret: GaussianState) -> float:
    """Second-order fidelity loss from the round-trip channel's moments.

    Valid for any pure secret: the balanced recombination commutes with the
    identical per-share channels, so the decoded port sees the round-trip
    channel `chan` applied straight to the secret.  An array over a stack of
    round trips.  Only the h^2 term of the output covariance enters.
    """
    sigma2 = chan.m2 @ secret.sigma @ _transpose(chan.m0) + chan.m0 @ secret.sigma @ _transpose(chan.m2) + chan.n2
    return _item(0.25 * np.trace(np.linalg.solve(secret.sigma, sigma2), axis1=-2, axis2=-1))


@dataclass(frozen=True)
class FidelityReport:
    """Fidelity of one scenario, with the origin of every number."""

    scenario: str
    k: int
    u: float
    h: float
    s: float
    secret: str
    f0: float
    f2: float
    f_sim: float
    f2_extrapolated: float
    f2_closed: float
    f0_source: str
    f2_source: str
    f_sim_source: str

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def _extrapolated_f2(ladders) -> list[tuple[float, str]]:
    """(f2, source) of the three-point h-ladder fit of each row of the (U, 3) simulated fidelities `ladders`.

    The fidelity is analytic in h^2, so an exact {1, h^2, h^4} fit through a
    row's three `DEFAULT_F2_LADDER` samples isolates its h^2 coefficient;
    each row is solved as its own system, with the bits of its one-row call.
    Strong squeezing inflates the h^4 term roughly like e^{2s}: a row where
    it dominates the ladder (past s ~ 7) is outside the perturbative window
    and reads nan, with that reason as its source.
    """
    c = np.linalg.solve(_F2_VANDER, np.asarray(ladders, dtype=float)[..., None])[..., 0]
    x_top, h_top = _F2_X.max(), max(DEFAULT_F2_LADDER)
    f2, curvature = -c[:, 1] / x_top, c[:, 2] / x_top**2
    outside = np.abs(curvature) * h_top**4 > 0.25 * np.abs(f2) * h_top**2 + 1e-12
    return [
        (float("nan"), "unavailable: quartic term dominates the ladder, outside the perturbative window")
        if out
        else (value, "three-point h-ladder fit of the simulated pipeline")
        for value, out in zip(f2.tolist(), outside.tolist())
    ]


# u-points per run of `collaborate`: the (4, U, 6, 6) covariances of the
# three-share states at up to four accelerations (the ladder, and h off it)
# hold at most STACK_ENTRIES entries, so a long u-grid runs a few stacks in turn.
_GRID_STACK = STACK_ENTRIES // ((len(DEFAULT_F2_LADDER) + 1) * 36)


def _u_grid_and_fit(config: ProtocolConfig, grid, fit: TransitionFit | None, plotted: bool = False) -> tuple:
    """(u-grid as an array, fit, if `plotted` its walk on `FIGURE_MODES`); bad input raises before the fit loads."""
    grid = list(grid)
    us = np.array(grid, dtype=float)
    if us.ndim != 1 or not np.isfinite(us).all():
        raise ValueError(f"u-grid must be a list of finite numbers, got {grid!r}")
    if plotted and config.n_max < max(FIGURE_MODES):
        raise ValueError(f"n_max {config.n_max} is below the plotted modes {FIGURE_MODES}")
    fit = config.transition(fit)
    return us, fit, (grid_segments(fit, us, FIGURE_MODES) if plotted else None)


def fidelity_grid(scenario: str, config: ProtocolConfig, grid, fit: TransitionFit | None = None) -> list[FidelityReport]:
    """Closed-form, perturbative and simulated fidelities at every u of `grid`, one report per u.

    `config.u` is not read; the scenario and the grid are checked before the
    fit is loaded (`_u_grid_and_fit`).  The journeys of the whole grid are
    built as one stack (one walk of its segment phases, on the monitored
    mode's rows).  The pipeline runs each distinct acceleration once: the
    three h-ladder rungs, and `config.h` only when it is not one of them.
    Every grid reads the ladder blocks of its journey (`_Journey.ladder`),
    plus one row of blocks at `config.h` when it is off the ladder, and runs
    them through `collaborate` `_GRID_STACK` u-points at a time.  What does
    not depend on the grid is built once and reused: the journeys built on
    each fit (`_journeys`), and the dealing of each (secret, s), its secret
    checked pure, encoded shares and the `f0` of scenarios 23 and 13, for the
    latest `_DEALINGS_KEPT` pairs (`_dealt`).  So each kept share's fidelity
    is the bare Uhlmann formula (`_uhlmann_fidelity`).  Every state is checked
    once, when it is first built; a run of `collaborate` builds two, the
    journeyed shares and the kept share, and not the decoded three-share
    state, which a checked symplectic decoder keeps physical by congruence.
    The h^2 ladder fit (`_extrapolated_f2`) runs once on the grid's (U, 3)
    ladder fidelities.  Each report has the bits of a one-u grid.
    """
    decoder = decoder_maps(scenario)  # rejects an unknown scenario
    grid = list(grid)
    us, fit, _ = _u_grid_and_fit(config, grid, fit)
    coherent_secret = config.secret == "coherent"
    journey = _journeys(scenario, fit, config.k, us)
    dealing = _dealt(config.secret, tuple(float(x).hex() for x in config.secret_params), float(config.s).hex())
    secret, encoded = dealing.secret, dealing.encoded
    hs = DEFAULT_F2_LADDER if config.h in DEFAULT_F2_LADDER else (*DEFAULT_F2_LADDER, config.h)
    sims = np.empty((len(hs), us.size))
    M, N = journey.ladder
    if len(hs) > len(DEFAULT_F2_LADDER):
        m, n = journey.blocks(hs[-1:])
        M, N = np.concatenate([M, m]), np.concatenate([N, n])
    for start in range(0, us.size, _GRID_STACK):
        at = slice(start, start + _GRID_STACK)
        sims[:, at] = _uhlmann_fidelity(secret, collaborate(encoded, M[:, at], N[:, at], decoder))

    f2_closed = [float("nan")] * us.size
    if coherent_secret:
        f2_closed = fidelity_closed_forms(scenario, *journey.sums, s=config.s).tolist()
    if scenario == "12":
        f0, f0_source = 1.0, "round trip is the identity at h = 0"
        f2_direct = _direct_f2_scenario12(journey.channel, secret).tolist()
        direct_source = "trace of the round-trip second-order moments"
    else:
        f0, f0_source = dealing.f0, "decoded zeroth-order moments: sigma + 2 e^{-s} I"
        f2_direct, direct_source = f2_closed, "closed form from first-order mode sums"
    # Scenarios 23 and 13 have no closed form for other secrets: f2 is the ladder fit.
    from_ladder = scenario != "12" and not coherent_secret

    # The fields every report of the grid shares, built once.
    shared = dict(
        scenario=scenario, k=config.k, h=config.h, s=config.s, secret=f"{config.secret}{tuple(config.secret_params)}",
        f0=f0, f0_source=f0_source, f_sim_source=f"full pipeline at h = {config.h}",
    )
    reports = []
    f_sims = sims[hs.index(config.h)].tolist()
    rows = zip(grid, f_sims, _extrapolated_f2(sims[: len(DEFAULT_F2_LADDER)].T), f2_direct, f2_closed)
    for u, f_sim, (f2_extrap, extrap_source), direct, closed in rows:
        f2, f2_source = (f2_extrap, extrap_source) if from_ladder else (direct, direct_source)
        reports.append(
            FidelityReport(
                u=u, f2=f2, f_sim=f_sim, f2_extrapolated=f2_extrap, f2_closed=closed, f2_source=f2_source, **shared
            )
        )
    return reports


def fidelity_report(scenario: str, config: ProtocolConfig, fit: TransitionFit | None = None) -> FidelityReport:
    """Closed-form, perturbative and simulated fidelities at `config.u`: the one-point `fidelity_grid`."""
    return fidelity_grid(scenario, config, [config.u], fit)[0]


def simulate_fidelity(scenario: str, config: ProtocolConfig, fit: TransitionFit) -> float:
    """Full-pipeline fidelity of the decoded secret at config.u and config.h: its report's `f_sim`."""
    return fidelity_report(scenario, config, fit).f_sim


def fidelity_table(reports) -> tuple:
    """(header, rows) of `rqss fidelity`, a row per report; rel_gap is nan if an f2 is nan or |f2_closed| <= 1e-9."""
    rows = []
    for rep in reports:
        closed = abs(rep.f2_closed)  # a nan is not > 1e-9
        gap = abs(rep.f2_extrapolated - rep.f2_closed) / closed if closed > 1e-9 else float("nan")
        rows.append([rep.u, rep.f0, rep.f2, rep.f2_extrapolated, rep.f_sim, gap])
    return ["u", "f0", "f2", "f2_extrapolated", "f_sim", "rel_gap"], rows


# ---------------------------------------------------------------------------
# decoder calibration (h = 0)


@dataclass(frozen=True)
class DecoderCalibration:
    gain: float
    squeeze: float
    max_deviation: float
    fidelities: dict
    targets: dict

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


# The exact h = 0 transit of the three shares: a half-turn of each, without noise.
_TRANSIT_H0 = embed_channel(rotation_block(math.pi), np.zeros((2, 2)), 3, (0, 1, 2))
_TRANSIT_H0[0].flags.writeable = _TRANSIT_H0[1].flags.writeable = False


def _pipeline_h0(encoded: GaussianState, decoder: SymplecticMap) -> GaussianState:
    """Scenario-23 pipeline at h = 0 on encoded shares, stacked or not, through a `_pair_decoder((1, 2), ...)`."""
    return collaborate(encoded, *_TRANSIT_H0, (decoder, 1))


def calibrate_decoder() -> DecoderCalibration:
    """Fix the decoder gain and output rescaling once, at h = 0.

    The secret is unknown to the players, so the working point must maximize
    the fidelity guaranteed for an arbitrary coherent secret.  Any mean bias
    is amplified without bound by displacement (an unconstrained mean-fidelity
    search drifts to a biased noise-minimizing decoder that fails displaced
    secrets), hence the guaranteed-fidelity optimum is the unique unbiased
    point.  It is solved exactly from the pipeline's mean response: the p
    response is e^r p(0) whatever the gain, so r = -ln p(0); the q response
    is affine in the gain, so two evaluations fix the gain of unit response.
    The result is verified to hand back 1/(1 + e^{-s}) for each probe secret
    and squeezing, and certified to beat nearby decoders on large-amplitude
    probes; each set of probe secrets runs through the pipeline as one stack,
    encoded and checked pure once for all the decoders it meets, the
    calibrated one built once.
    """
    decoder = functools.partial(_pair_decoder, (1, 2))  # at (gain, r_out)
    r_out = -math.log(_pipeline_h0(encode(coherent(0.0, 1.0), CALIBRATION_S), decoder(0.0, 0.0)).d[1])
    q_shares = encode(coherent(1.0, 0.0), CALIBRATION_S)
    q_g0, q_g1 = (_pipeline_h0(q_shares, decoder(g, r_out)).d[0] for g in (0.0, 1.0))
    gain = float((1.0 - q_g0) / (q_g1 - q_g0))
    calibrated = decoder(gain, r_out)

    fids, targets = {}, {}
    worst = 0.0
    secrets = coherent(*np.transpose(CALIBRATION_ENSEMBLE))
    _check_pure(secrets)
    for s in CALIBRATION_S_CHECKS:
        target = 1.0 / (1.0 + math.exp(-s))
        targets[str(s)] = target
        row = _uhlmann_fidelity(secrets, _pipeline_h0(encode(secrets, s), calibrated)).tolist()
        fids[str(s)] = {f"({q0},{p0})": f for (q0, p0), f in zip(CALIBRATION_ENSEMBLE, row)}
        worst = max(worst, *(abs(f - target) for f in row))
    if worst > CALIBRATION_TOL:
        raise CalibrationError(
            f"calibrated decoder misses 1/(1+e^-s) by {worst:.3e} (gain {gain:.6f}, squeeze {r_out:.6f})"
        )

    # Optimality certificate: on far displaced probes the calibrated point
    # must beat every nearby decoder, confirming this is the guaranteed-
    # fidelity optimum and not just a feasible point.  The probe amplitude
    # must be large enough that the quadratic bias penalty of a perturbed
    # decoder dominates its linear noise benefit.
    amp = 200.0
    probes = coherent(np.array([amp, 0.0, -amp, 0.0]), np.array([0.0, amp, 0.0, -amp]))
    _check_pure(probes)
    probe_shares = encode(probes, CALIBRATION_S)

    def guaranteed(smap):
        return min(_uhlmann_fidelity(probes, _pipeline_h0(probe_shares, smap)).tolist())

    here = guaranteed(calibrated)
    for dg, dr in ((0.05, 0.0), (-0.05, 0.0), (0.0, 0.05), (0.0, -0.05)):
        if guaranteed(decoder(gain + dg, r_out + dr)) >= here:
            raise CalibrationError(
                f"decoder at ({gain:.6f}, {r_out:.6f}) is not a guaranteed-fidelity optimum"
            )
    return DecoderCalibration(
        gain=gain, squeeze=r_out, max_deviation=float(worst), fidelities=fids, targets=targets
    )


# ---------------------------------------------------------------------------
# figure data


FIGURES = ("T2", "nbar", "F2_23", "F2_12_squeezed")


# The modes of the T2, nbar and F2_23 figures, and of the `invariant_table` rows.
FIGURE_MODES = (1, 2, 3)
_FIGURE_SQUEEZINGS = (0.0625, 0.125, 0.25)


def figure_tables(names, config: ProtocolConfig, grid, fit: TransitionFit | None = None) -> list:
    """(header, rows) of each summary figure in `names`, in that order, over a u-grid.

    The names, the grid and the cutoff are checked before the fit is loaded
    (`_u_grid_and_fit`).  The T2, nbar and F2_23 figures read one walk of the
    grid on the plotted modes' rows (`grid_segments`), each distinct phase
    built and reduced once, and take its (mode, u) sums as one stack: one
    call each of `t2_from_sums`, `fidelity_closed_forms`, and
    `reduced_channel` followed by `channel_invariants` gives a figure's
    (mode, u) columns.  F2_12_squeezed, the one figure that runs below the
    plotted modes, takes the round trips of `fidelity_grid` on mode
    `config.k`, their u and 2u segments walked together, against the stack
    of its three squeezed secrets in one call.
    """
    names = list(names)
    for name in names:
        if name not in FIGURES:
            raise ValueError(f"unknown figure {name!r}; choices: {FIGURES}")
    us, fit, plotted = _u_grid_and_fit(config, grid, fit, bool(set(names) - {"F2_12_squeezed"}))
    tables = []
    for name in names:
        if name == "T2":
            header = ["u"] + [f"T2_k{k}" for k in FIGURE_MODES]
            columns = t2_from_sums(plotted)
        elif name == "F2_23":
            header = ["u"] + [f"F2_k{k}" for k in FIGURE_MODES]
            columns = fidelity_closed_forms("23", plotted, s=config.s)
        elif name == "nbar":
            header = ["u"] + [f"nbar_k{k}" for k in FIGURE_MODES]
            columns = channel_invariants(reduced_channel(plotted)).nbar
        else:
            header = ["u"] + [f"F2_r{r}" for r in _FIGURE_SQUEEZINGS]
            chan = _journeys("12", fit, config.k, us).channel
            # A (3, 1) stack of secrets against the (U,) stack of round trips.
            secrets = squeezed_vacuum(np.array(_FIGURE_SQUEEZINGS)[:, None])
            columns = _direct_f2_scenario12(chan, secrets)
        tables.append((header, np.column_stack([us, columns.T]).tolist()))
    return tables


def invariant_table(config: ProtocolConfig, grid, fit: TransitionFit | None = None) -> tuple:
    """(header, rows, least CP residual at config.h) of `rqss invariants`: (u, k, T2, nbar, rank) per u and mode.

    One walk of the plotted modes, as in the nbar figure, the grid and the
    cutoff checked before the fit is loaded (`_u_grid_and_fit`): one stack of
    (mode, u) channels, whose invariants and CP residuals are each one call.
    """
    us, _, sums = _u_grid_and_fit(config, grid, fit, True)
    chans = reduced_channel(sums)
    inv = channel_invariants(chans)
    t2, nbar, rank = (values.T.tolist() for values in (inv.t2, inv.nbar, inv.rank))  # (u, mode) lists
    rows = [[u, k, t2[i][j], nbar[i][j], rank[i][j]] for i, u in enumerate(us.tolist()) for j, k in enumerate(FIGURE_MODES)]
    worst_cp = min([np.inf, *cp_residual(*chans.evaluate(config.h)).ravel().tolist()])
    return ["u", "k", "T2", "nbar", "r"], rows, worst_cp
