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

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import (
    GaussianState,
    _item,
    _transpose,
    apply_symplectic,
    beam_splitter,
    coherent,
    fidelity_pure_mixed,
    homodyne_feedforward,
    partial_trace,
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


def inertial_phase(k: int, u: float) -> float:
    """Dealer's tuning of a free leg following a segment of phase 2 pi k u (u may be an array)."""
    return math.pi - 2.0 * (2.0 * math.pi * k * u)


def _journeys(scenario: str, fit: TransitionFit, k: int, us: np.ndarray):
    """The journeys of a scenario at every phase in `us` as one stack, and their segments' mode sums.

    Scenarios 23 and 13 send shares on a transit: segment, tuned free leg,
    segment, a rotation by exactly pi at zeroth order.  Scenario 12 sends
    them on a round trip, whose two middle segments merge into one of phase
    2u: a rotation by exactly 2 pi.  A transit has the sums of its u
    segments, a round trip those of its u and of its 2u segments, each
    distinct phase of u and 2u built and reduced to its sums once.
    """
    leg = free_channel(inertial_phase(k, us))
    if scenario != "12":
        (sums,) = grid_segments(fit, us, (k,))
        seg = reduced_channel(sums)
        return compose(seg, compose(leg, seg)), [sums]
    # The distinct phases of u and 2u in order, and where each one went: a
    # set, because the first np.unique call of a process maps about 0.5 MB
    # more of numpy into memory.
    both = np.concatenate([us, 2.0 * us]).tolist()
    phases = sorted(set(both))
    index = {phase: i for i, phase in enumerate(phases)}
    where = np.array([index[phase] for phase in both], dtype=int)
    (sums,) = grid_segments(fit, np.array(phases), (k,))
    out, mid = sums[where[: us.size]], sums[where[us.size :]]
    seg = reduced_channel(out)
    journeys = compose(seg, compose(leg, compose(reduced_channel(mid), compose(leg, seg))))
    return journeys, [out, mid]


def distribute(encoded: GaussianState, M: np.ndarray, N: np.ndarray) -> GaussianState:
    """Send shares 0 and 1 through one-way journeys (M, N), as one map on both; share 2 stays home."""
    if encoded.n_modes != 3:
        raise ValueError("distribute expects the three-share state")
    return apply_channel(M, N, encoded, mode=(0, 1))


# ---------------------------------------------------------------------------
# collaborations


@dataclass(frozen=True)
class PairDecoder:
    """Two-share decoder at one working point, with its symplectic maps built.

    Recombines shares `pair` on a 2:1 beam splitter, homodynes the second
    share's port, feeds its q outcome forward to the first with `gain`, then
    rescales the kept port and, if `half_turn` is set, rotates it by pi.
    """

    pair: tuple[int, int]
    gain: float
    target: int
    recombine: SymplecticMap
    rescale: SymplecticMap
    half_turn: SymplecticMap | None

    @classmethod
    def build(cls, pair: tuple[int, int], gain: float, r_out: float, flip: bool) -> "PairDecoder":
        rest = [m for m in range(3) if m != pair[1]]
        target = rest.index(pair[0])
        return cls(
            pair=pair,
            gain=gain,
            target=target,
            recombine=beam_splitter(2.0 / 3.0, pair, 3),
            rescale=squeeze(r_out, target, 2),
            half_turn=phase_rotation(math.pi, target, 2) if flip else None,
        )


# Each scenario's decoder, independent of h, built once.  Scenario 12 undoes
# the dealer's balanced splitter (an orthogonal map, so its transpose);
# scenarios 23 and 13 pair the home share 2 with its partner, and the decoder
# of players 1 and 3 ends with a half-turn.
_DECODERS = {
    "12": SymplecticMap(_SPLITTER.matrix.T),
    "23": PairDecoder.build((1, 2), DEFAULT_DECODER_GAIN, DEFAULT_DECODER_SQUEEZE, flip=False),
    "13": PairDecoder.build((0, 2), DEFAULT_DECODER_GAIN, DEFAULT_DECODER_SQUEEZE, flip=True),
}


def decoder_maps(scenario: str) -> SymplecticMap | PairDecoder:
    """The prebuilt decoder of a scenario, used at every h."""
    if scenario not in _DECODERS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return _DECODERS[scenario]


def collaborate(
    distributed: GaussianState, M: np.ndarray, N: np.ndarray, decoder: SymplecticMap | PairDecoder
) -> GaussianState:
    """Two players reunite their shares and decode the secret with `decoder`.

    `distributed` holds shares 0 and 1 after their journeys (M, N).  With the
    inverse splitter of `decoder_maps("12")` players 1 and 2 return to the
    dealer's lab: (M, N) is then the round trip, out-and-back legs merged into
    one channel, and the recombination frees the secret port exactly.  With a
    `PairDecoder` the home share 2 travels out (M, N) to meet its partner.
    Share 0 carries the secret with the opposite sign to share 1, so the
    decoder of players 1 and 3 ends with a half-turn.
    """
    if distributed.n_modes != 3:
        raise ValueError("collaborate expects the three-share state")
    if not isinstance(decoder, PairDecoder):
        return partial_trace(apply_symplectic(decoder, distributed), [0])
    state = apply_symplectic(decoder.recombine, apply_channel(M, N, distributed, mode=2))
    state = homodyne_feedforward(state, decoder.pair[1], decoder.pair[0], gain=decoder.gain)
    state = apply_symplectic(decoder.rescale, state)
    if decoder.half_turn is not None:
        state = apply_symplectic(decoder.half_turn, state)
    return partial_trace(state, [decoder.target])


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


def extrapolate_f2(fidelities):
    """h^2 coefficient of fidelity curves sampled at the `DEFAULT_F2_LADDER` accelerations.

    The pipeline fidelity is analytic in h^2, so an exact {1, h^2, h^4} fit
    through three points isolates the coefficient; returns (f2, f0_fit,
    curvature) with the h^4 coefficient as a diagnostic.  `fidelities` has
    shape (..., 3), one curve per row: floats for one curve, arrays over
    the leading axes for a stack.  Each row is solved as its own
    one-right-hand-side system, so it gets the bits of its one-row call.
    """
    fs = np.asarray(fidelities, dtype=float)
    if fs.ndim < 1 or fs.shape[-1] != 3:
        raise ValueError(f"extrapolation needs exactly three (h, F) samples per curve, got shape {fs.shape}")
    c = np.linalg.solve(_F2_VANDER, fs[..., None])[..., 0]
    x_top = _F2_X.max()
    return _item(-c[..., 1] / x_top), _item(c[..., 0]), _item(c[..., 2] / x_top**2)


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
    """(f2, source) of the three-point h-ladder fit of each row of the (U, 3) simulated fidelities `ladders`."""
    f2, _, curvature = extrapolate_f2(ladders)
    # The three-point fit isolates the h^2 coefficient only while the h^4
    # term is subdominant on the ladder.  Strong squeezing inflates the
    # quartic coefficient roughly like e^{2s}, so past s ~ 7 the default
    # ladder leaves the perturbative window and the fit returns noise.
    h_top = max(DEFAULT_F2_LADDER)
    outside = np.abs(curvature) * h_top**4 > 0.25 * np.abs(f2) * h_top**2 + 1e-12
    return [
        (float("nan"), "unavailable: quartic term dominates the ladder, outside the perturbative window")
        if out
        else (value, "three-point h-ladder fit of the simulated pipeline")
        for value, out in zip(f2.tolist(), outside.tolist())
    ]


# u-points per pipeline stack: the (4, U, 6, 6) covariances of the three-share
# states at the four accelerations (the ladder and h) hold at most
# STACK_ENTRIES entries, so a long u-grid runs a few stacks in turn.
_GRID_STACK = STACK_ENTRIES // ((len(DEFAULT_F2_LADDER) + 1) * 36)


def _u_grid(grid) -> np.ndarray:
    """The points of a u-grid as a 1-d float array; a grid of another shape or with a non-finite point raises."""
    us = np.array(grid, dtype=float)
    if us.ndim != 1 or not np.isfinite(us).all():
        raise ValueError(f"u-grid must be a list of finite numbers, got {grid!r}")
    return us


def fidelity_grid(scenario: str, config: ProtocolConfig, grid, fit: TransitionFit | None = None) -> list[FidelityReport]:
    """Closed-form, perturbative and simulated fidelities at every u of `grid`, one report per u.

    `config.u` is not read.  The journeys of the whole grid are built as one
    stack (each distinct segment phase once, on the monitored mode's rows),
    the secret is encoded once, and the journeys at the h-ladder and at
    `config.h` run through `distribute` and `collaborate` as one stack per
    `_GRID_STACK` u-points.  `f0` of scenarios 23 and 13 does not depend on
    u and is computed once; the three-point h^2 extrapolations and their
    window guard run once on the grid's (U, 3) ladder fidelities.  Each
    report has the bits of a one-u grid.
    """
    decoder = decoder_maps(scenario)  # rejects an unknown scenario
    fit = config.transition(fit)
    grid = list(grid)
    us = _u_grid(grid)
    coherent_secret = config.secret == "coherent"
    journeys, sums = _journeys(scenario, fit, config.k, us)
    secret = config.make_secret()
    encoded = encode(secret, config.s)
    # (4, U, 2, 2): the ladder's and h's axis in front of the grid's.
    M, N = journeys.evaluate(np.array([*DEFAULT_F2_LADDER, config.h]))
    sims = np.empty((len(DEFAULT_F2_LADDER) + 1, us.size))
    for start in range(0, us.size, _GRID_STACK):
        at = slice(start, start + _GRID_STACK)
        m, n = M[:, at], N[:, at]
        sims[:, at] = fidelity_pure_mixed(secret, collaborate(distribute(encoded, m, n), m, n, decoder))

    f2_closed = [float("nan")] * us.size
    if coherent_secret:
        f2_closed = fidelity_closed_forms(scenario, *sums, s=config.s).tolist()
    if scenario == "12":
        f0, f0_source = 1.0, "round trip is the identity at h = 0"
        f2_direct = _direct_f2_scenario12(journeys, secret).tolist()
        direct_source = "trace of the round-trip second-order moments"
    else:
        ideal = GaussianState(secret.d, secret.sigma + 2.0 * math.exp(-config.s) * np.eye(2))
        f0, f0_source = fidelity_pure_mixed(secret, ideal), "decoded zeroth-order moments: sigma + 2 e^{-s} I"
        f2_direct, direct_source = f2_closed, "closed form from first-order mode sums"
    # Scenarios 23 and 13 have no closed form for other secrets: f2 is the ladder fit.
    from_ladder = scenario != "12" and not coherent_secret

    reports = []
    rows = zip(grid, sims[-1].tolist(), _extrapolated_f2(sims[:-1].T), f2_direct, f2_closed)
    for u, f_sim, (f2_extrap, extrap_source), direct, closed in rows:
        f2, f2_source = (f2_extrap, extrap_source) if from_ladder else (direct, direct_source)
        reports.append(
            FidelityReport(
                scenario=scenario,
                k=config.k,
                u=u,
                h=config.h,
                s=config.s,
                secret=f"{config.secret}{tuple(config.secret_params)}",
                f0=f0,
                f2=f2,
                f_sim=f_sim,
                f2_extrapolated=f2_extrap,
                f2_closed=closed,
                f0_source=f0_source,
                f2_source=f2_source,
                f_sim_source=f"full pipeline at h = {config.h}",
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


# The exact h = 0 journey: a half-turn without noise.
_HALF_TURN, _NO_NOISE = rotation_block(math.pi), np.zeros((2, 2))


def _pipeline_h0(encoded: GaussianState, gain: float, r_out: float) -> GaussianState:
    """Scenario-23 pipeline at h = 0 on encoded shares, its decoder at (gain, r_out); stacked if the shares are."""
    decoder = replace(_DECODERS["23"], gain=gain, rescale=squeeze(r_out, _DECODERS["23"].target, 2))
    return collaborate(distribute(encoded, _HALF_TURN, _NO_NOISE), _HALF_TURN, _NO_NOISE, decoder)


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
    encoded once for all the decoders it meets.
    """
    r_out = -math.log(_pipeline_h0(encode(coherent(0.0, 1.0), CALIBRATION_S), 0.0, 0.0).d[1])
    q_shares = encode(coherent(1.0, 0.0), CALIBRATION_S)
    q_g0, q_g1 = (_pipeline_h0(q_shares, g, r_out).d[0] for g in (0.0, 1.0))
    gain = float((1.0 - q_g0) / (q_g1 - q_g0))

    fids, targets = {}, {}
    worst = 0.0
    secrets = coherent(*np.transpose(CALIBRATION_ENSEMBLE))
    for s in CALIBRATION_S_CHECKS:
        target = 1.0 / (1.0 + math.exp(-s))
        targets[str(s)] = target
        row = fidelity_pure_mixed(secrets, _pipeline_h0(encode(secrets, s), gain, r_out)).tolist()
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
    probe_shares = encode(probes, CALIBRATION_S)

    def guaranteed(g, r):
        return min(fidelity_pure_mixed(probes, _pipeline_h0(probe_shares, g, r)).tolist())

    here = guaranteed(gain, r_out)
    for dg, dr in ((0.05, 0.0), (-0.05, 0.0), (0.0, 0.05), (0.0, -0.05)):
        if guaranteed(gain + dg, r_out + dr) >= here:
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


def figure_tables(names, fit: TransitionFit, grid, config: ProtocolConfig) -> list:
    """(header, rows) of each summary figure in `names`, in that order, over a u-grid.

    The T2, nbar and F2_23 figures read one walk of the grid (`grid_segments`),
    each distinct phase built and reduced once, only on the plotted modes'
    rows; the round trips are those of `fidelity_grid`, their 2u segments
    built in the same walk as their u segments.
    """
    names = list(names)
    for name in names:
        if name not in FIGURES:
            raise ValueError(f"unknown figure {name!r}; choices: {FIGURES}")
    fit = config.transition(fit)
    us = _u_grid(list(grid))
    plotted = grid_segments(fit, us, FIGURE_MODES) if set(names) - {"F2_12_squeezed"} else []
    tables = []
    for name in names:
        if name == "T2":
            header = ["u"] + [f"T2_k{k}" for k in FIGURE_MODES]
            columns = [t2_from_sums(per_mode) for per_mode in plotted]
        elif name == "F2_23":
            header = ["u"] + [f"F2_k{k}" for k in FIGURE_MODES]
            columns = [fidelity_closed_forms("23", per_mode, s=config.s) for per_mode in plotted]
        elif name == "nbar":
            header = ["u"] + [f"nbar_k{k}" for k in FIGURE_MODES]
            columns = [channel_invariants(reduced_channel(per_mode)).nbar for per_mode in plotted]
        else:
            header = ["u"] + [f"F2_r{r}" for r in _FIGURE_SQUEEZINGS]
            chan, _ = _journeys("12", fit, config.k, us)
            columns = [_direct_f2_scenario12(chan, squeezed_vacuum(r)) for r in _FIGURE_SQUEEZINGS]
        tables.append((header, np.column_stack([us, *columns]).tolist()))
    return tables


def invariant_table(fit: TransitionFit, grid, config: ProtocolConfig) -> tuple:
    """(header, rows, least CP residual at config.h) of `rqss invariants`: (u, k, T2, nbar, rank) per u and mode.

    One walk of the plotted modes, their channels and invariants built as in the nbar figure.
    """
    us = _u_grid(list(grid))
    chans = [reduced_channel(per_mode) for per_mode in grid_segments(config.transition(fit), us, FIGURE_MODES)]
    per_mode = [[v.tolist() for v in (inv.t2, inv.nbar, inv.rank)] for inv in map(channel_invariants, chans)]
    rows = [[u, k, *(col[i] for col in cols)] for i, u in enumerate(us.tolist()) for k, cols in zip(FIGURE_MODES, per_mode)]
    worst_cp = min([np.inf, *(cp for chan in chans for cp in cp_residual(*chan.evaluate(config.h)).tolist())])
    return ["u", "k", "T2", "nbar", "r"], rows, worst_cp
