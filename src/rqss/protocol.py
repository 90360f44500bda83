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
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import (
    GaussianState,
    apply_symplectic,
    beam_splitter,
    coherent,
    fidelity_pure_mixed,
    homodyne_feedforward,
    partial_trace,
    phase_rotation,
    squeeze,
    squeezed_vacuum,
    tensor,
    two_mode_squeezed_vacuum,
    SymplecticMap,
)
from .modes import (
    DEFAULT_L,
    DEFAULT_NMAX,
    BogoliubovSet,
    ModeSums,
    TransitionFit,
    _item,
    get_transition,
    mode_sums,
    segment_bogoliubov,
    segment_stacks,
)
from .channel import (
    PerturbativeChannel,
    apply_channel,
    channel_invariants,
    compose_sequence,
    free_channel,
    grid_channels,
    second_order_moments,
    segment_channel,
    t2_from_sums,
)

# Decoder working point, fixed by the h = 0 calibration below and frozen
# here: a 2:1 recombining beam splitter needs feed-forward gain -2 sqrt 2
# and output q-rescaling by 1/sqrt 3 to hand back the secret exactly.
DEFAULT_DECODER_GAIN = -2.0 * math.sqrt(2.0)
DEFAULT_DECODER_SQUEEZE = 0.5 * math.log(3.0)
# Acceleration ladder used to pull the h^2 fidelity coefficient out of the
# simulated pipeline.
DEFAULT_F2_LADDER = (1.0e-2, 5.0e-3, 2.5e-3)
# Calibration: dealer squeezing of the solve and the certificate, coherent
# probe secrets and squeezings of the 1/(1 + e^{-s}) check, and its tolerance.
CALIBRATION_S = 1.0
CALIBRATION_ENSEMBLE = ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0), (-3.0, 3.0))
CALIBRATION_S_CHECKS = (0.0, 0.5, 1.0, 2.0)
CALIBRATION_TOL = 1e-6


# Parameter names of each secret kind, in the order of `secret_params`.
_SECRET_PARAMS = {"coherent": ("q", "p"), "squeezed": ("r",)}


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
    length: float = DEFAULT_L
    n_max: int = DEFAULT_NMAX
    cache_dir: str | None = None
    use_cache: bool = True

    def __post_init__(self):
        for name in ("s", "u", "h", "length"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("k", "n_max"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.use_cache, bool):
            raise ValueError(f"use_cache must be true or false, got {self.use_cache!r}")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise ValueError(f"cache_dir must be a string or null, got {self.cache_dir!r}")
        if self.length <= 0.0:
            raise ValueError(f"cavity length must be positive, got {self.length}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        if not 1 <= self.k <= self.n_max:
            raise ValueError(f"monitored mode k = {self.k} outside 1..{self.n_max}")
        if not 0.0 <= self.h < 2.0:
            raise ValueError(f"h must lie in [0, 2), got {self.h}")
        if self.s < 0.0:
            raise ValueError(f"dealer squeezing s must be nonnegative, got {self.s}")
        if not isinstance(self.secret, str) or self.secret not in _SECRET_PARAMS:
            raise ValueError(f"unknown secret kind {self.secret!r}; choices: {sorted(_SECRET_PARAMS)}")
        params = self.secret_params
        if not isinstance(params, (tuple, list)) or not all(_is_number(x) and math.isfinite(x) for x in params):
            raise ValueError(f"secret_params must be a list of finite numbers, got {params!r}")
        object.__setattr__(self, "secret_params", tuple(params))
        if len(self.secret_params) != len(_SECRET_PARAMS[self.secret]):
            names = ",".join(_SECRET_PARAMS[self.secret])
            raise ValueError(f"{self.secret} secret needs parameters {names}, got {self.secret_params}")

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object of ProtocolConfig fields, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def transition(self) -> TransitionFit:
        return get_transition(self.length, self.n_max, cache_dir=self.cache_dir, use_cache=self.use_cache)

    def make_secret(self) -> GaussianState:
        if self.secret == "coherent":
            return coherent(*self.secret_params)
        return squeezed_vacuum(*self.secret_params)


# ---------------------------------------------------------------------------
# encoding and journeys


def encode(secret: GaussianState, s: float) -> GaussianState:
    """Split the secret into three shares (secret port mixed with one TMSV arm).

    Share 0 = (secret + arm A)/sqrt2, share 1 = (arm A - secret)/sqrt2,
    share 2 = arm B.
    """
    if secret.n_modes != 1:
        raise ValueError("the secret must be a single-mode state")
    joint = tensor(secret, two_mode_squeezed_vacuum(s))
    return apply_symplectic(beam_splitter(0.5, (0, 1), 3), joint)


def inertial_phase(k: int, u: float) -> float:
    """Dealer's tuning of a free leg following a segment of phase 2 pi k u (u may be an array)."""
    return math.pi - 2.0 * (2.0 * math.pi * k * u)


@dataclass(frozen=True)
class JourneyChannel(PerturbativeChannel):
    """A journey's channel with the segment maps it was built from.

    `segments` holds the map of phase u and, on a round trip, the merged
    middle segment of phase 2u, so their mode sums need no second build.
    """

    segments: tuple[BogoliubovSet, ...] = ()


def _round_trip(seg: PerturbativeChannel, seg_mid: PerturbativeChannel, k: int, u) -> PerturbativeChannel:
    """Round trip of segment channels at phases u and 2u; stacked over u if they are."""
    leg = free_channel(inertial_phase(k, u))
    return compose_sequence([seg, leg, seg_mid, leg, seg])


def transit_channel(fit: TransitionFit, k: int, u: float) -> JourneyChannel:
    """One-way journey: segment, tuned free leg, segment.

    Zeroth order is a rotation by exactly pi for every (k, u).
    """
    bogo = segment_bogoliubov(fit, u)
    seg = segment_channel(bogo, k)
    chan = compose_sequence([seg, free_channel(inertial_phase(k, u)), seg])
    return JourneyChannel(chan.m0, chan.m2, chan.n2, (bogo,))


def round_trip_channel(fit: TransitionFit, k: int, u: float) -> JourneyChannel:
    """Out-and-back journey: the two middle segments merge into one of phase 2u.

    Zeroth order is a rotation by exactly 2 pi.
    """
    bogo, bogo_mid = segment_bogoliubov(fit, u), segment_bogoliubov(fit, 2.0 * u)
    chan = _round_trip(segment_channel(bogo, k), segment_channel(bogo_mid, k), k, u)
    return JourneyChannel(chan.m0, chan.m2, chan.n2, (bogo, bogo_mid))


def distribute(encoded: GaussianState, M: np.ndarray, N: np.ndarray) -> GaussianState:
    """Send shares 0 and 1 through one-way journeys (M, N); share 2 stays home."""
    if encoded.n_modes != 3:
        raise ValueError("distribute expects the three-share state")
    out = apply_channel(M, N, encoded, mode=0)
    return apply_channel(M, N, out, mode=1)


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


# Shares each collaboration with the home share decodes, and whether its
# decoder ends with a half-turn.
_HOME_PAIRS = {"23": ((1, 2), False), "13": ((0, 2), True)}


def decoder_maps(scenario: str) -> SymplecticMap | PairDecoder:
    """The decoder of a scenario, independent of h: build once, use at every h.

    Scenario 12 undoes the dealer's balanced splitter (an orthogonal map, so
    its transpose); scenarios 23 and 13 use the calibrated pair decoder.
    """
    if scenario == "12":
        return SymplecticMap(beam_splitter(0.5, (0, 1), 3).matrix.T)
    if scenario in _HOME_PAIRS:
        pair, flip = _HOME_PAIRS[scenario]
        return PairDecoder.build(pair, DEFAULT_DECODER_GAIN, DEFAULT_DECODER_SQUEEZE, flip)
    raise ValueError(f"unknown scenario {scenario!r}")


def _decode_pair(state: GaussianState, decoder: PairDecoder) -> GaussianState:
    """Recombine two shares, homodyne one port, feed forward, rescale."""
    pair = decoder.pair
    state = apply_symplectic(decoder.recombine, state)
    state = homodyne_feedforward(state, measured_mode=pair[1], target_mode=pair[0], quadrature="q", gain=decoder.gain)
    state = apply_symplectic(decoder.rescale, state)
    if decoder.half_turn is not None:
        state = apply_symplectic(decoder.half_turn, state)
    return partial_trace(state, [decoder.target])


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
    if isinstance(decoder, PairDecoder):
        return _decode_pair(apply_channel(M, N, distributed, mode=2), decoder)
    return partial_trace(apply_symplectic(decoder, distributed), [0])


def _fidelity_curve(scenario: str, config: ProtocolConfig, fit: TransitionFit):
    """Build a scenario's h-independent parts once: (secret, journey, h -> F).

    The secret, its encoding, the journey channel and the decoder maps do not
    depend on the acceleration, so only evaluating the journey at h and
    running the stages on it repeats per h.
    """
    decoder = decoder_maps(scenario)  # rejects an unknown scenario
    build = round_trip_channel if scenario == "12" else transit_channel
    journey = build(fit, config.k, config.u)
    secret = config.make_secret()
    encoded = encode(secret, config.s)

    def fidelity(h: float) -> float:
        M, N = journey.evaluate(h)
        return fidelity_pure_mixed(secret, collaborate(distribute(encoded, M, N), M, N, decoder))

    return secret, journey, fidelity


def simulate_fidelity(scenario: str, config: ProtocolConfig, fit: TransitionFit, h: float | None = None) -> float:
    """Full-pipeline fidelity between the secret and the decoded mode."""
    if h is not None:
        config = replace(config, h=h)
    _, _, fidelity = _fidelity_curve(scenario, config, fit)
    return fidelity(config.h)


# ---------------------------------------------------------------------------
# perturbative fidelities


def fidelity_closed_forms(
    scenario: str,
    sums_u: ModeSums,
    sums_2u: ModeSums | None = None,
    s: float | None = None,
) -> dict:
    """Zeroth- and second-order fidelity for a coherent secret.

    Scenario 12 needs the mode sums of both the u and the 2u segments;
    scenario 23 needs the squeezing s.
    """
    if scenario == "12":
        if sums_2u is None:
            raise ValueError("scenario 12 needs the 2u-segment sums")
        return {"f0": 1.0, "f2": 2.0 * (2.0 * sums_u.f_beta + sums_2u.f_beta)}
    if scenario in ("23", "13"):
        if s is None:
            raise ValueError("scenario 23 needs the squeezing s")
        es = math.exp(s)
        f0 = 1.0 / (1.0 + math.exp(-s))
        f2 = (
            4.0
            * es
            / (1.0 + es) ** 2
            * (sums_u.f_beta - sums_u.f_alpha + es * (sums_u.f_alpha + 2.0 * sums_u.f_beta))
        )
        return {"f0": f0, "f2": f2}
    raise ValueError(f"unknown scenario {scenario!r}")


def extrapolate_f2(fidelities, hs=DEFAULT_F2_LADDER):
    """h^2 coefficient of a fidelity curve sampled at three accelerations.

    The pipeline fidelity is analytic in h^2, so an exact {1, h^2, h^4} fit
    through three points isolates the coefficient; returns (f2, f0_fit,
    curvature) with the h^4 coefficient as a diagnostic.
    """
    hs = np.asarray(hs, dtype=float)
    fs = np.asarray(fidelities, dtype=float)
    if hs.shape != (3,) or fs.shape != (3,):
        raise ValueError("extrapolation needs exactly three (h, F) samples")
    x = hs**2
    vand = np.vander(x / x.max(), 3, increasing=True)
    c = np.linalg.solve(vand, fs)
    return float(-c[1] / x.max()), float(c[0]), float(c[2] / x.max() ** 2)


def _direct_f2_scenario12(chan: PerturbativeChannel, secret: GaussianState) -> float:
    """Second-order fidelity loss from the round-trip channel's moments.

    Valid for any pure secret: the balanced recombination commutes with the
    identical per-share channels, so the decoded port sees the round-trip
    channel `chan` applied straight to the secret.  An array over a stack of
    round trips.
    """
    _, _, _, sigma2 = second_order_moments(chan, secret)
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

    def perturbative(self, h: float | None = None) -> float:
        """F0 - F2 h^2, the truncated prediction; displacement independent."""
        h = self.h if h is None else h
        return self.f0 - self.f2 * h * h

    def to_json_dict(self) -> dict:
        out = dict(self.__dict__)
        return out


def fidelity_report(scenario: str, config: ProtocolConfig, fit: TransitionFit | None = None) -> FidelityReport:
    """Assemble closed-form, perturbative and simulated fidelities."""
    if fit is None:
        fit = config.transition()
    secret, journey, fidelity = _fidelity_curve(scenario, config, fit)
    # Mode sums of the journey's own segments: u, then 2u on a round trip.
    sums = [mode_sums(bogo, config.k) for bogo in journey.segments]

    sims = [fidelity(h) for h in DEFAULT_F2_LADDER]
    f2_extrap, _, curvature = extrapolate_f2(sims)
    # The three-point fit isolates the h^2 coefficient only while the h^4
    # term is subdominant on the ladder.  Strong squeezing inflates the
    # quartic coefficient roughly like e^{2s}, so past s ~ 7 the default
    # ladder leaves the perturbative window and the fit returns noise.
    h_top = max(DEFAULT_F2_LADDER)
    extrap_source = "three-point h-ladder fit of the simulated pipeline"
    if abs(curvature) * h_top**4 > 0.25 * abs(f2_extrap) * h_top**2 + 1e-12:
        f2_extrap = float("nan")
        extrap_source = "unavailable: quartic term dominates the ladder, outside the perturbative window"
    f_sim = fidelity(config.h)

    coherent_secret = config.secret == "coherent"
    if scenario == "12":
        f0 = 1.0
        f0_source = "round trip is the identity at h = 0"
        f2 = _direct_f2_scenario12(journey, secret)
        f2_source = "trace of the round-trip second-order moments"
        f2_closed = float("nan")
        if coherent_secret:
            f2_closed = fidelity_closed_forms("12", *sums)["f2"]
    else:
        ideal = GaussianState(secret.d, secret.sigma + 2.0 * math.exp(-config.s) * np.eye(2))
        f0 = fidelity_pure_mixed(secret, ideal)
        f0_source = "decoded zeroth-order moments: sigma + 2 e^{-s} I"
        if coherent_secret:
            closed = fidelity_closed_forms(scenario, sums[0], s=config.s)
            f2 = closed["f2"]
            f2_closed = closed["f2"]
            f2_source = "closed form from first-order mode sums"
        else:
            f2 = f2_extrap
            f2_closed = float("nan")
            f2_source = extrap_source

    return FidelityReport(
        scenario=scenario,
        k=config.k,
        u=config.u,
        h=config.h,
        s=config.s,
        secret=f"{config.secret}{tuple(config.secret_params)}",
        f0=f0,
        f2=f2,
        f_sim=f_sim,
        f2_extrapolated=f2_extrap,
        f2_closed=f2_closed,
        f0_source=f0_source,
        f2_source=f2_source,
        f_sim_source=f"full pipeline at h = {config.h}",
    )


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


def _pipeline_h0(secret: GaussianState, s: float, gain: float, r_out: float) -> GaussianState:
    """Scenario-23 pipeline at h = 0: journeys degenerate to half-turns."""
    state = encode(secret, s)
    for mode in (1, 2):
        state = apply_symplectic(phase_rotation(math.pi, mode, 3), state)
    return _decode_pair(state, PairDecoder.build((1, 2), gain, r_out, flip=False))


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
    probes.
    """
    r_out = -math.log(_pipeline_h0(coherent(0.0, 1.0), CALIBRATION_S, 0.0, 0.0).d[1])
    q_g0, q_g1 = (_pipeline_h0(coherent(1.0, 0.0), CALIBRATION_S, g, r_out).d[0] for g in (0.0, 1.0))
    gain = float((1.0 - q_g0) / (q_g1 - q_g0))

    fids, targets = {}, {}
    worst = 0.0
    secrets = [coherent(q0, p0) for q0, p0 in CALIBRATION_ENSEMBLE]
    for s in CALIBRATION_S_CHECKS:
        target = 1.0 / (1.0 + math.exp(-s))
        targets[str(s)] = target
        row = {}
        for (q0, p0), sec in zip(CALIBRATION_ENSEMBLE, secrets):
            f = fidelity_pure_mixed(sec, _pipeline_h0(sec, s, gain, r_out))
            row[f"({q0},{p0})"] = f
            worst = max(worst, abs(f - target))
        fids[str(s)] = row
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
    probes = [coherent(amp, 0.0), coherent(0.0, amp), coherent(-amp, 0.0), coherent(0.0, -amp)]

    def guaranteed(g, r):
        return min(fidelity_pure_mixed(sec, _pipeline_h0(sec, CALIBRATION_S, g, r)) for sec in probes)

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


# Per-mode value of the mode-sum figures: (column prefix, value(sums, config)),
# arrays over a stack of segments.
_SUMS_FIGURES = {
    "T2": ("T2", lambda sums, config: t2_from_sums(sums)),
    "F2_23": ("F2", lambda sums, config: fidelity_closed_forms("23", sums, s=config.s)["f2"]),
}
_FIGURE_MODES = (1, 2, 3)
_FIGURE_SQUEEZINGS = (0.0625, 0.125, 0.25)


def figure_data(name: str, fit: TransitionFit, grid, config: ProtocolConfig):
    """(header, rows) for one summary figure over a u-grid.

    The grid is evaluated as stacks of segments (`segment_stacks`), each
    distinct phase built once; the round trip's 2u segments come from the
    same stacks as its u segments.
    """
    us = np.array([float(u) for u in grid])
    if name in _SUMS_FIGURES:
        prefix, value = _SUMS_FIGURES[name]
        header = ["u"] + [f"{prefix}_k{k}" for k in _FIGURE_MODES]
        stacks = segment_stacks(fit, us, second_order=False)
        columns = np.concatenate(
            [[value(mode_sums(maps, k), config) for k in _FIGURE_MODES] for maps in stacks], axis=-1
        )
    elif name == "nbar":
        header = ["u"] + [f"nbar_k{k}" for k in _FIGURE_MODES]
        columns = channel_invariants(grid_channels(fit, us, _FIGURE_MODES)).nbar.T
    elif name == "F2_12_squeezed":
        header = ["u"] + [f"F2_r{r}" for r in _FIGURE_SQUEEZINGS]
        # The phases u and 2u, each distinct one built once; `where` maps them back.
        phases, where = np.unique(np.concatenate([us, 2.0 * us]), return_inverse=True)
        segs = grid_channels(fit, phases, (config.k,))
        chan = _round_trip(segs[where[: us.size], 0], segs[where[us.size :], 0], config.k, us)
        columns = [_direct_f2_scenario12(chan, squeezed_vacuum(r)) for r in _FIGURE_SQUEEZINGS]
    else:
        raise ValueError(f"unknown figure {name!r}; choices: {FIGURES}")
    return header, np.column_stack([us, *columns]).tolist()
