"""Single-mode Gaussian channels induced by accelerated cavity segments.

A monitored cavity mode that rides through an accelerated segment sees its
quadratures rotated at zeroth order in h, deformed at second order, and mixed
with the other modes, which act as a fresh Gaussian environment each segment.
The reduced channel is kept order by order:

    M(h) = m0 + m2 h^2,    N(h) = n2 h^2,

with ``m0`` a rotation.  Channels compose in the Markovian sense (environment
refreshed between segments); products of two second-order blocks are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, _frozen, rotation_block, symplectic_form
from .modes import BogoliubovSet, ModeSums

_DEGENERATE_NOISE_FLOOR = 1e-18
_RANK_CUTOFF = 1e-12


def complex_pair_block(alpha: complex, beta: complex) -> np.ndarray:
    """Quadrature block of a mode map a -> alpha* a - beta* a^dagger."""
    return np.array(
        [
            [np.real(alpha - beta), np.imag(alpha + beta)],
            [-np.imag(alpha - beta), np.real(alpha + beta)],
        ]
    )


@dataclass(frozen=True)
class PerturbativeChannel:
    """Gaussian channel kept to second order in the acceleration h."""

    m0: np.ndarray
    m2: np.ndarray
    n2: np.ndarray

    def __post_init__(self):
        for name in ("m0", "m2", "n2"):
            arr = _frozen(getattr(self, name))
            if arr.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got {arr.shape}")
            object.__setattr__(self, name, arr)

    @classmethod
    def identity(cls) -> "PerturbativeChannel":
        return cls(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))

    def evaluate(self, h: float):
        """(M, N) of the channel at a concrete acceleration."""
        return self.m0 + self.m2 * h * h, self.n2 * h * h


def free_channel(phi: float) -> PerturbativeChannel:
    """Noiseless free evolution by inertial phase phi."""
    return PerturbativeChannel(rotation_block(phi), np.zeros((2, 2)), np.zeros((2, 2)))


def segment_channel(bogo: BogoliubovSet, k: int) -> PerturbativeChannel:
    """Reduced channel on mode k across one accelerated segment.

    Zeroth order rotates by the segment phase of mode k; the second-order
    deformation comes from the diagonal mode-map entries and the noise block
    from the first-order couplings to every other mode.
    """
    if not 1 <= k <= bogo.n_max:
        raise ValueError(f"mode {k} outside 1..{bogo.n_max}")
    row = k - 1
    m0 = complex_pair_block(bogo.alpha0[row], 0.0)
    m2 = complex_pair_block(bogo.alpha2[row, row], bogo.beta2[row, row])
    others = np.arange(bogo.n_max) != row
    blk = np.moveaxis(complex_pair_block(bogo.alpha1[row, others], bogo.beta1[row, others]), -1, 0)
    n2 = np.sum(blk @ blk.transpose(0, 2, 1), axis=0)
    return PerturbativeChannel(m0, m2, n2)


def compose(after: PerturbativeChannel, before: PerturbativeChannel) -> PerturbativeChannel:
    """Channel equal to `before` followed by `after`, to second order."""
    m0 = after.m0 @ before.m0
    m2 = after.m2 @ before.m0 + after.m0 @ before.m2
    n2 = after.m0 @ before.n2 @ after.m0.T + after.n2
    return PerturbativeChannel(m0, m2, n2)


def compose_sequence(channels) -> PerturbativeChannel:
    """Compose a list of channels given in time order (first applied first)."""
    out = PerturbativeChannel.identity()
    for ch in channels:
        out = compose(ch, out)
    return out


def apply_channel(M: np.ndarray, N: np.ndarray, state: GaussianState, mode: int = 0) -> GaussianState:
    """Apply a concrete single-mode channel (M, N) to one mode of a state."""
    n = state.n_modes
    if not 0 <= mode < n:
        raise ValueError(f"mode {mode} outside state with {n} modes")
    full_m = np.eye(2 * n)
    full_m[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = M
    full_n = np.zeros((2 * n, 2 * n))
    full_n[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = N
    sigma = full_m @ state.sigma @ full_m.T + full_n
    return GaussianState(full_m @ state.d, 0.5 * (sigma + sigma.T))


def second_order_moments(channel: PerturbativeChannel, state: GaussianState):
    """Output moments split by order: (d0, d2, sigma0, sigma2).

    For a single-mode input, output d = d0 + d2 h^2 and
    sigma = sigma0 + sigma2 h^2 up to O(h^4).
    """
    if state.n_modes != 1:
        raise ValueError("second_order_moments expects a single-mode state")
    d0 = channel.m0 @ state.d
    d2 = channel.m2 @ state.d
    sigma0 = channel.m0 @ state.sigma @ channel.m0.T
    sigma2 = (
        channel.m2 @ state.sigma @ channel.m0.T
        + channel.m0 @ state.sigma @ channel.m2.T
        + channel.n2
    )
    return d0, d2, sigma0, sigma2


# ---------------------------------------------------------------------------
# channel invariants and the thermal-lossy canonical form


@dataclass(frozen=True)
class ChannelInvariants:
    """Canonical-form data of a segment-induced channel.

    Transmissivity T(h) = 1 - t2 h^2 and the h-independent mean occupation
    nbar of the equivalent thermal-lossy channel.  `rank` is
    min(rank M, rank N); a channel with no noise block (u integer) is
    degenerate and reports t2 = 0, nbar = nan, rank 0.
    """

    t2: float
    nbar: float
    rank: int
    degenerate: bool
    k: int | None = None
    u: float | None = None

    def transmissivity(self, h: float) -> float:
        return 1.0 - self.t2 * h * h


def channel_invariants(channel: PerturbativeChannel, k: int | None = None, u: float | None = None) -> ChannelInvariants:
    noise_scale = float(np.linalg.norm(channel.n2, 2))
    if noise_scale < _DEGENERATE_NOISE_FLOOR:
        return ChannelInvariants(0.0, float("nan"), 0, True, k, u)
    t2 = -float(np.trace(channel.m0.T @ channel.m2))
    nbar = float(np.sqrt(np.linalg.det(channel.n2)) / (2.0 * t2) - 0.5)
    rank_m = int(np.sum(np.linalg.svd(channel.m0 + channel.m2, compute_uv=False) > _RANK_CUTOFF))
    svals_n = np.linalg.svd(channel.n2, compute_uv=False)
    rank_n = int(np.sum(svals_n > _RANK_CUTOFF * max(1.0, svals_n[0])))
    return ChannelInvariants(t2, nbar, min(rank_m, rank_n), False, k, u)


def t2_from_sums(sums: ModeSums) -> float:
    """Transmissivity deficit 2 (f_alpha - f_beta) from first-order sums."""
    return 2.0 * (sums.f_alpha - sums.f_beta)


def cp_residual(M: np.ndarray, N: np.ndarray) -> float:
    """Min eigenvalue of N + i Gamma - i M Gamma M^T; >= 0 iff the map is CP."""
    gamma = symplectic_form(1)
    herm = N + 1j * gamma - 1j * M @ gamma @ M.T
    return float(np.min(np.linalg.eigvalsh(herm)))
