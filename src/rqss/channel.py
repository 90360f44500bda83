"""Single-mode Gaussian channels induced by accelerated cavity segments.

A monitored cavity mode that rides through an accelerated segment sees its
quadratures rotated at zeroth order in h, deformed at second order, and mixed
with the other modes, which act as a fresh Gaussian environment each segment.
The reduced channel is kept order by order:

    M(h) = m0 + m2 h^2,    N(h) = n2 h^2,

with ``m0`` a rotation.  Channels compose in the Markovian sense (environment
refreshed between segments); products of two second-order blocks are dropped.
Every block may carry leading axes: a stack of channels, one per segment
phase (and per mode, for the (mode, u) stacks of `rqss.modes.grid_segments`),
goes through the same arithmetic as a single channel, matrix by matrix.
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


def embed_channel(M: np.ndarray, N: np.ndarray, n_modes: int, modes: tuple[int, ...]):
    """A concrete single-mode channel (M, N) on each of `modes` of `n_modes`, as one block-diagonal map on all of them.

    Off those modes' diagonal blocks M is the identity and N zero;
    (..., 2, 2) stacks of M and N give (..., 2n, 2n) stacks.
    """
    if not modes or not all(0 <= m < n_modes for m in modes):
        raise ValueError(f"modes {modes} outside state with {n_modes} modes")
    full_m = np.broadcast_to(_identity(n_modes), M.shape[:-2] + (2 * n_modes, 2 * n_modes)).copy()
    full_n = np.zeros(N.shape[:-2] + (2 * n_modes, 2 * n_modes))
    for m in modes:
        block = slice(2 * m, 2 * m + 2)
        full_m[..., block, block] = M
        full_n[..., block, block] = N
    return full_m, full_n


def apply_channel(M: np.ndarray, N: np.ndarray, state: GaussianState) -> GaussianState:
    """Apply a concrete channel (M, N) on all n modes of a state: (..., 2n, 2n) blocks, as `embed_channel` builds them.

    Stacks of M and N, a stack of states, or both give the stack of outputs.
    """
    n = state.n_modes
    if M.shape[-2:] != (2 * n, 2 * n) or N.shape[-2:] != (2 * n, 2 * n):
        raise ValueError(f"channel blocks {M.shape} and {N.shape} do not act on a state with {n} modes")
    sigma = M @ state.sigma @ _transpose(M) + N
    return GaussianState(_mat_vec(M, state.d), 0.5 * (sigma + _transpose(sigma)))


# ---------------------------------------------------------------------------
# channel invariants and the thermal-lossy canonical form


@dataclass(frozen=True)
class ChannelInvariants:
    """Canonical-form data of a segment-induced channel.

    Transmissivity T(h) = 1 - t2 h^2 and the h-independent mean occupation
    nbar of the equivalent thermal-lossy channel.  `rank` is
    min(rank M, rank N) of the blocks at h = 1, M = m0 + m2 and N = n2; a
    channel with no noise block (u integer) is degenerate and reports
    t2 = 0, nbar = nan, rank 0.  Arrays over u for a stack of channels.
    """

    t2: float
    nbar: float
    rank: int


def _singular_values(blocks: np.ndarray) -> np.ndarray:
    """Both singular values of each block of a (..., 2, 2) stack, largest first, as a (..., 2) array.

    In closed form: with e = |(a00 + a11, a01 - a10)| and
    f = |(a00 - a11, a01 + a10)|, they are (e + f) / 2 and |e - f| / 2, the
    smaller one to a few ulps of the larger.
    """
    a00, a01, a10, a11 = (blocks[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    e, f = np.hypot(a00 + a11, a01 - a10), np.hypot(a00 - a11, a01 + a10)
    return 0.5 * np.stack([e + f, np.abs(e - f)], axis=-1)


def channel_invariants(channel: PerturbativeChannel) -> ChannelInvariants:
    """Invariants of one channel, or arrays of them over a stack of channels.

    A channel is degenerate when the larger singular value of n2 is below
    1e-18.  Degenerate channels are masked out before nbar divides by t2,
    so they report their fixed values without a floating-point warning.  A
    live channel with t2 = 0 adds noise with no loss: its nbar is inf, set
    rather than divided for.  A live t2 so small that sqrt(det n2) / (2 t2)
    overflows (a subnormal t2 beside n2 = I) reads nbar = +-inf, the sign
    of t2, also without a warning.  The rank counts the singular values of
    M = m0 + m2 and N = n2, the blocks at h = 1, above 1e-12 (relative to
    the larger one for N, when that exceeds 1).  The singular values come
    in closed form (`_singular_values`), and only these threshold tests
    read them: t2 and nbar see them only through the degeneracy mask.  A
    block holding a NaN or an inf is rejected, before any arithmetic, with
    a `ValueError` that names it.
    """
    for name in ("m0", "m2", "n2"):
        block = getattr(channel, name)
        if not np.isfinite(block).all():
            at = tuple(np.argwhere(~np.isfinite(block))[0].tolist())
            raise ValueError(f"channel block {name} is not finite at index {at}")
    svals_n = _singular_values(channel.n2)
    degenerate = svals_n[..., 0] < _DEGENERATE_NOISE_FLOOR  # the spectral norm of n2
    live = ~degenerate
    t2 = np.where(degenerate, 0.0, -np.trace(_transpose(channel.m0) @ channel.m2, axis1=-2, axis2=-1))
    root = np.sqrt(np.linalg.det(channel.n2), where=live, out=np.zeros(t2.shape))
    with np.errstate(over="ignore"):
        nbar = np.divide(root, 2.0 * t2, where=live & (t2 != 0.0), out=np.where(live, np.inf, np.nan)) - 0.5
    rank_m = np.sum(_singular_values(channel.m0 + channel.m2) > _RANK_CUTOFF, axis=-1)
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
