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

from dataclasses import dataclass, fields, replace

import numpy as np

from .gaussian import GaussianState, _frozen, _identity, _item, _mat_vec, _transpose, rotation_block, symplectic_form
from .modes import BogoliubovSet, ModeSums, TransitionFit, mode_sums, segment_stacks

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
    """Gaussian channel kept to second order in the acceleration h.

    Blocks are 2x2, or (..., 2, 2) for a stack of channels.
    """

    m0: np.ndarray
    m2: np.ndarray
    n2: np.ndarray

    def __post_init__(self):
        for name in ("m0", "m2", "n2"):
            arr = _frozen(getattr(self, name))
            if arr.shape[-2:] != (2, 2):
                raise ValueError(f"{name} must be 2x2, got {arr.shape}")
            object.__setattr__(self, name, arr)

    def __getitem__(self, index) -> "PerturbativeChannel":
        """The channels at `index` of a stack; the index acts on the leading axes."""
        return PerturbativeChannel(self.m0[index], self.m2[index], self.n2[index])

    @classmethod
    def identity(cls) -> "PerturbativeChannel":
        return cls(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))

    def evaluate(self, h):
        """(M, N) of the channel at a concrete acceleration.

        An array of h puts its axes in front of the channel's: a single
        channel at H accelerations gives (H, 2, 2) stacks of M and N.
        """
        h = np.reshape(h, np.shape(h) + (1,) * self.m0.ndim)
        return self.m0 + self.m2 * h * h, self.n2 * h * h


def _blocks(block: np.ndarray) -> np.ndarray:
    """Move the 2x2 axes of a (2, 2, ...) array of blocks last."""
    return block.transpose(*range(2, block.ndim), 0, 1)


def free_channel(phi: float) -> PerturbativeChannel:
    """Noiseless free evolution by inertial phase phi (an array: a stack)."""
    return PerturbativeChannel(_blocks(rotation_block(phi)), np.zeros((2, 2)), np.zeros((2, 2)))


def _segment_channel(bogo: BogoliubovSet, k: int) -> PerturbativeChannel:
    """`segment_channel` of one segment or, stacked, of a stack of segments."""
    row = bogo.row(k)
    m0 = _blocks(complex_pair_block(bogo.alpha0[..., row], 0.0))
    m2 = _blocks(complex_pair_block(bogo.alpha2[..., row, row], bogo.beta2[..., row, row]))
    others = np.arange(bogo.n_max) != k - 1
    blk = _blocks(complex_pair_block(bogo.alpha1[..., row, others], bogo.beta1[..., row, others]))
    # One coupled mode after another, in mode order.
    n2 = np.sum(blk @ _transpose(blk), axis=-3)
    return PerturbativeChannel(m0, m2, n2)


def segment_channel(bogo: BogoliubovSet, k: int) -> PerturbativeChannel:
    """Reduced channel on mode k across one accelerated segment.

    Zeroth order rotates by the segment phase of mode k; the second-order
    deformation comes from the diagonal mode-map entries and the noise block
    from the first-order couplings to every other mode.
    """
    # One segment only: the benchmark's tracer (perfbench/tracing.py) hashes
    # this call's `bogo.u`, so stacks go through `_segment_channel`.
    return _segment_channel(bogo, k)


def _join(stacks):
    """Consecutive stacks of a channel or of a mode's sums as one stack along u; a single stack as it is."""
    if len(stacks) == 1:
        return stacks[0]
    first = stacks[0]
    arrays = [f.name for f in fields(first) if np.ndim(getattr(first, f.name))]
    return replace(first, **{name: np.concatenate([getattr(s, name) for s in stacks]) for name in arrays})


def grid_segments(fit: TransitionFit, us, modes, channels: bool = True, sums: bool = True):
    """Segment channels and mode sums at every phase in `us`: two lists in the order of `modes`.

    Each item is one mode's stack over u; a list not asked for is empty.
    The maps are built on the rows of `modes` only, a bounded stack at a
    time (`segment_stacks`); each stack is reduced at once to what was asked
    for, and the reductions of several stacks are then joined.
    """
    chans, sums_by_stack = [], []
    for maps in segment_stacks(fit, us, modes):
        chans.append([_segment_channel(maps, k) for k in modes] if channels else [])
        sums_by_stack.append([mode_sums(maps, k) for k in modes] if sums else [])
    return [_join(per_mode) for per_mode in zip(*chans)], [_join(per_mode) for per_mode in zip(*sums_by_stack)]


def compose(after: PerturbativeChannel, before: PerturbativeChannel) -> PerturbativeChannel:
    """Channel equal to `before` followed by `after`, to second order."""
    m0 = after.m0 @ before.m0
    m2 = after.m2 @ before.m0 + after.m0 @ before.m2
    n2 = after.m0 @ before.n2 @ _transpose(after.m0) + after.n2
    return PerturbativeChannel(m0, m2, n2)


def compose_sequence(channels) -> PerturbativeChannel:
    """Compose a list of channels given in time order (first applied first); none gives the identity."""
    if not channels:
        return PerturbativeChannel.identity()
    out = channels[0]
    for ch in channels[1:]:
        out = compose(ch, out)
    return out


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


def second_order_moments(channel: PerturbativeChannel, state: GaussianState):
    """Output moments split by order: (d0, d2, sigma0, sigma2).

    For a single-mode input, output d = d0 + d2 h^2 and
    sigma = sigma0 + sigma2 h^2 up to O(h^4).
    """
    if state.n_modes != 1:
        raise ValueError("second_order_moments expects a single-mode state")
    d0 = channel.m0 @ state.d
    d2 = channel.m2 @ state.d
    sigma0 = channel.m0 @ state.sigma @ _transpose(channel.m0)
    sigma2 = (
        channel.m2 @ state.sigma @ _transpose(channel.m0)
        + channel.m0 @ state.sigma @ _transpose(channel.m2)
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
    degenerate and reports t2 = 0, nbar = nan, rank 0.  Arrays over u for
    a stack of channels.
    """

    t2: float
    nbar: float
    rank: int
    degenerate: bool

    def transmissivity(self, h: float) -> float:
        return 1.0 - self.t2 * h * h


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
    return ChannelInvariants(_item(t2), _item(nbar), _item(rank), _item(degenerate))


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
